"""Public API: every exported name resolves; one rank rule, two fit routines."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pftcs


def test_public_names_resolve():
    modules = [pftcs] + [importlib.import_module(f"pftcs.{info.name}")
                         for info in pkgutil.iter_modules(pftcs.__path__)]
    missing = [(mod.__name__, name) for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_linear_solves_and_rank_rule_only_in_fits():
    # the condition-number rule lives in recovery._rank_rule alone; the
    # stacked fits (recovery._fits) and the pursuit's grown fit
    # (recovery._GrownFit) each hold one solve and call it; a second rule
    # or solver would split them
    sites = []
    for path in sorted(Path(pftcs.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                    sites.append((path.stem, getattr(top, "name", None), "import"))
                elif (isinstance(node, ast.Attribute)
                      and node.attr in ("solve", "cond", "eigvalsh", "eigh", "svd", "lstsq", "qr")
                      and ast.unparse(node.value).endswith("linalg")):
                    sites.append((path.stem, getattr(top, "name", None), node.attr))
    assert sorted(sites) == [("recovery", "_GrownFit", "solve"), ("recovery", "_fits", "solve"),
                             ("recovery", "_rank_rule", "eigvalsh")]
