"""Public API: every exported name resolves; one least-squares routine."""

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
    # every amplitude fit goes through recovery._fits, which holds the one
    # solve and the one condition-number rule; a second one would split them
    sites = []
    for path in sorted(Path(pftcs.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                    sites.append((path.stem, getattr(top, "name", None), "import"))
                elif (isinstance(node, ast.Attribute) and node.attr in ("solve", "cond")
                      and ast.unparse(node.value).endswith("linalg")):
                    sites.append((path.stem, getattr(top, "name", None), node.attr))
    assert sorted(sites) == [("recovery", "_fits", "cond"), ("recovery", "_fits", "solve")]
