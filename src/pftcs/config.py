"""INI experiment configuration: parsing and validation.

A config file describes one experiment: the signal (components or
piecewise sections), how it is sampled, the candidate rate grid, the
detection policy, and experiment-specific tables.  Values use plain INI
syntax; lists are whitespace-separated.  All validation errors raise
:class:`ConfigError` naming the section and key.
"""

from __future__ import annotations

import configparser
import contextlib
import math
import sys
from dataclasses import dataclass, field, replace

from .analysis import phase_transition_grid, snr_table_cells
from .lpft import _check_window
from .model import NoiseSpec, PolyPhaseComponent, check_index_origin
from .recovery import ParameterGrid, RecoverConfig, ThresholdPolicy, _check_estimate_cells

__all__ = ["ConfigError", "ExperimentConfig", "Piece", "parse_config", "parse_config_string"]

KINDS = ("sweep-recover", "lpft-recover", "snr-table", "phase-transition")
# Largest phase, in cycles, that a component may reach: |m/M| <= 1 bounds it
# by sum |c_p|, and a double of at most 2^32 keeps at least 20 fractional bits.
MAX_PHASE_CYCLES = 2 ** 32


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class Piece:
    """One segment of a piecewise signal: component plus [start, stop)."""

    component: PolyPhaseComponent
    start: int
    stop: int


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed experiment.  Fields, by the kinds that read them:

    - every kind: ``kind``, ``label``, ``signal_length``, ``grid`` (for
      phase-transition, its rate grid with the default rates resolved) and
      ``seed`` (of ``[sampling]``, ``[snr_table]`` or ``[phase_transition]``);
    - sweep-recover, lpft-recover and snr-table: ``index_origin``,
      ``components``, ``policy``, and ``recover`` (not lpft-recover);
    - sweep-recover and lpft-recover: ``pieces``, ``noise``, ``per_window``,
      ``sampling_count`` (per window under ``per_window``) and ``window``;
    - snr-table and phase-transition: ``counts`` of measurements, ``trials``;
    - snr-table: ``snr_in_db``; phase-transition: ``component_counts``.
    """

    kind: str
    label: str = ""
    signal_length: int | None = None
    index_origin: int = 0
    components: tuple = ()
    pieces: tuple = ()
    sampling_count: int | None = None
    per_window: bool = False
    seed: int = 0
    grid: ParameterGrid | None = None
    policy: ThresholdPolicy | None = None
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    recover: RecoverConfig = field(default_factory=RecoverConfig)
    window: int | None = None
    snr_in_db: tuple = ()
    counts: tuple = ()
    trials: int = 0
    component_counts: tuple = ()


def _boolean(raw):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


# what a value of each converter must look like, for errors: alone, in a list
_EXPECTED = {int: ("an integer", "integers"), float: ("a number", "numbers"),
             complex: ("a complex number", None), _boolean: ("a boolean", None)}


class _Section:
    """Typed accessors over one INI section with keyed error messages."""

    def __init__(self, name, mapping):
        self.name = name
        self.mapping = dict(mapping)
        self.seen = set()

    def _convert(self, key, raw, conv, expected):
        try:
            return conv(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected {expected}, got {raw!r}") from None

    def get(self, key, conv=str, default=None, required=False, choices=None):
        """``key``'s value converted by ``conv``, or ``default`` when unset."""
        self.seen.add(key)
        if key in self.mapping:
            raw = self.mapping[key].strip()
            if conv is complex:
                raw = raw.replace(" ", "")
            value = raw if conv is str else self._convert(key, raw, conv, _EXPECTED[conv][0])
        elif required:
            raise ConfigError(f"[{self.name}] missing required key {key!r}")
        else:
            value = default
        if choices is not None and value not in choices:
            raise ConfigError(f"[{self.name}] {key}: expected one of {choices}, got {value!r}")
        return value

    def get_list(self, key, conv, required=False):
        """``key``'s whitespace-separated values converted by ``conv``, or None."""
        raw = self.get(key, required=required)
        if raw is None:
            return None
        return tuple(self._convert(key, tok, conv, _EXPECTED[conv][1]) for tok in raw.split())

    @contextlib.contextmanager
    def checked(self, key=None):
        """Re-raise a library ``ValueError`` as a ConfigError naming this
        section, and ``key`` where the library message does not."""
        try:
            yield
        except ConfigError:
            raise
        except ValueError as exc:
            where = f"[{self.name}] {key}: " if key else f"[{self.name}] "
            raise ConfigError(f"{where}{exc}") from None

    def reject_unknown(self):
        unknown = set(self.mapping) - self.seen
        if unknown:
            raise ConfigError(f"[{self.name}] unknown keys: {sorted(unknown)}")


def _component_from(section: _Section) -> PolyPhaseComponent:
    amplitude = section.get("amplitude", complex, default=1 + 0j)
    coeffs = section.get_list("coeffs", float, required=True)
    with section.checked():
        component = PolyPhaseComponent(amplitude, coeffs)
    cycles = math.fsum(abs(c) for c in component.phase_coeffs)
    if cycles > MAX_PHASE_CYCLES:
        raise ConfigError(f"[{section.name}] coeffs: sum of |c_p| {cycles!r} exceeds "
                          f"{MAX_PHASE_CYCLES} cycles, too large to keep a fractional phase")
    # a residual ratio's scale is raised to the smallest normal double, so
    # nothing overflows below it, but a fit keeps no significant bits there
    magnitude = abs(component.amplitude)
    if magnitude < sys.float_info.min:
        raise ConfigError(f"[{section.name}] amplitude: magnitude {magnitude!r} is below "
                          f"the smallest normal number {sys.float_info.min!r}")
    return component


def _check_energy(name: str, magnitude: float, length: int):
    """Reject the section at which the signal energy bound
    ``length * magnitude^2`` overflows.

    ``magnitude`` is the running sum of ``|amplitude|`` over the component
    sections, since components overlap and their sum can have that energy.
    Pieces tile disjoint intervals, so each piece's own ``|amplitude|``
    bounds the energy of the whole piecewise signal.
    """
    # products, not ``**``, so that an overflow gives inf instead of raising
    if not math.isfinite(length * magnitude * magnitude):
        raise ConfigError(f"[{name}] amplitude: signal energy bound "
                          f"{length} * {magnitude!r}^2 overflows")


def _numbered_sections(sections, prefix):
    found = []
    for name in sections:
        if name == prefix or name.startswith(prefix + "."):
            suffix = name[len(prefix) + 1:] if name != prefix else "1"
            try:
                rank = int(suffix)
            except ValueError:
                raise ConfigError(f"[{name}] section suffix must be an integer") from None
            found.append((rank, name))
    found.sort()
    return [name for _, name in found]


def _parse_origin(section: _Section, length: int) -> int:
    raw = section.get("origin", default="zero")
    if raw == "zero":
        return 0
    if raw == "centered":
        return -(length // 2)
    origin = section._convert("origin", raw, int, "'zero', 'centered', or an integer")
    # MAX_PHASE_CYCLES bounds every phase only under this rule
    with section.checked():
        check_index_origin(origin, length)
    return origin


def _parse_grid(section: _Section) -> ParameterGrid:
    degree = section.get("degree", int, required=True)
    values = section.get_list("values", float)
    start = section.get("start", float)
    stop = section.get("stop", float)
    step = section.get("step", float)
    has_range = any(v is not None for v in (start, stop, step))
    if values is not None and has_range:
        raise ConfigError(f"[{section.name}] give either values or start/stop/step, not both")
    with section.checked():
        if values is not None:
            return ParameterGrid.single(degree, values)
        if not all(v is not None for v in (start, stop, step)):
            raise ConfigError(f"[{section.name}] needs values or all of start/stop/step")
        return ParameterGrid.from_range(degree, start, stop, step)


def _parse_policy(section: _Section) -> ThresholdPolicy:
    kind = section.get("kind", required=True,
                       choices=("relative-to-max", "missing-sample-statistic"))
    with section.checked():
        if kind == "relative-to-max":
            return ThresholdPolicy.relative(section.get("ratio", float, default=0.5))
        return ThresholdPolicy.statistic(section.get("confidence", float, default=0.99))


def _parse_noise(section: _Section) -> NoiseSpec:
    kind = section.get("kind", default="none", choices=("none", "complex-gaussian"))
    snr = section.get("snr_db", float, default=float("inf"))
    seed = section.get("seed", int, default=0)
    with section.checked():
        return NoiseSpec(kind, snr, seed)


def _parse_recover(section: _Section) -> RecoverConfig:
    with section.checked():
        return RecoverConfig(
            max_components=section.get("max_components", int),
            pursuit=section.get("pursuit", default="threshold", choices=("threshold", "exact")),
        )


def parse_config_string(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"INI syntax error: {exc}") from None
    return _build(parser)


def parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as handle:
        try:
            parser.read_file(handle)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: INI syntax error: {exc}") from None
    return _build(parser)


def _require(sections, name) -> _Section:
    section = sections.get(name)
    if section is None:
        raise ConfigError(f"missing required section [{name}]")
    return section


def _build(parser) -> ExperimentConfig:
    """Parse the experiment, then reject unread sections and unread keys."""
    sections = {name: _Section(name, parser[name]) for name in parser.sections()}
    config = _read(sections)
    for section in sections.values():
        if not section.seen:
            raise ConfigError(f"[{section.name}] section is not used by {config.kind} experiments")
        section.reject_unknown()
    return config


def _read(sections) -> ExperimentConfig:
    experiment = _require(sections, "experiment")
    kind = experiment.get("kind", required=True, choices=KINDS)
    label = experiment.get("label", default="")

    if kind == "phase-transition":
        pt = _require(sections, "phase_transition")
        config = ExperimentConfig(
            kind=kind, label=label, signal_length=pt.get("length", int, default=128),
            component_counts=pt.get_list("components", int, required=True),
            counts=pt.get_list("counts", int, required=True),
            trials=pt.get("trials", int, required=True), seed=pt.get("seed", int, default=0))
        with pt.checked():
            grid = phase_transition_grid(config.component_counts, config.counts, config.trials,
                                         config.signal_length, pt.get_list("rates", float))
        return replace(config, grid=grid)

    signal = _require(sections, "signal")
    length = signal.get("length", int, required=True)
    if length < 2:
        raise ConfigError("[signal] length must be at least 2")
    origin = _parse_origin(signal, length)

    components = []
    pieces = []
    magnitude = 0.0
    for name in _numbered_sections(sections, "component"):
        components.append(_component_from(sections[name]))
        magnitude += abs(components[-1].amplitude)
        _check_energy(name, magnitude, length)
    # snr-table's Monte-Carlo signal is its components alone
    for name in _numbered_sections(sections, "piece") if kind != "snr-table" else ():
        section = sections[name]
        component = _component_from(section)
        _check_energy(name, abs(component.amplitude), length)
        start = section.get("start", int, required=True)
        stop = section.get("stop", int, required=True)
        if stop <= start:
            raise ConfigError(f"[{name}] stop must exceed start")
        pieces.append(Piece(component, start, stop))
    if not components and not (pieces and kind == "lpft-recover"):
        needed = ("[piece.N] or [component.N] sections" if kind == "lpft-recover"
                  else "at least one [component.N] section")
        raise ConfigError(f"{kind} needs {needed}")

    if pieces:
        pieces.sort(key=lambda p: p.start)
        expected = origin
        for piece in pieces:
            if piece.start != expected:
                raise ConfigError(
                    f"pieces must tile [{origin}, {origin + length}) without gaps; "
                    f"expected a piece starting at {expected}, got {piece.start}"
                )
            expected = piece.stop
        if expected != origin + length:
            raise ConfigError(
                f"pieces must end at {origin + length}, last piece stops at {expected}"
            )

    grid = _parse_grid(_require(sections, "grid"))
    with signal.checked("length and [grid]"):
        _check_estimate_cells(length, grid.n_points)
    policy = _parse_policy(_require(sections, "policy"))
    recover_section = sections.get("recover") if kind != "lpft-recover" else None
    recover_cfg = _parse_recover(recover_section) if recover_section is not None else RecoverConfig()
    common = dict(kind=kind, label=label, signal_length=length, index_origin=origin,
                  components=tuple(components), pieces=tuple(pieces), grid=grid,
                  policy=policy, recover=recover_cfg)

    if kind == "snr-table":
        # snr-table draws its own masks and noise per trial
        table = _require(sections, "snr_table")
        snr_in = table.get_list("snr_in_db", float, required=True)
        counts = table.get_list("counts", int, required=True)
        trials = table.get("trials", int, required=True)
        with table.checked():
            snr_table_cells(snr_in, counts, trials, length)
        return ExperimentConfig(**common, snr_in_db=snr_in, counts=counts, trials=trials,
                                seed=table.get("seed", int, default=0))

    noise_section = sections.get("noise")
    noise = _parse_noise(noise_section) if noise_section is not None else NoiseSpec()
    sampling = _require(sections, "sampling")
    count = sampling.get("count", int)
    fraction = sampling.get("fraction", float)
    per_window = sampling.get("per_window", _boolean, default=False)
    window = None
    if kind == "lpft-recover" or per_window:
        lpft = _require(sections, "lpft")
        window = lpft.get("window", int, required=True)
        with lpft.checked():
            _check_window(window, length)
    # under per_window, count and fraction are per window
    span, where = ((window, f"window {window}") if per_window
                   else (length, f"signal length {length}"))
    if count is not None and fraction is not None:
        raise ConfigError("[sampling] give either count or fraction, not both")
    if fraction is not None:
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"[sampling] fraction must be in (0, 1], got {fraction}")
        count = round(fraction * span)
        if count < 1:
            raise ConfigError(f"[sampling] fraction {fraction} of {where} rounds to 0 measurements")
    elif count is None:
        raise ConfigError("[sampling] needs count or fraction")
    elif count < 1:
        raise ConfigError(f"[sampling] count must be at least 1, got {count}")
    elif count > span:
        raise ConfigError(f"[sampling] measurement count {count} exceeds {where}")
    return ExperimentConfig(**common, noise=noise, sampling_count=count, per_window=per_window,
                            seed=sampling.get("seed", int, default=0), window=window)
