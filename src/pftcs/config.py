"""INI experiment configuration: parsing and validation.

A config file describes one experiment: the signal (components or
piecewise sections), how it is sampled, the candidate rate grid, the
detection policy, and experiment-specific tables.  Values use plain INI
syntax; lists are whitespace-separated.  All validation errors raise
:class:`ConfigError` naming the section and key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .model import NoiseSpec, PolyPhaseComponent
from .recovery import ParameterGrid, RecoverConfig, ThresholdPolicy, _check_estimate_cells

__all__ = ["ConfigError", "ExperimentConfig", "Piece", "parse_config", "parse_config_string"]

KINDS = ("sweep-recover", "lpft-recover", "snr-table", "phase-transition")


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
    kind: str
    label: str = ""
    signal_length: int | None = None
    index_origin: int = 0
    components: tuple = ()
    pieces: tuple = ()
    sampling_count: int | None = None
    sampling_fraction: float | None = None
    per_window: bool = False
    seed: int = 0
    grid: ParameterGrid | None = None
    policy: ThresholdPolicy | None = None
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    recover: RecoverConfig = field(default_factory=RecoverConfig)
    window: int | None = None
    snr_in_db: tuple = ()
    snr_counts: tuple = ()
    snr_trials: int = 0
    snr_seed: int = 0
    pt_length: int = 128
    pt_components: tuple = ()
    pt_counts: tuple = ()
    pt_trials: int = 0
    pt_seed: int = 0
    pt_rates: tuple | None = None


class _Section:
    """Typed accessors over one INI section with keyed error messages."""

    def __init__(self, name, mapping):
        self.name = name
        self.mapping = dict(mapping)
        self.seen = set()

    def _raw(self, key, required):
        self.seen.add(key)
        if key not in self.mapping:
            if required:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return None
        return self.mapping[key].strip()

    def _convert(self, key, raw, conv, kind):
        try:
            return conv(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: expected {kind}, got {raw!r}") from None

    def get_str(self, key, default=None, required=False, choices=None):
        raw = self._raw(key, required)
        value = default if raw is None else raw
        if choices is not None and value not in choices:
            raise ConfigError(f"[{self.name}] {key}: expected one of {choices}, got {value!r}")
        return value

    def get_int(self, key, default=None, required=False):
        raw = self._raw(key, required)
        return default if raw is None else self._convert(key, raw, int, "an integer")

    def get_float(self, key, default=None, required=False):
        raw = self._raw(key, required)
        return default if raw is None else self._convert(key, raw, float, "a number")

    def get_bool(self, key, default=False):
        raw = self._raw(key, False)
        if raw is None:
            return default
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{self.name}] {key}: expected a boolean, got {raw!r}")

    def get_floats(self, key, required=False):
        raw = self._raw(key, required)
        if raw is None:
            return None
        return tuple(self._convert(key, tok, float, "numbers") for tok in raw.split())

    def get_ints(self, key, required=False):
        raw = self._raw(key, required)
        if raw is None:
            return None
        return tuple(self._convert(key, tok, int, "integers") for tok in raw.split())

    def get_complex(self, key, default=None, required=False):
        raw = self._raw(key, required)
        if raw is None:
            return default
        return self._convert(key, raw.replace(" ", ""), complex, "a complex number")

    def reject_unknown(self):
        unknown = set(self.mapping) - self.seen
        if unknown:
            raise ConfigError(f"[{self.name}] unknown keys: {sorted(unknown)}")


def _component_from(section: _Section) -> PolyPhaseComponent:
    amplitude = section.get_complex("amplitude", default=1 + 0j)
    coeffs = section.get_floats("coeffs", required=True)
    try:
        return PolyPhaseComponent(amplitude, coeffs)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from None


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
    raw = section.get_str("origin", default="zero")
    if raw == "zero":
        return 0
    if raw == "centered":
        return -(length // 2)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"[{section.name}] origin: expected 'zero', 'centered', or an integer, got {raw!r}"
        ) from None


def _parse_grid(section: _Section) -> ParameterGrid:
    degree = section.get_int("degree", required=True)
    values = section.get_floats("values")
    start = section.get_float("start")
    stop = section.get_float("stop")
    step = section.get_float("step")
    has_range = any(v is not None for v in (start, stop, step))
    if values is not None and has_range:
        raise ConfigError(f"[{section.name}] give either values or start/stop/step, not both")
    try:
        if values is not None:
            return ParameterGrid.single(degree, values)
        if not all(v is not None for v in (start, stop, step)):
            raise ConfigError(f"[{section.name}] needs values or all of start/stop/step")
        return ParameterGrid.from_range(degree, start, stop, step)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from None


def _parse_policy(section: _Section) -> ThresholdPolicy:
    kind = section.get_str("kind", required=True,
                           choices=("relative-to-max", "missing-sample-statistic"))
    try:
        if kind == "relative-to-max":
            return ThresholdPolicy.relative(section.get_float("ratio", default=0.5))
        return ThresholdPolicy.statistic(section.get_float("confidence", default=0.99))
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from None


def _parse_noise(section: _Section) -> NoiseSpec:
    kind = section.get_str("kind", default="none", choices=("none", "complex-gaussian"))
    snr = section.get_float("snr_db", default=float("inf"))
    seed = section.get_int("seed", default=0)
    try:
        return NoiseSpec(kind, snr, seed)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from None


def _parse_recover(section: _Section) -> RecoverConfig:
    try:
        return RecoverConfig(
            max_components=section.get_int("max_components"),
            pursuit=section.get_str("pursuit", default="threshold",
                                    choices=("threshold", "exact")),
        )
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from None


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


def _check_cells(keys: str, length: int, n_points: int):
    try:
        _check_estimate_cells(length, n_points)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


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
    kind = experiment.get_str("kind", required=True, choices=KINDS)
    label = experiment.get_str("label", default="")

    if kind == "phase-transition":
        pt = _require(sections, "phase_transition")
        config = ExperimentConfig(
            kind=kind, label=label,
            pt_length=pt.get_int("length", default=128),
            pt_components=pt.get_ints("components", required=True),
            pt_counts=pt.get_ints("counts", required=True),
            pt_trials=pt.get_int("trials", required=True),
            pt_seed=pt.get_int("seed", default=0),
            pt_rates=pt.get_floats("rates"),
        )
        if config.pt_trials < 1:
            raise ConfigError("[phase_transition] trials must be positive")
        for key, values in (("components", config.pt_components), ("counts", config.pt_counts)):
            if not values:
                raise ConfigError(f"[phase_transition] {key}: needs at least one value")
        length = config.pt_length
        for n in config.pt_counts:
            if not 2 <= n <= length:
                raise ConfigError(f"[phase_transition] counts: measurement count {n} is below 2 "
                                  f"or exceeds signal length {length}")
        if config.pt_rates is not None:
            try:
                ParameterGrid.single(2, config.pt_rates)
            except ValueError as exc:
                raise ConfigError(f"[phase_transition] rates: {exc}") from None
        # phase_transition's default grid has 8 rates
        n_rates = 8 if config.pt_rates is None else len(config.pt_rates)
        for k in config.pt_components:
            if not 1 <= k <= length * n_rates:
                raise ConfigError(
                    f"[phase_transition] components: {k} is outside 1..{length * n_rates}, "
                    f"the distinct (bin, rate) pairs of length {length} and {n_rates} rates"
                )
        _check_cells("[phase_transition] length and rates", length, n_rates)
        return config

    signal = _require(sections, "signal")
    length = signal.get_int("length", required=True)
    if length < 2:
        raise ConfigError("[signal] length must be at least 2")
    origin = _parse_origin(signal, length)

    components = []
    pieces = []
    for name in _numbered_sections(sections, "component"):
        components.append(_component_from(sections[name]))
    for name in _numbered_sections(sections, "piece"):
        section = sections[name]
        component = _component_from(section)
        start = section.get_int("start", required=True)
        stop = section.get_int("stop", required=True)
        if stop <= start:
            raise ConfigError(f"[{name}] stop must exceed start")
        pieces.append(Piece(component, start, stop))

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

    grid_section = sections.get("grid")
    grid = _parse_grid(grid_section) if grid_section is not None else None
    if grid is not None:
        _check_cells("[signal] length and [grid]", length, grid.n_points)
    policy_section = sections.get("policy")
    policy = _parse_policy(policy_section) if policy_section is not None else None
    # snr-table draws its own masks and noise per trial
    measured = kind in ("sweep-recover", "lpft-recover")
    noise_section = sections.get("noise") if measured else None
    noise = _parse_noise(noise_section) if noise_section is not None else NoiseSpec()
    recover_section = sections.get("recover") if kind in ("sweep-recover", "snr-table") else None
    recover_cfg = _parse_recover(recover_section) if recover_section is not None else RecoverConfig()

    sampling = sections.get("sampling") if measured else None
    count = fraction = None
    per_window = False
    seed = 0
    if sampling is not None:
        count = sampling.get_int("count")
        fraction = sampling.get_float("fraction")
        per_window = sampling.get_bool("per_window", default=False)
        seed = sampling.get_int("seed", default=0)
        if count is not None and fraction is not None:
            raise ConfigError("[sampling] give either count or fraction, not both")
        if count is not None and count < 1:
            raise ConfigError(f"[sampling] count must be at least 1, got {count}")
        if count is not None and count > length:
            raise ConfigError(
                f"[sampling] measurement count {count} exceeds signal length {length}"
            )
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ConfigError(f"[sampling] fraction must be in (0, 1], got {fraction}")
        if fraction is not None and round(fraction * length) < 1:
            raise ConfigError(
                f"[sampling] fraction {fraction} of length {length} rounds to 0 measurements"
            )

    window = None
    lpft_section = sections.get("lpft") if measured else None
    if lpft_section is not None:
        window = lpft_section.get_int("window", required=True)
        if window < 2 or length % window != 0:
            raise ConfigError(
                f"[lpft] window {window} must be >= 2 and divide the signal length {length}"
            )

    snr_in = counts = ()
    snr_trials = snr_seed = 0
    snr_section = sections.get("snr_table") if kind == "snr-table" else None
    if snr_section is not None:
        snr_in = snr_section.get_floats("snr_in_db", required=True)
        counts = snr_section.get_ints("counts", required=True)
        snr_trials = snr_section.get_int("trials", required=True)
        snr_seed = snr_section.get_int("seed", default=0)
        for n in counts:
            if n > length:
                raise ConfigError(
                    f"[snr_table] measurement count {n} exceeds signal length {length}"
                )

    config = ExperimentConfig(
        kind=kind, label=label, signal_length=length, index_origin=origin,
        components=tuple(components), pieces=tuple(pieces),
        sampling_count=count, sampling_fraction=fraction,
        per_window=per_window, seed=seed, grid=grid, policy=policy,
        noise=noise, recover=recover_cfg, window=window,
        snr_in_db=snr_in, snr_counts=counts, snr_trials=snr_trials,
        snr_seed=snr_seed,
    )
    _check_kind(config)
    return config


def _check_kind(config: ExperimentConfig):
    kind = config.kind
    if kind == "sweep-recover":
        if not config.components:
            raise ConfigError("sweep-recover needs at least one [component.N] section")
        if config.sampling_count is None and config.sampling_fraction is None:
            raise ConfigError("sweep-recover needs [sampling] count or fraction")
        if config.grid is None or config.policy is None:
            raise ConfigError("sweep-recover needs [grid] and [policy] sections")
    elif kind == "lpft-recover":
        if not config.pieces and not config.components:
            raise ConfigError("lpft-recover needs [piece.N] or [component.N] sections")
        if config.window is None:
            raise ConfigError("lpft-recover needs an [lpft] section with a window")
        if config.sampling_count is None and config.sampling_fraction is None:
            raise ConfigError("lpft-recover needs [sampling] count or fraction")
        if config.grid is None or config.policy is None:
            raise ConfigError("lpft-recover needs [grid] and [policy] sections")
    elif kind == "snr-table":
        if not config.components:
            raise ConfigError("snr-table needs at least one [component.N] section")
        if not config.snr_in_db:
            raise ConfigError("snr-table needs an [snr_table] section")
        if config.grid is None or config.policy is None:
            raise ConfigError("snr-table needs [grid] and [policy] sections")
        if config.snr_trials < 1:
            raise ConfigError("[snr_table] trials must be positive")
        # the Monte-Carlo signal model supports only these two index origins
        centered = -(config.signal_length // 2)
        if config.index_origin not in (0, centered):
            raise ConfigError(
                f"[signal] origin: snr-table needs 'zero' or 'centered' (0 or {centered}), "
                f"got {config.index_origin}"
            )
