"""Structured-text run/sweep configuration: parsing, defaults, and echo.

Format: INI-like sections with key = value lines and '#' comments. Unknown
sections or keys are rejected with their line number. A [sweep] section turns
the file into a sweep specification whose axes cross-product over the base
run configuration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .harness import ConfigError, RunConfig
from .mdp import InvalidMdpError, LinearMdp, g17, read_mdp, require_valid
from .schedules import SEEDED_SCHEDULE_KINDS

# (section, key) -> (RunConfig field, type) for every key that sets one field.
_FIELDS = {
    ("mdp", "kind"): ("mdp_kind", str),
    ("mdp", "d"): ("mdp_d", int),
    ("mdp", "H"): ("mdp_horizon", int),
    ("mdp", "gap"): ("mdp_gap", float),
    ("mdp", "n_states"): ("mdp_n_states", int),
    ("mdp", "n_actions"): ("mdp_n_actions", int),
    ("mdp", "seed"): ("mdp_seed", int),
    ("mdp", "path"): ("mdp_path", str),
    ("run", "M"): ("M", int),
    ("run", "K"): ("K", int),
    ("run", "alpha"): ("alpha", float),
    ("run", "ridge"): ("ridge", float),
    ("run", "delta"): ("delta", float),
    ("run", "protocol"): ("protocol", str),
    ("run", "master_seed"): ("master_seed", int),
    ("run", "eval"): ("eval_mode", str),
    ("run", "diagnostics"): ("diagnostics", bool),
    ("schedule", "kind"): ("schedule", str),
    ("schedule", "seed"): ("schedule_seed", int),
    ("schedule", "block_len"): ("schedule_block", int),
    ("schedule", "agent"): ("schedule_agent", int),
    ("init_state", "kind"): ("init_state", str),
    ("init_state", "state"): ("init_state_fixed", int),
}

# Sweep axis -> the key whose value it replaces. Axes cross-product in this
# order, which fixes the run numbering of a sweep.
_AXES = {
    "K": ("run", "K"),
    "M": ("run", "M"),
    "alpha": ("run", "alpha"),
    "ridge": ("run", "ridge"),
    "gap": ("mdp", "gap"),
    "protocol": ("run", "protocol"),
    "seeds": ("run", "master_seed"),
}

_KNOWN_KEYS = frozenset([*_FIELDS, ("run", "beta"),
                         *(("sweep", axis) for axis in _AXES), ("sweep", "max_runs")])
_SECTIONS = {section for section, _ in _KNOWN_KEYS}

SWEEP_CAP_DEFAULT = 10_000


@dataclass
class SweepSpec:
    """A base run plus named axes to cross-product, bounded by a run cap."""

    base: RunConfig
    axes: dict[str, list] = field(default_factory=dict)
    cap: int = SWEEP_CAP_DEFAULT

    def size(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n


def expand_sweep(spec: SweepSpec) -> list[RunConfig]:
    """Cross-product the axes over the base config, in the order of spec.axes.

    Axis values override the unresolved base so dependent defaults (alpha
    from M, hard gap from K and M) are recomputed per combination.
    """
    names = list(spec.axes)
    out = []
    for combo in itertools.product(*(spec.axes[n] for n in names)):
        cfg = replace(spec.base)
        for name, value in zip(names, combo):
            setattr(cfg, _FIELDS[_AXES[name]][0], value)
        out.append(cfg)
    return out


def _parse_lines(text: str) -> tuple[dict[tuple[str, str], tuple[str, int]], dict[str, int]]:
    """Map each (section, key) to its (value text, line number); also map the
    name of each section present to the line of its header."""
    raw = {}
    sections: dict[str, int] = {}
    section = None
    for lineno, full in enumerate(text.splitlines(), start=1):
        line = full.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            if section in sections:
                raise ConfigError(f"line {lineno}: repeated section [{section}]")
            sections[section] = lineno
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if (section, key) not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        raw[(section, key)] = (value.strip(), lineno)
    return raw, sections


def _convert(text: str, lineno: int, key: str, kind):
    try:
        if kind is bool:
            low = text.lower()
            if low in ("on", "true", "1", "yes"):
                return True
            if low in ("off", "false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        return kind(text)
    except ValueError as e:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {e}") from None


def _parse_mode_value(text: str, lineno: int,
                      modes: tuple[str, ...]) -> tuple[str, Optional[float]]:
    mode, sep, val = text.partition(":")
    mode = mode.strip()
    if mode not in modes:
        raise ConfigError(f"line {lineno}: expected one of {modes}, got {mode!r}")
    if not sep:
        return mode, None
    try:
        return mode, float(val.strip())
    except ValueError:
        raise ConfigError(f"line {lineno}: bad value in {text!r}") from None


def _parse_axis(text: str, lineno: int, kind, cap: int) -> list:
    """Comma list of distinct values; an integer axis also takes inclusive 'a..b'
    ranges. An axis of more than ``cap`` values is refused before it is built."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dots, hi = part.partition("..")
        try:
            values = (range(int(lo), int(hi) + 1) if kind is int and dots
                      else [kind(part)])
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {part!r}") from None
        if not values:
            raise ConfigError(f"line {lineno}: empty range {part!r}")
        out.extend(values[:cap + 1 - len(out)])  # at most one value past the cap
        if len(out) > cap:
            raise ConfigError(f"line {lineno}: axis has more than {cap} values, "
                              f"over the sweep's cap of {cap} runs")
    if not out:
        raise ConfigError(f"line {lineno}: empty list")
    # A repeated run would count twice in comparison.csv and once in scaling.csv.
    seen = set()
    for value in out:
        if value in seen:
            raise ConfigError(f"line {lineno}: value {value!r} repeated")
        seen.add(value)
    return out


def _check(cfg: RunConfig, lines: dict[tuple[str, str], int],
           instance: Optional[LinearMdp] = None) -> None:
    """Resolve cfg, so that defaults are checked too; a ConfigError names the
    line of the key at fault when that key is in ``lines``."""
    try:
        cfg.resolved().validate(instance)
    except ConfigError as e:
        lineno = lines.get(e.key)
        if lineno is None:
            raise
        raise ConfigError(f"line {lineno}: {e}") from None


def _file_instance(cfg: RunConfig, lines: dict[tuple[str, str], int]) -> LinearMdp:
    """Read and check a file instance once, for the sizes the run is checked
    against; a file that cannot be read or fails a table check names the path
    line."""
    try:
        return require_valid(read_mdp(cfg.mdp_path))
    except (OSError, InvalidMdpError) as e:
        raise ConfigError(f"line {lines[('mdp', 'path')]}: {cfg.mdp_path}: {e}") from None


def parse_config(text: str) -> Union[RunConfig, SweepSpec]:
    """Parse config text into a RunConfig, or a SweepSpec if a [sweep] header
    is present (with no axes, a sweep of one run).

    The run, and every run of a sweep, is checked as it will run (defaults
    filled in). Constraint violations raise ConfigError carrying the
    offending line number where one is known; a swept key's error names its
    [sweep] line. A file instance is read here, so an unreadable file and a
    fixed initial state outside its states are config errors too.
    """
    raw, sections = _parse_lines(text)
    cfg = RunConfig()
    for (section, key), (name, kind) in _FIELDS.items():
        if (section, key) in raw:
            value, lineno = raw[(section, key)]
            setattr(cfg, name, _convert(value, lineno, key, kind))
    if ("run", "beta") in raw:
        cfg.beta_mode, cfg.beta_value = _parse_mode_value(
            *raw[("run", "beta")], ("practical", "theoretical", "fixed"))
    lines = {k: lineno for k, (_, lineno) in raw.items()}
    _check(cfg, lines)
    instance = None
    if cfg.mdp_kind == "file":
        # No sweep axis changes the instance, so its file is read once, here.
        instance = _file_instance(cfg, lines)
        _check(cfg, lines, instance)
    if "sweep" not in sections:
        return cfg

    cap, cap_line = SWEEP_CAP_DEFAULT, sections["sweep"]
    if ("sweep", "max_runs") in raw:
        value, cap_line = raw[("sweep", "max_runs")]
        cap = _convert(value, cap_line, "max_runs", int)
        if cap < 1:
            raise ConfigError(f"line {cap_line}: max_runs must be >= 1, got {cap}")
    axes: dict[str, list] = {}
    for axis, key in _AXES.items():
        if ("sweep", axis) in raw:
            value, lineno = raw[("sweep", axis)]
            axes[axis] = _parse_axis(value, lineno, _FIELDS[key][1], cap)
            lines[key] = lineno
    spec = SweepSpec(base=cfg, axes=axes, cap=cap)
    if spec.size() > spec.cap:
        raise ConfigError(f"line {cap_line}: sweep would launch {spec.size()} runs, "
                          f"over the cap {spec.cap}")
    for run in expand_sweep(spec):
        _check(run, lines, instance)
    return spec


def parse_config_file(path: str) -> Union[RunConfig, SweepSpec]:
    # Undecodable bytes become U+FFFD: ignored in a comment, and a bad key or
    # value on their line.
    with open(path, errors="replace") as f:
        return parse_config(f.read())


def emit_config(cfg: RunConfig) -> str:
    """Canonical text for a RunConfig; reparsing reproduces it.

    Unresolved optional fields (still None) are omitted so they stay
    defaults; a resolved config therefore echoes completely.
    """
    lines = ["[mdp]", f"kind = {cfg.mdp_kind}"]
    if cfg.mdp_kind == "hard":
        lines += [f"d = {cfg.mdp_d}", f"H = {cfg.mdp_horizon}"]
        if cfg.mdp_gap is not None:
            lines.append(f"gap = {g17(cfg.mdp_gap)}")
    elif cfg.mdp_kind == "random":
        lines += [f"n_states = {cfg.mdp_n_states}", f"n_actions = {cfg.mdp_n_actions}",
                  f"H = {cfg.mdp_horizon}", f"seed = {cfg.mdp_seed}"]
    else:
        lines += [f"path = {cfg.mdp_path}"]
    lines += ["", "[run]", f"M = {cfg.M}", f"K = {cfg.K}"]
    if cfg.alpha is not None:
        lines.append(f"alpha = {g17(cfg.alpha)}")
    lines += [f"ridge = {g17(cfg.ridge)}", f"delta = {g17(cfg.delta)}"]
    if cfg.beta_value is not None:
        lines.append(f"beta = {cfg.beta_mode}:{g17(cfg.beta_value)}")
    else:
        lines.append(f"beta = {cfg.beta_mode}")
    lines += [
        f"protocol = {cfg.protocol}",
        f"master_seed = {cfg.master_seed}",
        f"eval = {cfg.eval_mode}",
        f"diagnostics = {'on' if cfg.diagnostics else 'off'}",
        "",
        "[schedule]",
        f"kind = {cfg.schedule}",
    ]
    if cfg.schedule in SEEDED_SCHEDULE_KINDS and cfg.schedule_seed is not None:
        lines.append(f"seed = {cfg.schedule_seed}")
    if cfg.schedule == "bursty":
        lines.append(f"block_len = {cfg.schedule_block}")
    if cfg.schedule == "single_agent":
        lines.append(f"agent = {cfg.schedule_agent}")
    if cfg.init_state is not None:
        lines += ["", "[init_state]", f"kind = {cfg.init_state}"]
        if cfg.init_state == "fixed":
            lines.append(f"state = {cfg.init_state_fixed}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    # Imported here: hashlib loads OpenSSL (about 3.5 MB), which no run needs.
    import hashlib
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()[:16]
