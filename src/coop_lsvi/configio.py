"""Structured-text run/sweep configuration: parsing, defaults, and echo.

Format: INI-like sections with key = value lines and '#' comments. Unknown
sections or keys are rejected with their line number. A [sweep] section turns
the file into a sweep specification whose axes cross-product over the base
run configuration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Union

from .harness import ConfigError, RunConfig
from .mdp import g17

_KNOWN_KEYS = {
    "mdp": {"kind", "d", "H", "gap", "n_states", "n_actions", "seed", "path"},
    "run": {"M", "K", "alpha", "ridge", "delta", "beta", "protocol",
            "master_seed", "eval", "diagnostics"},
    "schedule": {"kind", "seed", "block_len", "agent"},
    "init_state": {"kind", "state"},
    "sweep": {"K", "M", "alpha", "ridge", "protocol", "seeds", "gap", "max_runs"},
}

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


class _Raw:
    """Parsed (section, key) -> (value, line) map with error attribution."""

    def __init__(self):
        self.items: dict[tuple[str, str], tuple[str, int]] = {}

    def get(self, section: str, key: str) -> Optional[str]:
        hit = self.items.get((section, key))
        return hit[0] if hit else None

    def line(self, section: str, key: str) -> Optional[int]:
        hit = self.items.get((section, key))
        return hit[1] if hit else None


def _parse_lines(text: str) -> _Raw:
    raw = _Raw()
    section = None
    for lineno, full in enumerate(text.splitlines(), start=1):
        line = full.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in raw.items:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        raw.items[(section, key)] = (value.strip(), lineno)
    return raw


def _convert(raw: _Raw, section: str, key: str, kind, default=None):
    text = raw.get(section, key)
    if text is None:
        return default
    lineno = raw.line(section, key)
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


def _parse_mode_value(text: str, modes: tuple[str, ...], lineno: int,
                      value_kind=float) -> tuple[str, Optional[float]]:
    mode, sep, val = text.partition(":")
    mode = mode.strip()
    if mode not in modes:
        raise ConfigError(f"line {lineno}: expected one of {modes}, got {mode!r}")
    if not sep:
        return mode, None
    try:
        return mode, value_kind(val.strip())
    except ValueError:
        raise ConfigError(f"line {lineno}: bad value in {text!r}") from None


def _parse_int_list(text: str, lineno: int) -> list[int]:
    """Comma list of ints, with 'a..b' inclusive ranges."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, _, hi = part.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad range {part!r}") from None
            if hi_i < lo_i:
                raise ConfigError(f"line {lineno}: empty range {part!r}")
            out.extend(range(lo_i, hi_i + 1))
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise ConfigError(f"line {lineno}: bad integer {part!r}") from None
    if not out:
        raise ConfigError(f"line {lineno}: empty list")
    return out


def _parse_axis(raw: _Raw, key: str, kind) -> Optional[list]:
    text = raw.get("sweep", key)
    if text is None:
        return None
    lineno = raw.line("sweep", key)
    if kind is int:
        return _parse_int_list(text, lineno)
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(kind(part))
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {part!r}") from None
    if not out:
        raise ConfigError(f"line {lineno}: empty list")
    return out


def parse_config(text: str) -> Union[RunConfig, SweepSpec]:
    """Parse config text into a RunConfig, or a SweepSpec if [sweep] present.

    Constraint violations raise ConfigError carrying the offending line
    number where one is known.
    """
    raw = _parse_lines(text)
    cfg = RunConfig()

    kind = _convert(raw, "mdp", "kind", str, cfg.mdp_kind)
    cfg.mdp_kind = kind
    cfg.mdp_d = _convert(raw, "mdp", "d", int, cfg.mdp_d)
    cfg.mdp_horizon = _convert(raw, "mdp", "H", int, cfg.mdp_horizon)
    cfg.mdp_gap = _convert(raw, "mdp", "gap", float, cfg.mdp_gap)
    cfg.mdp_n_states = _convert(raw, "mdp", "n_states", int, cfg.mdp_n_states)
    cfg.mdp_n_actions = _convert(raw, "mdp", "n_actions", int, cfg.mdp_n_actions)
    cfg.mdp_seed = _convert(raw, "mdp", "seed", int, cfg.mdp_seed)
    cfg.mdp_path = _convert(raw, "mdp", "path", str, cfg.mdp_path)

    cfg.M = _convert(raw, "run", "M", int, cfg.M)
    cfg.K = _convert(raw, "run", "K", int, cfg.K)
    cfg.alpha = _convert(raw, "run", "alpha", float, cfg.alpha)
    cfg.ridge = _convert(raw, "run", "ridge", float, cfg.ridge)
    cfg.delta = _convert(raw, "run", "delta", float, cfg.delta)
    beta_text = raw.get("run", "beta")
    if beta_text is not None:
        cfg.beta_mode, cfg.beta_value = _parse_mode_value(
            beta_text, ("practical", "theoretical", "fixed"), raw.line("run", "beta"))
    cfg.protocol = _convert(raw, "run", "protocol", str, cfg.protocol)
    cfg.master_seed = _convert(raw, "run", "master_seed", int, cfg.master_seed)
    eval_text = raw.get("run", "eval")
    if eval_text is not None:
        mode, nval = _parse_mode_value(
            eval_text, ("exact", "monte_carlo", "off"), raw.line("run", "eval"),
            value_kind=int)
        cfg.eval_mode = mode
        if nval is not None:
            cfg.eval_rollouts = nval
    cfg.diagnostics = _convert(raw, "run", "diagnostics", bool, cfg.diagnostics)

    cfg.schedule = _convert(raw, "schedule", "kind", str, cfg.schedule)
    cfg.schedule_seed = _convert(raw, "schedule", "seed", int, cfg.schedule_seed)
    cfg.schedule_block = _convert(raw, "schedule", "block_len", int, cfg.schedule_block)
    cfg.schedule_agent = _convert(raw, "schedule", "agent", int, cfg.schedule_agent)

    cfg.init_state = _convert(raw, "init_state", "kind", str, cfg.init_state)
    cfg.init_state_fixed = _convert(raw, "init_state", "state", int, cfg.init_state_fixed)

    try:
        cfg.validate()
    except ConfigError as e:
        lineno = raw.line(*e.key) if e.key else None
        if lineno is not None:
            raise ConfigError(f"line {lineno}: {e}") from None
        raise

    has_sweep = any(section == "sweep" for section, _ in raw.items)
    if not has_sweep:
        return cfg

    axes: dict[str, list] = {}
    for key, akind in (("K", int), ("M", int), ("alpha", float), ("ridge", float),
                       ("gap", float), ("protocol", str), ("seeds", int)):
        values = _parse_axis(raw, key, akind)
        if values is not None:
            axes[key] = values
    cap = _convert(raw, "sweep", "max_runs", int, SWEEP_CAP_DEFAULT)
    spec = SweepSpec(base=cfg, axes=axes, cap=cap)
    if spec.size() > spec.cap:
        raise ConfigError(f"sweep would launch {spec.size()} runs, over the cap {spec.cap}")
    return spec


def parse_config_file(path: str) -> Union[RunConfig, SweepSpec]:
    with open(path) as f:
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
    eval_text = cfg.eval_mode
    if cfg.eval_mode == "monte_carlo":
        eval_text = f"monte_carlo:{cfg.eval_rollouts}"
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
        f"eval = {eval_text}",
        f"diagnostics = {'on' if cfg.diagnostics else 'off'}",
        "",
        "[schedule]",
        f"kind = {cfg.schedule}",
    ]
    if cfg.schedule in ("uniform_random", "bursty") and cfg.schedule_seed is not None:
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
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()[:16]
