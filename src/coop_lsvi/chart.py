"""Minimal self-contained SVG line chart for run metrics (no dependencies)."""

from __future__ import annotations

import numpy as np

_W, _H = 720, 420
_ML, _MR, _MT, _MB = 60, 60, 30, 40


def _polyline(xs: np.ndarray, ys: np.ndarray, color: str) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def _scale(vals: np.ndarray, lo_px: float, hi_px: float) -> np.ndarray:
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if hi == lo:
        hi = lo + 1.0
    return lo_px + (vals - lo) * (hi_px - lo_px) / (hi - lo)


def run_chart_svg(k: np.ndarray, cum_regret: np.ndarray, cum_comm: np.ndarray) -> str:
    """Cumulative regret (left axis) and communication rounds (right axis) vs k."""
    k = np.asarray(k, dtype=float)
    n = len(k)
    keep = np.arange(0, n, max(1, n // 2000))  # cap the point count; shape is unaffected
    if n and keep[-1] != n - 1:
        keep = np.append(keep, n - 1)  # the curves end at the last episode
    xs = _scale(k[keep], _ML, _W - _MR)
    y_reg = _scale(np.nan_to_num(cum_regret[keep]), _H - _MB, _MT)
    y_comm = _scale(cum_comm[keep].astype(float), _H - _MB, _MT)
    # The labels read the full arrays, not the plotted sample.
    evaluated = cum_regret[~np.isnan(cum_regret)]  # none when eval is off
    reg_max = float(np.max(evaluated)) if len(evaluated) else float("nan")
    comm_max = int(np.max(cum_comm)) if len(cum_comm) else 0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_W - _MR}" y1="{_MT}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        _polyline(xs, y_reg, "#c0392b"),
        _polyline(xs, y_comm, "#2980b9"),
        f'<text x="{_ML}" y="{_MT - 8}" fill="#c0392b" font-size="12">'
        f'cum regret (max {reg_max:.3g})</text>',
        f'<text x="{_W - _MR - 220}" y="{_MT - 8}" fill="#2980b9" font-size="12">'
        f'cum comm rounds (max {comm_max})</text>',
        f'<text x="{(_W) // 2 - 30}" y="{_H - 8}" font-size="12">episode k '
        f'(1..{int(k[-1]) if len(k) else 0})</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
