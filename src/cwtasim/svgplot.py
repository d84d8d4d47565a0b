"""Self-contained deterministic SVG step plots.

Curves are drawn as right-continuous steps (the value at x holds until
the next x), which is the correct rendering for survival-style curves.
Output is plain string assembly with fixed float formatting, so the same
spec always yields byte-identical SVG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor, inf, isfinite, log10

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#17becf")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 48, 56


@dataclass(frozen=True)
class CurveSpec:
    label: str
    points: tuple[tuple[float, float], ...]
    dash: str | None = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError(f"curve '{self.label}' has no points")
        if not all(isfinite(x) and isfinite(y) for x, y in self.points):
            raise ValueError(f"curve '{self.label}' has a non-finite coordinate")
        xs = [p[0] for p in self.points]
        if any(b < a for a, b in zip(xs, xs[1:])):
            raise ValueError(f"curve '{self.label}' points must be sorted by x")


@dataclass(frozen=True)
class PlotSpec:
    curves: tuple[CurveSpec, ...]
    title: str = ""
    x_label: str = "months"
    y_label: str = "value"
    x_range: tuple[float, float] = field(init=False)
    y_range: tuple[float, float] = field(init=False)

    def __post_init__(self) -> None:
        if not self.curves:
            raise ValueError("plot needs at least one curve")
        xs = [x for c in self.curves for x, _ in c.points]
        ys = [y for c in self.curves for _, y in c.points]
        x0, x1 = min(xs), max(xs) if max(xs) > min(xs) else min(xs) + 1.0
        lo, hi = min(0.0, min(ys)), max(1.0, max(ys))
        y0, y1 = lo, hi + 0.02 * (hi - lo)
        # x0 + 1.0 rounds to x0 at large |x0|, and the span of two finite values can overflow to inf
        if not (0.0 < x1 - x0 < inf and y1 - y0 < inf):
            raise ValueError("axis ranges must span a finite width above zero")
        object.__setattr__(self, "x_range", (x0, x1))
        object.__setattr__(self, "y_range", (y0, y1))


def _num(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    span = hi - lo
    raw = span / max(n - 1, 1)
    mag = 10.0 ** floor(log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = step * (floor(lo / step) + (0 if lo % step == 0 else 1))
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        if t + step == t:  # a step below the spacing of doubles near t would never reach hi
            break
        t += step
    return ticks


def emit_svg_stepplot(spec: PlotSpec) -> str:
    """Render the spec to an SVG document string."""
    (x_lo, x_hi) = spec.x_range
    (y_lo, y_hi) = spec.y_range
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if spec.title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="28" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(spec.title)}</text>'
        )

    # axes and ticks
    axis_style = 'stroke="#333333" stroke-width="1"'
    parts.append(f'<line x1="{_num(px(x_lo))}" y1="{_num(py(y_lo))}" x2="{_num(px(x_hi))}" y2="{_num(py(y_lo))}" {axis_style}/>')
    parts.append(f'<line x1="{_num(px(x_lo))}" y1="{_num(py(y_lo))}" x2="{_num(px(x_lo))}" y2="{_num(py(y_hi))}" {axis_style}/>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{_num(x)}" y1="{_num(py(y_lo))}" x2="{_num(x)}" y2="{_num(py(y_lo) + 5)}" {axis_style}/>')
        parts.append(
            f'<text x="{_num(x)}" y="{_num(py(y_lo) + 20)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_label_num(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{_num(px(x_lo) - 5)}" y1="{_num(y)}" x2="{_num(px(x_lo))}" y2="{_num(y)}" {axis_style}/>')
        parts.append(
            f'<text x="{_num(px(x_lo) - 9)}" y="{_num(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_label_num(t)}</text>'
        )
    parts.append(
        f'<text x="{_num(_MARGIN_L + plot_w / 2)}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(spec.x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{_num(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_num(_MARGIN_T + plot_h / 2)})">{_escape(spec.y_label)}</text>'
    )

    # step paths
    for i, curve in enumerate(spec.curves):
        color = _PALETTE[i % len(_PALETTE)]
        d = [f"M {_num(px(curve.points[0][0]))} {_num(py(curve.points[0][1]))}"]
        for (x, y) in curve.points[1:]:
            d.append(f"H {_num(px(x))}")
            d.append(f"V {_num(py(y))}")
        d.append(f"H {_num(px(x_hi))}")
        dash = f' stroke-dasharray="{curve.dash}"' if curve.dash else ""
        parts.append(
            f'<path d="{" ".join(d)}" fill="none" stroke="{color}" stroke-width="1.8"{dash}/>'
        )

    # legend, top right of the plot area
    legend_x = _MARGIN_L + plot_w - 170
    legend_y = _MARGIN_T + 10
    for i, curve in enumerate(spec.curves):
        color = _PALETTE[i % len(_PALETTE)]
        y = legend_y + 18 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 26}" y2="{y}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{legend_x + 32}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="12">{_escape(curve.label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _label_num(t: float) -> str:
    if t == int(t):
        return str(int(t))
    return f"{t:g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
