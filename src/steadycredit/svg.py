"""SVG 1.1 drawings of an analysis report, the paper's two exhibits; only
``report.render_svg`` imports this module, so ``analyze`` never loads it."""

from __future__ import annotations

from . import steady_state
from .errors import SteadyCreditError
from .rates import RatePoint
from .report import AnalysisReport

_WIDTH, _HEIGHT = 720.0, 540.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80.0, 24.0, 32.0, 56.0

_STYLE = (
    "text{font-family:sans-serif;font-size:12px;fill:#222}"
    ".axis{stroke:#222;stroke-width:1;fill:none}"
    ".tick{stroke:#222;stroke-width:1}"
    ".ssf{stroke:#000;stroke-width:1.5;fill:none}"
    ".rising{stroke:#1f77b4;stroke-width:1;fill:none}"
    ".falling{stroke:#d62728;stroke-width:1;fill:none}"
    ".flat{stroke:#999;stroke-width:1;fill:none}"
    ".obs-in{fill:#1f77b4;stroke:none}"
    ".obs-out{fill:none;stroke:#888;stroke-width:1}"
    ".observed-f{stroke:#1f77b4;stroke-width:1.5;fill:none}"
    ".default-d{stroke:#d62728;stroke-width:1.5;fill:none}"
    ".expected-f{stroke:#000;stroke-width:1.5;stroke-dasharray:4 3;fill:none}"
)


class _Scale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        if hi <= lo:
            pad = abs(lo) if lo != 0.0 else 1.0
            lo, hi = lo - 0.5 * pad, hi + 0.5 * pad
        span = hi - lo
        lo -= 0.05 * span
        hi += 0.05 * span
        self.lo, self.hi = lo, hi
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)

    def ticks(self, count: int = 5) -> list[float]:
        step = (self.hi - self.lo) / (count - 1)
        return [self.lo + i * step for i in range(count)]


def _px(v: float) -> str:
    return f"{v:.2f}"


def _axes(sx: _Scale, sy: _Scale, x_label: str, y_label: str) -> list[str]:
    parts = []
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    parts.append(f'<line class="axis" x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x1)}" y2="{_px(y0)}"/>')
    parts.append(f'<line class="axis" x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x0)}" y2="{_px(y1)}"/>')
    for tick in sx.ticks():
        px = sx(tick)
        parts.append(f'<line class="tick" x1="{_px(px)}" y1="{_px(y0)}" x2="{_px(px)}" y2="{_px(y0 + 5)}"/>')
        parts.append(f'<text x="{_px(px)}" y="{_px(y0 + 18)}" text-anchor="middle">{tick:.6g}</text>')
    for tick in sy.ticks():
        py = sy(tick)
        parts.append(f'<line class="tick" x1="{_px(x0 - 5)}" y1="{_px(py)}" x2="{_px(x0)}" y2="{_px(py)}"/>')
        parts.append(f'<text x="{_px(x0 - 8)}" y="{_px(py + 4)}" text-anchor="end">{tick:.6g}</text>')
    parts.append(
        f'<text x="{_px((x0 + x1) / 2)}" y="{_px(_HEIGHT - 16)}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_px((y0 + y1) / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_px((y0 + y1) / 2)})">{y_label}</text>'
    )
    return parts


def _document(title: str, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
        f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">\n'
        f"<style>{_STYLE}</style>\n"
        f'<text x="{_px(_WIDTH / 2)}" y="20" text-anchor="middle">{title}</text>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def scatter(report: AnalysisReport, rates_out: tuple[RatePoint, ...]) -> str:
    """The ``exhibit2`` scatter, ``rates_out`` drawn as hollow markers."""
    if report.trajectory is None:  # a trajectory implies the steady-state estimate
        raise SteadyCreditError("scatter rendering needs a trajectory")
    zeta = report.ssp_ls.zeta
    pts_in = list(report.rates_in.points)
    pts_out = list(rates_out)
    d_all = [p.d for p in pts_in + pts_out]
    d_hi = max(d_all)
    curve_d = [d_hi * i / 100.0 for i in range(101)]
    curve_f = [steady_state.expected_growth(d, zeta) for d in curve_d]
    f_all = [p.f for p in pts_in + pts_out] + curve_f

    sx = _Scale(0.0, d_hi, _MARGIN_L, _WIDTH - _MARGIN_R)
    sy = _Scale(min(f_all), max(f_all), _HEIGHT - _MARGIN_B, _MARGIN_T)

    body = _axes(sx, sy, "default rate d", "credit growth rate f")
    curve = " ".join(f"{_px(sx(d))},{_px(sy(f))}" for d, f in zip(curve_d, curve_f))
    body.append(f'<polyline class="ssf" points="{curve}"/>')

    # each segment is stroked by the direction the trajectory recorded at its end
    directions = [p.direction for p in report.trajectory[1:]]
    for prev, cur, cls in zip(pts_in, pts_in[1:], directions):
        body.append(
            f'<line class="{cls}" x1="{_px(sx(prev.d))}" y1="{_px(sy(prev.f))}" '
            f'x2="{_px(sx(cur.d))}" y2="{_px(sy(cur.f))}"/>'
        )
    for p in pts_out:
        body.append(f'<circle class="obs-out" cx="{_px(sx(p.d))}" cy="{_px(sy(p.f))}" r="4"/>')
    for p in pts_in:
        body.append(f'<circle class="obs-in" cx="{_px(sx(p.d))}" cy="{_px(sy(p.f))}" r="3.5"/>')
    title = f"Growth vs default rate, window {report.window}, zeta={zeta:.6g}"
    return _document(title, body)


def time_panel(report: AnalysisReport) -> str:
    """The ``exhibit1`` time panel of the window's rates."""
    if report.trajectory is None:
        raise SteadyCreditError("time panel rendering needs a trajectory")
    pts = report.rates_in.points
    traj = report.trajectory
    n = len(pts)
    xs = list(range(n))
    series_map = {
        "observed-f": [p.f_observed for p in traj],
        "default-d": [p.d for p in pts],
        "expected-f": [p.f_expected for p in traj],
    }
    values = [v for vs in series_map.values() for v in vs]
    sx = _Scale(0.0, float(max(n - 1, 1)), _MARGIN_L, _WIDTH - _MARGIN_R)
    sy = _Scale(min(values), max(values), _HEIGHT - _MARGIN_B, _MARGIN_T)

    body = _axes(sx, sy, f"quarter ({pts[0].interval_end} .. {pts[-1].interval_end})", "rate")
    for cls, vs in series_map.items():
        line = " ".join(f"{_px(sx(x))},{_px(sy(v))}" for x, v in zip(xs, vs))
        body.append(f'<polyline class="{cls}" points="{line}"/>')
    legend_y = _MARGIN_T + 8
    for i, cls in enumerate(series_map):
        y = legend_y + 16 * i
        body.append(
            f'<line class="{cls}" x1="{_px(_WIDTH - 180)}" y1="{_px(y)}" '
            f'x2="{_px(_WIDTH - 150)}" y2="{_px(y)}"/>'
        )
        body.append(f'<text x="{_px(_WIDTH - 144)}" y="{_px(y + 4)}">{cls}</text>')
    title = f"Rates over time, window {report.window}"
    return _document(title, body)
