"""Dependency-free SVG chart rendering for sweep results.

The reproduction's figures are multi-series line charts (a metric
against a swept config field, one curve per protocol / fault count).
This module renders them as standalone SVG documents using nothing but
the standard library — in the spirit of the dependency-free sim stack —
so ``repro-bench --render`` works on a bare Python install.

Layout and styling follow a small fixed spec: thin 2 px lines with
round joins, >= 8 px markers ringed in the surface color, hairline
gridlines, a legend whenever a panel has two or more series (never for
one), and text in ink tones — never in a series color.  Categorical
hues are assigned in a fixed, colorblind-validated order and follow the
entity (the report assigns each series label a stable color across
every figure it appears in).

Example::

    from repro.analysis.plotting import Panel, Series, render_figure

    svg = render_figure(
        "Figure 3: throughput/latency",
        [Panel(title="10 validators",
               series=(Series("tusk", (10e3, 20e3), (3.1, 3.4)),),
               x_label="Offered load (tx/s)", y_label="Latency (s)")],
    )
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from xml.sax.saxutils import escape, quoteattr

__all__ = [
    "CATEGORICAL_COLORS",
    "Panel",
    "Series",
    "render_figure",
]

#: Categorical palette (light surface), assigned to series in this
#: fixed order — the ordering is the colorblind-safety mechanism
#: (adjacent pairs validated for CVD separation), so never cycle or
#: re-sort it.
CATEGORICAL_COLORS = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

#: Chart chrome (light surface tokens).
_SURFACE = "#fcfcfb"
_INK_PRIMARY = "#0b0b0b"
_INK_SECONDARY = "#52514e"
_INK_MUTED = "#898781"
_GRIDLINE = "#e1e0d9"
_AXIS = "#c3c2b7"
_BORDER = "#d9d8d2"

_FONT = "system-ui, -apple-system, 'Segoe UI', sans-serif"

# Panel geometry (pixels).
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 20
_PLOT_HEIGHT = 230
_TITLE_BAND = 30
_LEGEND_BAND = 24
_XAXIS_BAND = 52
_CAPTION_BAND = 20
_FIGURE_TITLE_BAND = 40
_PANEL_GAP = 10


@dataclass(frozen=True)
class Series:
    """One labeled curve: parallel x/y tuples.

    ``xs`` entries may be numbers or category labels (strings/bools —
    the panel falls back to a categorical x axis when any entry is not
    a real number).  ``ys`` entries may be ``None`` for unmeasurable
    points (e.g. latency of a stalled run); those points are skipped.
    """

    label: str
    xs: tuple = ()
    ys: tuple = ()
    color: str | None = None


@dataclass(frozen=True)
class Panel:
    """One set of axes inside a figure."""

    title: str
    series: tuple[Series, ...] = ()
    x_label: str = ""
    y_label: str = ""
    x_scale: str = "linear"
    y_scale: str = "linear"
    caption: str = ""


# ----------------------------------------------------------------------
# Scales and ticks
# ----------------------------------------------------------------------
def _nice_step(span: float, target: int) -> float:
    """The 1-2-5 step that yields roughly ``target`` ticks over ``span``."""
    raw = span / max(1, target)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mantissa in (1.0, 2.0, 5.0, 10.0):
        if raw <= mantissa * magnitude * (1 + 1e-9):
            return mantissa * magnitude
    return 10.0 * magnitude


def format_tick(value: float) -> str:
    """Compact tick label: 20000 -> ``20k``, 1500000 -> ``1.5M``."""
    if value == 0:
        return "0"
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= threshold:
            scaled = value / threshold
            text = f"{scaled:.2f}".rstrip("0").rstrip(".")
            return f"{text}{suffix}"
    if abs(value) >= 1:
        text = f"{value:.2f}".rstrip("0").rstrip(".")
    else:
        text = f"{value:.4g}"
    return text


class LinearScale:
    """Linear value -> [0, 1] projection with 1-2-5 nice ticks.

    ``integers=True`` (an all-integer domain, e.g. leader slots) keeps
    the tick step at whole numbers.
    """

    def __init__(
        self, lo: float, hi: float, target_ticks: int = 5, *, integers: bool = False
    ) -> None:
        if hi <= lo:  # degenerate domain (single value): pad it
            pad = abs(lo) * 0.1 or 1.0
            lo, hi = lo - pad, hi + pad
        step = _nice_step(hi - lo, target_ticks)
        if integers and step < 1:
            step = 1.0
        self.lo = math.floor(lo / step) * step
        self.hi = math.ceil(hi / step) * step
        self._step = step

    def ticks(self) -> list[float]:
        count = int(round((self.hi - self.lo) / self._step))
        return [round(self.lo + i * self._step, 12) for i in range(count + 1)]

    def project(self, value: float) -> float:
        return (value - self.lo) / (self.hi - self.lo)


class LogScale:
    """Log10 projection; decade ticks, 2x/5x mantissas on short ranges."""

    def __init__(self, lo: float, hi: float) -> None:
        if lo <= 0 or hi <= 0:
            raise ValueError("log scale requires positive values")
        if hi <= lo:
            lo, hi = lo / 2, hi * 2
        self.lo = 10.0 ** math.floor(math.log10(lo))
        self.hi = 10.0 ** math.ceil(math.log10(hi))

    def ticks(self) -> list[float]:
        lo_exp = round(math.log10(self.lo))
        hi_exp = round(math.log10(self.hi))
        decades = [10.0 ** e for e in range(lo_exp, hi_exp + 1)]
        if len(decades) > 2:
            return decades
        # A short range (one or two decades) gets 2x/5x mantissa ticks
        # so the axis still reads.
        ticks = []
        for decade in decades:
            for mantissa in (1.0, 2.0, 5.0):
                tick = mantissa * decade
                if self.lo <= tick <= self.hi * (1 + 1e-9):
                    ticks.append(tick)
        return ticks

    def project(self, value: float) -> float:
        span = math.log10(self.hi) - math.log10(self.lo)
        return (math.log10(value) - math.log10(self.lo)) / span


class CategoryScale:
    """Band scale for non-numeric x values (booleans, names)."""

    def __init__(self, categories: list) -> None:
        self.categories = list(categories)
        self._index = {category: i for i, category in enumerate(self.categories)}

    def ticks(self) -> list:
        return self.categories

    def project(self, value) -> float:
        slot = self._index[value]
        return (slot + 0.5) / len(self.categories)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _category_label(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if _is_number(value):
        return format_tick(float(value))
    return str(value)


def _make_x_scale(series: tuple[Series, ...], scale_kind: str):
    values = [x for s in series for x in s.xs]
    if not values:
        return LinearScale(0.0, 1.0)
    if not all(_is_number(x) for x in values):
        seen: dict = {}
        for value in values:  # first-seen category order
            seen.setdefault(value, None)
        return CategoryScale(list(seen))
    numbers = [float(v) for v in values]
    if scale_kind == "log" and min(numbers) > 0:
        return LogScale(min(numbers), max(numbers))
    return LinearScale(
        min(numbers), max(numbers), integers=all(v.is_integer() for v in numbers)
    )


def _make_y_scale(series: tuple[Series, ...], scale_kind: str):
    values = [
        float(y)
        for s in series
        for y in s.ys
        if y is not None and _is_number(y) and math.isfinite(y)
    ]
    if not values:
        return LinearScale(0.0, 1.0)
    if scale_kind == "log" and min(values) > 0:
        return LogScale(min(values), max(values))
    return LinearScale(
        min(values), max(values), integers=all(v.is_integer() for v in values)
    )


# ----------------------------------------------------------------------
# SVG assembly
# ----------------------------------------------------------------------
@dataclass
class _SvgBuilder:
    parts: list[str] = field(default_factory=list)

    def add(self, fragment: str) -> None:
        self.parts.append(fragment)

    def text(
        self,
        x: float,
        y: float,
        content: str,
        *,
        size: int = 12,
        color: str = _INK_SECONDARY,
        anchor: str = "start",
        weight: str = "normal",
        transform: str = "",
    ) -> None:
        attrs = f' transform="{transform}"' if transform else ""
        self.add(
            f'<text x="{x:.1f}" y="{y:.1f}" font-family="{_FONT}" font-size="{size}" '
            f'fill="{color}" text-anchor="{anchor}" font-weight="{weight}"{attrs}>'
            f"{escape(content)}</text>"
        )


def _series_color(series: Series, slot: int) -> str:
    return series.color or CATEGORICAL_COLORS[slot % len(CATEGORICAL_COLORS)]


def _render_panel(svg: _SvgBuilder, panel: Panel, *, y_offset: float, width: float) -> float:
    """Render one panel at ``y_offset``; returns its total height."""
    plot_left = _MARGIN_LEFT
    plot_width = width - _MARGIN_LEFT - _MARGIN_RIGHT
    legend_band = _LEGEND_BAND if len(panel.series) >= 2 else 0
    plot_top = y_offset + _TITLE_BAND + legend_band
    plot_bottom = plot_top + _PLOT_HEIGHT
    caption_band = _CAPTION_BAND if panel.caption else 0

    if panel.title:
        svg.text(
            plot_left,
            y_offset + 19,
            panel.title,
            size=13,
            color=_INK_PRIMARY,
            weight="600",
        )

    # Legend: only with two or more series (one series is named by the
    # panel title); a short line-plus-dot key, labels in ink.
    if legend_band:
        x = plot_left
        legend_y = y_offset + _TITLE_BAND + 10
        for slot, series in enumerate(panel.series):
            color = _series_color(series, slot)
            svg.add(
                f'<line x1="{x:.1f}" y1="{legend_y - 4:.1f}" x2="{x + 18:.1f}" '
                f'y2="{legend_y - 4:.1f}" stroke="{color}" stroke-width="2" '
                f'stroke-linecap="round" class="legend-key"/>'
            )
            svg.add(
                f'<circle cx="{x + 9:.1f}" cy="{legend_y - 4:.1f}" r="3.5" '
                f'fill="{color}" stroke="{_SURFACE}" stroke-width="1.5"/>'
            )
            svg.text(x + 24, legend_y, series.label, size=11, color=_INK_SECONDARY)
            x += 30 + 6.4 * len(series.label) + 18

    x_scale = _make_x_scale(panel.series, panel.x_scale)
    y_scale = _make_y_scale(panel.series, panel.y_scale)

    def px(value) -> float:
        return plot_left + x_scale.project(value) * plot_width

    def py(value: float) -> float:
        return plot_bottom - y_scale.project(value) * _PLOT_HEIGHT

    # Horizontal gridlines + y tick labels.
    for tick in y_scale.ticks():
        y = py(tick)
        svg.add(
            f'<line x1="{plot_left}" y1="{y:.1f}" x2="{plot_left + plot_width:.1f}" '
            f'y2="{y:.1f}" stroke="{_GRIDLINE}" stroke-width="1"/>'
        )
        svg.text(plot_left - 8, y + 4, format_tick(tick), size=11, color=_INK_MUTED, anchor="end")

    # Axis lines (left + baseline).
    svg.add(
        f'<line x1="{plot_left}" y1="{plot_top:.1f}" x2="{plot_left}" '
        f'y2="{plot_bottom:.1f}" stroke="{_AXIS}" stroke-width="1"/>'
    )
    svg.add(
        f'<line x1="{plot_left}" y1="{plot_bottom:.1f}" x2="{plot_left + plot_width:.1f}" '
        f'y2="{plot_bottom:.1f}" stroke="{_AXIS}" stroke-width="1"/>'
    )

    # X ticks.
    for tick in x_scale.ticks():
        x = px(tick)
        svg.add(
            f'<line x1="{x:.1f}" y1="{plot_bottom:.1f}" x2="{x:.1f}" '
            f'y2="{plot_bottom + 4:.1f}" stroke="{_AXIS}" stroke-width="1"/>'
        )
        svg.text(x, plot_bottom + 18, _category_label(tick), size=11, color=_INK_MUTED,
                 anchor="middle")

    # Axis labels.
    if panel.x_label:
        svg.text(
            plot_left + plot_width / 2,
            plot_bottom + 38,
            panel.x_label,
            size=12,
            color=_INK_SECONDARY,
            anchor="middle",
        )
    if panel.y_label:
        mid_y = (plot_top + plot_bottom) / 2
        svg.text(
            16,
            mid_y,
            panel.y_label,
            size=12,
            color=_INK_SECONDARY,
            anchor="middle",
            transform=f"rotate(-90 16 {mid_y:.1f})",
        )

    # Series: 2px round-joined lines, then markers ringed in the
    # surface color so they stay legible where curves cross.
    for slot, series in enumerate(panel.series):
        color = _series_color(series, slot)
        valid = [
            (x, float(y))
            for x, y in zip(series.xs, series.ys)
            if y is not None and _is_number(y) and math.isfinite(float(y))
        ]
        points = [(px(x), py(y)) for x, y in valid]
        if len(points) >= 2:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
            svg.add(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2" '
                f'stroke-linejoin="round" stroke-linecap="round" class="series-line"/>'
            )
        for (x, y), (raw_x, raw_y) in zip(points, valid):
            svg.add(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{color}" '
                f'stroke="{_SURFACE}" stroke-width="2" class="series-marker">'
                f"<title>{escape(series.label)}: "
                f"({escape(_category_label(raw_x))}, {format_tick(raw_y)})</title>"
                f"</circle>"
            )

    if panel.caption:
        svg.text(plot_left, plot_bottom + _XAXIS_BAND, panel.caption, size=11, color=_INK_MUTED)

    return _TITLE_BAND + legend_band + _PLOT_HEIGHT + _XAXIS_BAND + caption_band


def render_figure(title: str, panels: list[Panel], *, width: int = 680) -> str:
    """Render panels stacked vertically into one standalone SVG document.

    Deterministic: identical inputs produce byte-identical SVG (golden
    tests rely on this), and the output embeds no timestamps.
    """
    panel_heights = []
    for panel in panels:
        legend_band = _LEGEND_BAND if len(panel.series) >= 2 else 0
        caption_band = _CAPTION_BAND if panel.caption else 0
        panel_heights.append(
            _TITLE_BAND + legend_band + _PLOT_HEIGHT + _XAXIS_BAND + caption_band
        )
    title_band = _FIGURE_TITLE_BAND if title else 8
    height = title_band + sum(panel_heights) + _PANEL_GAP * max(0, len(panels) - 1) + 8

    svg = _SvgBuilder()
    svg.add(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height:.0f}" '
        f'viewBox="0 0 {width} {height:.0f}" role="img" aria-label={quoteattr(title)}>'
    )
    svg.add(
        f'<rect x="0.5" y="0.5" width="{width - 1}" height="{height - 1:.0f}" rx="6" '
        f'fill="{_SURFACE}" stroke="{_BORDER}" stroke-width="1"/>'
    )
    if title:
        svg.text(20, 26, title, size=15, color=_INK_PRIMARY, weight="600")

    y_offset = float(title_band)
    for panel in panels:
        y_offset += _render_panel(svg, panel, y_offset=y_offset, width=width)
        y_offset += _PANEL_GAP
    svg.add("</svg>")
    return "\n".join(svg.parts) + "\n"

