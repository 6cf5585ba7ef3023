"""Structural golden checks of the dependency-free SVG chart backend.

The SVG output is deterministic, so these tests parse it (standard
ElementTree — the renderer must emit well-formed XML) and assert the
structure the report relies on: series counts, axis labels, tick
placement on linear and log scales, legend presence rules, and that
rendering imports no third-party module.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

from repro.analysis.plotting import (
    CATEGORICAL_COLORS,
    LinearScale,
    LogScale,
    Panel,
    Series,
    format_tick,
    render_figure,
)

_NS = {"svg": "http://www.w3.org/2000/svg"}


def _parse(svg_text: str) -> ET.Element:
    return ET.fromstring(svg_text)


def _texts(root: ET.Element) -> list[str]:
    return [element.text or "" for element in root.iter(f"{{{_NS['svg']}}}text")]


def _by_class(root: ET.Element, class_name: str) -> list[ET.Element]:
    return [
        element
        for element in root.iter()
        if element.get("class") == class_name
    ]


def _two_series_panel() -> Panel:
    return Panel(
        title="Latency under load",
        series=(
            Series("tusk", (10_000, 20_000, 40_000), (3.1, 3.3, 3.6)),
            Series("mahi-mahi-5", (10_000, 20_000, 40_000), (1.1, 1.2, 1.4)),
        ),
        x_label="Offered load (tx/s)",
        y_label="Average commit latency (s)",
    )


class TestSvgStructure:
    def test_well_formed_and_deterministic(self):
        svg = render_figure("Figure X", [_two_series_panel()])
        _parse(svg)  # raises on malformed XML
        assert svg == render_figure("Figure X", [_two_series_panel()])

    def test_series_counts(self):
        root = _parse(render_figure("F", [_two_series_panel()]))
        lines = _by_class(root, "series-line")
        markers = _by_class(root, "series-marker")
        assert len(lines) == 2  # one polyline per series
        assert len(markers) == 6  # one marker per point

    def test_axis_labels_present(self):
        root = _parse(render_figure("F", [_two_series_panel()]))
        texts = _texts(root)
        assert "Offered load (tx/s)" in texts
        assert "Average commit latency (s)" in texts

    def test_legend_for_two_series_none_for_one(self):
        two = _parse(render_figure("F", [_two_series_panel()]))
        assert len(_by_class(two, "legend-key")) == 2
        single = Panel(
            title="One curve",
            series=(Series("only", (1, 2), (1.0, 2.0)),),
        )
        one = _parse(render_figure("F", [single]))
        assert len(_by_class(one, "legend-key")) == 0

    def test_series_labels_are_ink_not_series_colored(self):
        root = _parse(render_figure("F", [_two_series_panel()]))
        for text in root.iter(f"{{{_NS['svg']}}}text"):
            assert text.get("fill") not in CATEGORICAL_COLORS

    def test_text_is_escaped(self):
        panel = Panel(
            title='<script>"&"</script>',
            series=(Series("a<b>&c", (1, 2), (1.0, 2.0)),),
        )
        svg = render_figure("t & t", [panel])
        assert "<script>" not in svg
        root = _parse(svg)  # still well-formed with hostile labels
        assert '<script>"&"</script>' in _texts(root)

    def test_none_and_nan_points_are_skipped(self):
        panel = Panel(
            title="gaps",
            series=(
                Series("gappy", (1, 2, 3, 4), (1.0, None, math.nan, 2.0)),
            ),
        )
        root = _parse(render_figure("F", [panel]))
        assert len(_by_class(root, "series-marker")) == 2

    def test_multi_panel_figure_stacks(self):
        svg = render_figure("F", [_two_series_panel(), _two_series_panel()])
        root = _parse(svg)
        assert len(_by_class(root, "series-line")) == 4
        height = float(root.get("height"))
        single = float(
            _parse(render_figure("F", [_two_series_panel()])).get("height")
        )
        assert height > single * 1.7  # second panel really adds a band


class TestScales:
    def test_linear_ticks_are_nice_and_cover_domain(self):
        scale = LinearScale(3.0, 97.0)
        ticks = scale.ticks()
        assert ticks[0] <= 3.0 and ticks[-1] >= 97.0
        steps = {round(b - a, 9) for a, b in zip(ticks, ticks[1:])}
        assert len(steps) == 1  # uniform step
        assert 0.0 <= scale.project(3.0) <= scale.project(97.0) <= 1.0

    def test_integer_domain_keeps_integer_ticks(self):
        ticks = LinearScale(1, 3, integers=True).ticks()
        assert all(float(t).is_integer() for t in ticks)

    def test_log_ticks_are_decades_equally_spaced(self):
        scale = LogScale(1.0, 1000.0)
        ticks = scale.ticks()
        assert ticks == [1.0, 10.0, 100.0, 1000.0]
        positions = [scale.project(t) for t in ticks]
        gaps = {round(b - a, 9) for a, b in zip(positions, positions[1:])}
        assert gaps == {round(1 / 3, 9)}  # decades are equidistant

    def test_log_short_range_gets_mantissa_ticks(self):
        ticks = LogScale(10.0, 99.0).ticks()
        assert 20.0 in ticks and 50.0 in ticks

    def test_log_scale_in_rendered_panel(self):
        panel = Panel(
            title="log load",
            series=(Series("s", (100.0, 1000.0, 10000.0), (1.0, 2.0, 3.0)),),
            x_scale="log",
        )
        root = _parse(render_figure("F", [panel]))
        texts = _texts(root)
        for label in ("100", "1k", "10k"):
            assert label in texts
        # The three markers are equally spaced horizontally: decades.
        xs = sorted(
            float(marker.get("cx")) for marker in _by_class(root, "series-marker")
        )
        assert abs((xs[1] - xs[0]) - (xs[2] - xs[1])) < 0.2

    def test_categorical_x_for_booleans(self):
        panel = Panel(
            title="ablation",
            series=(Series("s", (True, False), (1.0, 2.0)),),
        )
        root = _parse(render_figure("F", [panel]))
        texts = _texts(root)
        assert "on" in texts and "off" in texts


class TestFormatTick:
    def test_compact_thousands(self):
        assert format_tick(20_000) == "20k"
        assert format_tick(1_500_000) == "1.5M"
        assert format_tick(0) == "0"
        assert format_tick(0.5) == "0.5"
        assert format_tick(2.0) == "2"


class TestMatplotlibGate:
    def test_svg_backend_never_imports_matplotlib(self):
        # Importing and using the SVG backend must work on a bare
        # install: rendering pulls in no third-party module.
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        import repro

        # The bare subprocess doesn't inherit pytest's pythonpath
        # config; point it at the same `repro` this test imported.
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys\n"
            "from repro.analysis.plotting import Panel, Series, render_figure\n"
            "render_figure('F', [Panel(title='p', "
            "series=(Series('s', (1, 2), (1.0, 2.0)),))])\n"
            "assert 'matplotlib' not in sys.modules\n"
        )
        proc = subprocess.run(
            [_sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
