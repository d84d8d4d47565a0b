"""SVG step-plot rendering tests."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from math import inf, nan, nextafter

import pytest

from cwtasim.svgplot import CurveSpec, PlotSpec, emit_svg_stepplot


def spec_one():
    return PlotSpec(
        curves=(
            CurveSpec(label="control", points=((0.0, 1.0), (3.0, 0.5), (7.0, 0.25))),
            CurveSpec(label="experimental", points=((0.0, 1.0), (5.0, 0.75))),
        ),
        title="A <demo> & more",
        y_label="survival",
    )


def test_output_is_wellformed_xml_with_expected_structure():
    svg = emit_svg_stepplot(spec_one())
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    paths = root.findall(f"{ns}path")
    assert len(paths) == 2
    texts = [t.text for t in root.findall(f"{ns}text")]
    assert "A <demo> & more" in texts  # escaped in source, unescaped by parser
    assert "control" in texts and "experimental" in texts
    assert "months" in texts and "survival" in texts


def test_output_is_deterministic():
    a = emit_svg_stepplot(spec_one())
    b = emit_svg_stepplot(spec_one())
    assert a == b
    assert a.endswith("</svg>\n")


def test_step_path_geometry_is_right_continuous():
    # One curve dropping at x=3: path must move horizontally to x=3 before
    # dropping vertically (value holds until the next x); its last point at
    # x=10 sets the x-range to [0, 10].
    spec = PlotSpec(curves=(CurveSpec(label="c", points=((0.0, 1.0), (3.0, 0.5), (10.0, 0.5))),))
    assert spec.x_range == (0.0, 10.0)
    svg = emit_svg_stepplot(spec)
    path = next(line for line in svg.splitlines() if "<path" in line)
    d = path.split('d="')[1].split('"')[0]
    ops = d.split()
    # M x y, H x(3.0), V y(0.5), H x(10.0), V y(0.5), H x(10.0)
    assert ops[0] == "M"
    assert ops[3] == "H" and ops[5] == "V" and ops[7] == "H" and ops[-2] == "H"
    # x=3 of [0,10] maps to margin_l + 0.3*plot_w = 72 + 0.3*624 = 259.2
    assert float(ops[4]) == pytest.approx(259.2)
    # final H runs to the right edge of the x-range
    assert float(ops[-1]) == pytest.approx(72 + 624)


def test_escaping_of_markup_characters():
    svg = emit_svg_stepplot(
        PlotSpec(curves=(CurveSpec(label="a<b&c>d", points=((0.0, 0.5),)),))
    )
    assert "a&lt;b&amp;c&gt;d" in svg
    assert "a<b&c>d" not in svg


def test_explicit_dash_is_honored():
    svg = emit_svg_stepplot(
        PlotSpec(curves=(CurveSpec(label="x", points=((0.0, 0.5), (1.0, 0.25)), dash="4 3"),))
    )
    assert 'stroke-dasharray="4 3"' in svg


def test_default_ranges_cover_data_and_survival_scale():
    spec = PlotSpec(curves=(CurveSpec(label="c", points=((0.0, 1.0), (4.0, 0.2))),))
    assert spec.x_range == (0.0, 4.0)
    lo, hi = spec.y_range
    assert lo == 0.0 and hi >= 1.0  # survival-style default includes [0, 1]


def test_validation_errors():
    with pytest.raises(ValueError, match="no points"):
        CurveSpec(label="empty", points=())
    with pytest.raises(ValueError, match="sorted"):
        CurveSpec(label="bad", points=((2.0, 1.0), (1.0, 0.5)))
    with pytest.raises(ValueError, match="at least one curve"):
        PlotSpec(curves=())
    with pytest.raises(ValueError, match="finite width"):
        PlotSpec(curves=(CurveSpec(label="c", points=((-1e308, 0.5), (1e308, 0.4))),))
    # min and max skip a NaN that is not first, so the curve itself must refuse one
    for points in (((nan, 0.5), (1.0, 0.4)), ((0.0, 0.5), (1.0, nan)), ((0.0, 0.5), (nan, 0.2)), ((0.0, inf),)):
        with pytest.raises(ValueError, match="curve 'c' has a non-finite coordinate"):
            CurveSpec(label="c", points=points)
    with pytest.raises(ValueError, match="finite width above zero"):  # 1e16 + 1.0 rounds to 1e16
        PlotSpec(curves=(CurveSpec(label="c", points=((1e16, 0.5),)),))


def test_ticks_end_on_a_span_narrower_than_a_step_can_resolve():
    """x values one double apart near 1e300 give a tick step below the spacing
    of doubles there; the tick loop still ends."""
    points = ((1e300, 0.5), (nextafter(1e300, inf), 0.4))
    ET.fromstring(emit_svg_stepplot(PlotSpec(curves=(CurveSpec(label="c", points=points),))))
