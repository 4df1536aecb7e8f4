import math
import re
from xml.etree import ElementTree

from conftest import make_model
from lpm.inference import ResponseResult
from lpm.selection import SelectionCurve, SelectionPoint
from lpm.svgplots import (HEIGHT, MARGIN, WIDTH, effect_bar_svg, pmf_heatstrip_svg,
                          selection_curve_svg)


def _curve():
    """K = 1..4: two usable candidates, one unconverged, one without a statistic."""
    points = [SelectionPoint(1, 3.0, degenerate=False, converged=True),
              SelectionPoint(2, 1.1, degenerate=False, converged=True),
              SelectionPoint(3, 1.0, degenerate=False, converged=False),
              SelectionPoint(4, float("nan"), degenerate=True, converged=True)]
    return SelectionCurve(points=points, phase="treatment", chosen=2)


def _x(k):
    return MARGIN + (k - 1) / 3 * (WIDTH - 2 * MARGIN)


class TestSelectionCurveSvg:
    def test_every_coordinate_is_finite(self):
        svg = selection_curve_svg(_curve())
        assert "nan" not in svg.lower() and "inf" not in svg.lower()
        numbers = re.findall(r'\b(?:cx|cy|x|y|x1|y1|x2|y2)="([^"]*)"', svg)
        numbers += re.findall(r"-?\d+\.\d+", " ".join(
            re.findall(r'\b(?:points|d)="([^"]*)"', svg)))
        assert numbers and all(math.isfinite(float(v)) for v in numbers)

    def test_curve_joins_finite_points_only(self):
        svg = selection_curve_svg(_curve())
        (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
        xs = [float(p.split(",")[0]) for p in points.split()]
        assert xs == [round(_x(k), 1) for k in (1, 2, 3)]

    def test_degenerate_and_unconverged_have_their_own_markers(self):
        svg = selection_curve_svg(_curve())
        hollow = re.findall(r'<circle cx="([^"]*)" cy="[^"]*" r="5" fill="white"', svg)
        assert f"{_x(3):.1f}" in hollow  # unconverged K = 3
        crosses = re.findall(r'<path d="M ([^ ]*) ([^ ]*) l 10 10', svg)
        # the candidate without a statistic is crossed out on the K axis
        assert (f"{_x(4) - 5:.1f}", f"{HEIGHT - MARGIN - 5:.1f}") in crosses
        filled = re.findall(r'<circle cx="([^"]*)" cy="[^"]*" r="4"', svg)
        assert filled == [f"{_x(k):.1f}" for k in (1, 2)]
        assert ">degenerate</text>" in svg and ">unconverged</text>" in svg

    def test_usable_curve_has_no_legend(self):
        curve = _curve()
        curve.points = curve.points[:2]
        svg = selection_curve_svg(curve)
        assert "degenerate" not in svg and "unconverged" not in svg


def test_plots_are_well_formed_xml_for_any_tumor_id(binning):
    # a printable id keeps its characters; any other is labelled by its repr()
    labels = {"a&b<c": "a&b<c", "d>\"e'": "d>\"e'", "t1": "t1",
              "a\x01b": "'a\\x01b'", "x\ny": "'x\\ny'"}
    results = [ResponseResult(tumor_id=t, q_treatment_total=100.0, sigma_treatment=5.0,
                              effect_fraction=0.1, effect_fraction_sigma=0.01, z=3.0,
                              p_two_tailed=0.003) for t in labels]
    bars = ElementTree.fromstring(effect_bar_svg(results, "Treatment volume per tumor"))
    texts = [e.text for e in bars.iter("{http://www.w3.org/2000/svg}text")]
    assert set(labels.values()) <= set(texts)
    ElementTree.fromstring(selection_curve_svg(_curve()))
    ElementTree.fromstring(pmf_heatstrip_svg(make_model(binning, n_control=2, n_treatment=1)))
