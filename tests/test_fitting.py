"""Tests for log-log exponent fitting, SVG output, and tabular file helpers."""

import csv
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.experiments import format_value, write_csv
from conelab.fitting import ScalingFit, fit_exponent
from conelab.svgplot import svg_scatter


class TestFitExponent:
    def test_exact_square_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_exponent(xs, xs ** 2)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.residual_max <= 1e-12

    def test_constant_data(self):
        fit = fit_exponent([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)

    def test_noisy_sqrt_law(self):
        rng = np.random.default_rng(0)
        xs = np.geomspace(1.0, 1e3, 40)
        ys = np.sqrt(xs) * np.exp(rng.normal(0, 0.05, 40))
        fit = fit_exponent(xs, ys)
        assert 0.45 <= fit.slope <= 0.55
        assert fit.residual_max <= 0.2

    def test_predict_inverts_fit(self):
        xs = np.array([1.0, 3.0, 9.0, 27.0])
        ys = 2.5 * xs ** -1.5
        fit = fit_exponent(xs, ys)
        predicted = np.exp(fit.slope * np.log(xs) + fit.intercept)
        assert np.allclose(predicted, ys, rtol=1e-12)

    @given(st.floats(-3, 3), st.floats(0.1, 10))
    @settings(max_examples=30, deadline=None)
    def test_recovers_any_power_law(self, slope, coeff):
        xs = np.array([1.0, 2.0, 5.0, 10.0, 20.0])
        fit = fit_exponent(xs, coeff * xs ** slope)
        assert fit.slope == pytest.approx(slope, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponent([1.0, 2.0], [1.0, 2.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_exponent([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_constant_x_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_exponent([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_exponent([1.0, 2.0, 3.0], [1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            fit_exponent([1.0, -2.0, 3.0], [1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            fit_exponent([1.0, 2.0, 3.0], [1.0, math.inf, 2.0])

class TestSvgScatter:
    def make(self, tmp_path, **kwargs):
        path = tmp_path / "fig.svg"
        xs = [1.0, 10.0, 100.0]
        ys = [2.0, 20.0, 200.0]
        svg_scatter(path, [("series <one>", xs, ys)],
                    fits=[("fit", 1.0, math.log(2.0))],
                    title="scaling & decay", xlabel="scale", ylabel="value",
                    **kwargs)
        return path

    def test_valid_xml_and_structure(self, tmp_path):
        path = self.make(tmp_path)
        root = ET.fromstring(path.read_text())
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.get("version") == "1.1"
        tags = [el.tag.split("}")[1] for el in root.iter()]
        assert tags.count("circle") >= 3      # one per data point (+ legend)
        assert "line" in tags and "text" in tags and "rect" in tags

    def test_escapes_labels(self, tmp_path):
        text = self.make(tmp_path).read_text()
        assert "scaling &amp; decay" in text
        assert "series &lt;one&gt;" in text
        assert "<one>" not in text

    def test_deterministic_output(self, tmp_path):
        a = self.make(tmp_path).read_bytes()
        b = (tmp_path / "fig.svg").read_bytes()
        self.make(tmp_path)
        assert a == b == (tmp_path / "fig.svg").read_bytes()

    def test_empty_series_still_valid(self, tmp_path):
        path = tmp_path / "empty.svg"
        svg_scatter(path, [])
        root = ET.fromstring(path.read_text())
        assert root.get("width") == "640"

    def test_drops_nonpositive_points(self, tmp_path):
        path = tmp_path / "drop.svg"
        svg_scatter(path, [("s", [1.0, -1.0, 0.0, 10.0], [1.0, 5.0, 5.0, 10.0])])
        root = ET.fromstring(path.read_text())
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        # 2 kept points + 1 legend marker
        assert len(circles) == 3


class TestCsvHelpers:
    def test_format_value(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(0.5) == "0.5"
        assert format_value(1e-9) == "1e-09"
        assert format_value(3) == "3"
        assert format_value("abc") == "abc"
        # 12 significant digits
        assert format_value(1.0 / 3.0) == "0.333333333333"

    def test_write_csv_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [{"a": 1, "b": "x,y", "c": 0.25},
                {"a": 2, "b": 'quo"te', "c": None},
                {"a": 3}]
        write_csv(path, ["a", "b", "c"], rows)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["a", "b", "c"]
        assert got[1] == ["1", "x,y", "0.25"]
        assert got[2] == ["2", 'quo"te', ""]
        assert got[3] == ["3", "", ""]

    def test_write_csv_quoting_on_disk(self, tmp_path):
        path = tmp_path / "q.csv"
        write_csv(path, ["v"], [{"v": "x,y"}, {"v": 'a"b'}])
        raw = path.read_text()
        assert '"x,y"' in raw
        assert '"a""b"' in raw

    def test_unix_line_endings(self, tmp_path):
        path = tmp_path / "n.csv"
        write_csv(path, ["v"], [{"v": 1}, {"v": 2}])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
