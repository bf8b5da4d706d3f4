"""Tests for repro.experiments.figures — every figure driver at small scale.

These are integration tests: each driver must run end-to-end, return the
series the paper plots, and render. The *qualitative shape* assertions that
constitute the actual reproduction check live in test_paper_claims.py.
"""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.experiments import (
    EXPERIMENTS,
    FigureResult,
    figure1,
    figure2,
    figure3,
    figure4,
    get_experiment,
    table1,
)
from repro.experiments.builders import _scaled
from repro.experiments.figures import _representation_geometry


class TestTable1:
    def test_rows_and_render(self):
        result = table1(scale=0.05, seed=0)
        assert isinstance(result, FigureResult)
        assert len(result.data["rows"]) == 3
        assert "Base-rate" in result.render()

    def test_full_scale_counts(self):
        result = table1(scale=1.0, seed=0)
        by_name = {row[0]: row for row in result.data["rows"]}
        assert by_name["synthetic"][1] == 600
        assert by_name["crime"][1] == 1993
        assert by_name["compas"][1] == 8803


class TestFigure1:
    def test_representations_and_geometry(self):
        result = figure1(scale=0.3, seed=0)
        for method in ("original", "ifair", "lfr", "pfr"):
            assert result.data["representations"][method].shape[1] == 2
            geometry = result.data["geometry"][method]
            assert np.isfinite(geometry["cross_group_distance"])
            assert geometry["degenerate"] is False
        assert "[pfr]" in result.render()

    def test_geometry_of_collapsed_representation_is_degenerate(self):
        y = np.array([0, 1, 0, 1, 1, 0])
        s = np.array([0, 0, 0, 1, 1, 1])
        geometry = _representation_geometry(np.ones((6, 2)), y, s)
        assert geometry["degenerate"] is True
        assert np.isnan(geometry["cross_group_distance"])
        assert np.isnan(geometry["deserving_alignment"])


class TestBarFigures:
    def test_figure2_results_complete(self):
        result = figure2(scale=0.25, seed=0)
        assert set(result.data["results"]) == {"original", "ifair", "lfr", "pfr"}
        assert "Consistency(WF)" in result.text

    def test_figure3_includes_hardt(self):
        result = figure3(scale=0.25, seed=0)
        assert "hardt" in result.data["results"]
        assert "FPR" in result.text


class TestSweepFigures:
    def test_figure4_series(self):
        result = figure4(scale=0.25, seed=0, gammas=(0.0, 0.5, 1.0))
        series = result.data["series"]
        assert len(series["consistency_wf"]) == 3
        assert len(series["auc_s1"]) == 3
        assert "gamma" in result.text


class TestScaling:
    def test_scaled_bounds(self):
        assert _scaled(1000, 0.5) == 500
        assert _scaled(100, 0.01) == 20  # floor of 20

    def test_invalid_scale(self):
        with pytest.raises(ValidationError, match="scale"):
            table1(scale=0.0)

    def test_unknown_dataset(self):
        from repro.experiments import make_workload

        with pytest.raises(ValidationError, match="unknown dataset"):
            make_workload("mnist", seed=0, scale=1.0)


class TestRegistry:
    def test_all_eleven_experiments_present(self):
        expected = {"table1"} | {f"figure{i}" for i in range(1, 11)}
        assert set(EXPERIMENTS) == expected

    def test_every_spec_complete(self):
        for spec in EXPERIMENTS.values():
            assert spec.title
            assert spec.dataset in ("all", "synthetic", "crime", "compas")
            assert callable(spec.driver)
            assert spec.expected_shapes

    def test_get_experiment(self):
        assert get_experiment("figure2").dataset == "synthetic"

    def test_get_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("figure99")

    def test_drivers_match_registry(self):
        import repro.experiments.figures as figures

        for name, spec in EXPERIMENTS.items():
            assert spec.driver is getattr(figures, name)
