"""Tests for repro.core.plan — the staged spectral fit pipeline."""

import numpy as np
import pytest

from repro.core import PFR, KernelPFR, SpectralFitPlan, fit_path
from repro.core.plan import Precomputed
from repro.exceptions import ValidationError
from repro.graphs import between_group_quantile_graph
from repro.obs import MetricsRegistry, set_registry


def _workload(rng, n=36, m=6):
    X = rng.normal(size=(n, m))
    groups = np.repeat([0, 1], n // 2)
    scores = rng.random(n)
    WF = between_group_quantile_graph(scores, groups, n_quantiles=4)
    return X, WF


def _fitted_basis(model):
    return model.components_ if isinstance(model, PFR) else model.alphas_


class TestFitPathMatchesFit:
    """Every estimator out of fit_path must equal an independent fit()."""

    @pytest.mark.parametrize("constraint", ["z", "v"])
    @pytest.mark.parametrize("rescale", ["objective", "degree", "none"])
    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    def test_grid_equals_independent_fits(self, rng, kind, rescale, constraint):
        X, WF = _workload(rng)
        if kind == "linear":
            template = PFR(n_components=2, n_neighbors=4,
                           rescale=rescale, constraint=constraint)
            d_max = X.shape[1]
        else:
            template = KernelPFR(n_components=2, n_neighbors=4, kernel="rbf",
                                 rescale=rescale, constraint=constraint)
            d_max = 5
        models = fit_path(
            X, WF, gammas=[0.0, 0.5, 1.0], dims=[1, d_max], estimator=template
        )
        assert len(models) == 6
        for model in models:
            solo = type(model)(**model.get_params()).fit(X, WF)
            np.testing.assert_allclose(
                model.eigenvalues_, solo.eigenvalues_, atol=1e-8
            )
            np.testing.assert_allclose(
                _fitted_basis(model), _fitted_basis(solo), atol=1e-8
            )

    def test_gamma_major_order_and_params(self, rng):
        X, WF = _workload(rng)
        models = fit_path(
            X, WF, gammas=[0.2, 0.8], dims=[1, 3],
            estimator=PFR(n_neighbors=4),
        )
        operating_points = [(m.gamma, m.n_components) for m in models]
        assert operating_points == [(0.2, 1), (0.2, 3), (0.8, 1), (0.8, 3)]
        for model in models:
            assert model.components_.shape == (X.shape[1], model.n_components)

    def test_template_is_not_mutated(self, rng):
        X, WF = _workload(rng)
        template = PFR(n_components=2, gamma=0.4, n_neighbors=4)
        fit_path(X, WF, gammas=[0.0, 1.0], estimator=template)
        assert template.gamma == 0.4
        assert not hasattr(template, "components_")

    def test_default_template_and_dims(self, rng):
        X, WF = _workload(rng)
        models = fit_path(X, WF, gammas=[0.5])
        assert len(models) == 1
        assert isinstance(models[0], PFR)
        assert models[0].n_components == PFR().n_components

    def test_empty_gammas_rejected(self, rng):
        X, WF = _workload(rng)
        with pytest.raises(ValidationError, match="gamma"):
            fit_path(X, WF, gammas=[])

    def test_bad_dims_rejected(self, rng):
        X, WF = _workload(rng)
        with pytest.raises(ValidationError, match="dims"):
            fit_path(X, WF, gammas=[0.5], dims=[0])


class TestStages:
    def test_bundles_are_immutable(self, rng):
        X, WF = _workload(rng)
        plan = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        graph = plan.graph
        assert isinstance(graph, Precomputed)
        with pytest.raises(TypeError):
            graph.data["w_x"] = None
        with pytest.raises(AttributeError):
            graph.digest = "tampered"

    def test_stage_chain_materializes(self, rng):
        X, WF = _workload(rng)
        plan = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        assert plan.graph.stage == "graph"
        assert plan.laplacians.stage == "laplacian"
        assert plan.projection.stage == "projection"
        assert plan.d_max == X.shape[1]
        assert plan.laplacians["L_x"].shape == (X.shape[0], X.shape[0])

    def test_solve_caches_and_slices(self, rng):
        X, WF = _workload(rng)
        plan = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        evals_full, V_full = plan.solve(0.5, 4)
        evals_small, V_small = plan.solve(0.5, 2)
        np.testing.assert_allclose(evals_small, evals_full[:2], atol=1e-10)
        np.testing.assert_allclose(V_small, V_full[:, :2], atol=1e-10)

    def test_solve_cache_counters_have_one_label_set(self, rng):
        X, WF = _workload(rng)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            fit_path(X, WF, gammas=np.linspace(0.0, 1.0, 50), dims=(1, 2),
                     estimator=PFR(n_neighbors=4))
        finally:
            set_registry(previous)
        series = [c for c in registry.snapshot()["counters"]
                  if c["name"].startswith("plan.solve_cache.")]
        names = [c["name"] for c in series]
        assert sorted(names) == ["plan.solve_cache.hits", "plan.solve_cache.misses"]
        assert registry.total("plan.solve_cache.misses") == 50
        assert registry.total("plan.solve_cache.hits") > 0

    def test_solve_validates_gamma_and_d(self, rng):
        X, WF = _workload(rng)
        plan = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        with pytest.raises(ValidationError, match="gamma"):
            plan.solve(1.5, 2)
        with pytest.raises(ValidationError, match=r"d must be"):
            plan.solve(0.5, X.shape[1] + 1)

    def test_structural_mismatch_rejected(self, rng):
        X, WF = _workload(rng)
        plan = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        with pytest.raises(ValidationError, match="incompatible"):
            plan.fit(PFR(n_neighbors=7))
        with pytest.raises(ValidationError, match="kernel plan|linear plan"):
            plan.fit(KernelPFR())

    def test_kernel_rank_limit_message(self, rng):
        X, WF = _workload(rng, n=12)
        plan = SpectralFitPlan.for_estimator(KernelPFR(n_neighbors=4), X, WF)
        with pytest.raises(ValidationError, match="kernel rank"):
            plan.solve(0.5, 13)


class TestDigests:
    def test_digests_are_deterministic(self, rng):
        X, WF = _workload(rng)
        plan_a = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        plan_b = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        assert plan_a.stage_digests() == plan_b.stage_digests()
        digests = plan_a.stage_digests()
        assert set(digests) == {"graph", "laplacian", "projection", "solve"}
        assert all(len(d) == 64 for d in digests.values())

    def test_precomputed_wx_digest_ignores_knn_params(self, rng):
        # With a precomputed data graph the k-NN settings don't influence
        # the stage output, so they must not influence its digest either.
        from repro.graphs import knn_graph

        X, WF = _workload(rng)
        WX = knn_graph(X, n_neighbors=4)
        a = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF, w_x=WX)
        b = SpectralFitPlan.for_estimator(PFR(n_neighbors=9), X, WF, w_x=WX)
        assert a.graph.digest == b.graph.digest

    def test_data_changes_graph_digest(self, rng):
        X, WF = _workload(rng)
        base = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X, WF)
        shifted = SpectralFitPlan.for_estimator(PFR(n_neighbors=4), X + 1.0, WF)
        assert base.graph.digest != shifted.graph.digest

    def test_rescale_changes_downstream_digests_only(self, rng):
        X, WF = _workload(rng)
        obj = SpectralFitPlan.for_estimator(
            PFR(n_neighbors=4, rescale="objective"), X, WF
        ).stage_digests()
        none = SpectralFitPlan.for_estimator(
            PFR(n_neighbors=4, rescale="none"), X, WF
        ).stage_digests()
        assert obj["graph"] == none["graph"]
        assert obj["laplacian"] == none["laplacian"]
        assert obj["projection"] != none["projection"]
        assert obj["solve"] != none["solve"]

    def test_fitted_estimators_carry_digests(self, rng):
        X, WF = _workload(rng)
        linear = PFR(n_components=2, n_neighbors=4).fit(X, WF)
        kernel = KernelPFR(n_components=2, n_neighbors=4).fit(X, WF)
        for model in (linear, kernel):
            assert set(model.plan_digests_) == {
                "graph", "laplacian", "projection", "solve"
            }
        # Same γ-independent digests for every sweep point of one plan.
        sweep = fit_path(X, WF, gammas=[0.1, 0.9],
                         estimator=PFR(n_components=2, n_neighbors=4))
        assert sweep[0].plan_digests_ == sweep[1].plan_digests_
