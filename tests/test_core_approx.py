"""Parity + property tests for the landmark-Nyström scaling layer.

The contract under test (``repro.core.approx``):

* **Exactness at m = n** — a landmark fit that selects every training row
  must reproduce the exact :class:`~repro.core.SpectralFitPlan` solve to
  1e-8, for every selection strategy and for both estimator families.
* **Fidelity is monotone in m** — on a seeded blob dataset, the aligned
  cosine similarity between the landmark and exact embeddings of held-out
  rows improves as the landmark budget grows.
* **Out-of-sample serving** — nystrom models transform arbitrary unseen
  rows; provenance (``landmarks`` stage digest, ``landmark_indices_``)
  survives persistence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PFR, KernelPFR
from repro.core import (
    LANDMARK_STRATEGIES,
    LandmarkPlan,
    PlanExtension,
    SpectralFitPlan,
    embedding_fidelity,
    fit_path,
    nystrom_extend,
    plan_for_estimator,
    row_agreement,
    select_landmarks,
)
from repro.core.approx import _d2_draw
from repro.core.plan import _stage_digest
from repro.datasets import simulate_blobs
from repro.exceptions import ValidationError
from repro.graphs import between_group_quantile_graph
from repro.graphs.knn import _distance_view
from repro.io import load_model, save_model
from repro.obs.metrics import MetricsRegistry, set_registry

PARITY_TOL = 1e-8


@pytest.fixture(scope="module")
def blob_problem():
    """Seeded blob workload: data, fairness graph, and held-out eval rows."""
    data = simulate_blobs(400, n_features=6, seed=5)
    w_fair = between_group_quantile_graph(
        data.side_information, data.s, n_quantiles=6
    )
    rng = np.random.default_rng(9)
    X_eval = data.X[rng.choice(data.X.shape[0], 120, replace=False)]
    return data.X, w_fair, X_eval


class TestSelectLandmarks:
    def test_sorted_unique_indices(self, rng):
        X = rng.normal(size=(50, 4))
        for strategy in LANDMARK_STRATEGIES:
            indices = select_landmarks(X, 12, strategy=strategy, seed=3)
            assert indices.shape == (12,)
            assert (np.diff(indices) > 0).all()  # sorted and unique
            assert indices.min() >= 0 and indices.max() < 50

    def test_m_equals_n_selects_every_row(self, rng):
        X = rng.normal(size=(30, 3))
        for strategy in LANDMARK_STRATEGIES:
            indices = select_landmarks(X, 30, strategy=strategy, seed=0)
            np.testing.assert_array_equal(indices, np.arange(30))

    def test_deterministic_in_seed(self, rng):
        X = rng.normal(size=(60, 5))
        for strategy in LANDMARK_STRATEGIES:
            a = select_landmarks(X, 15, strategy=strategy, seed=7)
            b = select_landmarks(X, 15, strategy=strategy, seed=7)
            np.testing.assert_array_equal(a, b)

    def test_duplicate_points_still_complete(self):
        # Every row identical: D² mass hits zero and selection must fall
        # back to uniform over the unchosen rows instead of looping.
        X = np.ones((20, 3))
        for strategy in ("kmeans++", "farthest"):
            indices = select_landmarks(X, 8, strategy=strategy, seed=1)
            assert len(np.unique(indices)) == 8

    def test_exclude_columns_drive_selection(self, rng):
        # With all signal in column 0 and column 0 excluded, farthest-point
        # selection on the remaining constant columns degenerates — it must
        # still return a valid index set.
        X = np.column_stack([rng.normal(size=40) * 100, np.ones(40), np.ones(40)])
        indices = select_landmarks(X, 10, strategy="farthest", seed=0, exclude=[0])
        assert len(np.unique(indices)) == 10

    def test_validation(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(ValidationError):
            select_landmarks(X, 1)
        with pytest.raises(ValidationError):
            select_landmarks(X, 11)
        with pytest.raises(ValidationError):
            select_landmarks(X, 5, strategy="magic")


def _sq_distances(view, center):
    delta = view - center[None, :]
    return np.einsum("ij,ij->i", delta, delta)


def _seed_starting_at_row_0(n_rows):
    """A seed whose first landmark among ``n_rows`` rows is row 0."""
    return next(s for s in range(1000)
                if np.random.default_rng(s).integers(n_rows) == 0)


def full_rescan_landmarks(X, n_landmarks, *, strategy, seed, exclude=None):
    """Reference selection: every new landmark rescans all n rows.

    This is the loop ``select_landmarks`` ran before it skipped rows by the
    triangle inequality; the pruned loop must return the same indices.
    """
    view = _distance_view(np.asarray(X, dtype=np.float64), exclude)
    n = view.shape[0]
    rng = np.random.default_rng(seed)
    chosen = np.empty(n_landmarks, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    d2 = _sq_distances(view, view[chosen[0]])
    for i in range(1, n_landmarks):
        total = float(d2.sum())
        if total <= 0.0:
            remaining = np.setdiff1d(np.arange(n), chosen[:i])
            chosen[i:] = rng.choice(
                remaining, size=n_landmarks - i, replace=False
            )
            break
        if strategy == "kmeans++":
            next_index = int(rng.choice(n, p=d2 / total))
        else:
            next_index = int(np.argmax(d2))
        chosen[i] = next_index
        np.minimum(d2, _sq_distances(view, view[next_index]), out=d2)
    return np.sort(chosen)


@st.composite
def selection_problems(draw):
    """Small selection inputs, biased toward ties, duplicates and extremes."""
    n = draw(st.integers(3, 40))
    n_features = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    if dtype is np.float64:
        scale = draw(st.sampled_from([1e-160, 1e-150, 1.0, 1e150]))
    else:
        scale = draw(st.sampled_from([1e-18, 1.0, 1e18]))
    shape = draw(st.sampled_from(["gaussian", "grid", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(n, n_features))
    if shape == "grid":
        base = np.round(base * 2.0) / 2.0
    elif shape == "duplicates":
        distinct = draw(st.integers(1, 3))
        base = base[rng.integers(0, distinct, size=n)]
    X = (base * scale).astype(dtype)
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    exclude = [0] if n_features > 1 and draw(st.booleans()) else None
    return {
        "X": X,
        "n_landmarks": draw(st.integers(2, n - 1)),
        "strategy": draw(st.sampled_from(["kmeans++", "farthest"])),
        "seed": draw(st.integers(0, 1000)),
        "exclude": exclude,
    }


def _midpoint_trap(scale, spread, margin, n_features):
    """Rows where only rounding says whether landmark c is closer than a.

    Started at row 0 (``a``), farthest-point selection takes row 1
    (``c``) and, with d2 exact, row 3 (``y``) third. Row 2 (``x``) sits
    near the midpoint of a and c:
    its computed ``|c - a|² · margin / 4`` exceeds its computed
    ``|x - a|²``, yet its computed ``|x - c|²`` is smaller still. A bound
    that trusts those rounded values skips x, keeps its stale, larger d2
    and picks x third instead of y.
    """
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a, c = rng.normal(size=(2, n_features)) * scale
        cc = _sq_distances(a[None, :], c)[0]
        step = spread * np.sqrt(cc)
        xs = (a + c) / 2 + step * rng.normal(size=(500, n_features))
        da, dc = _sq_distances(xs, a), _sq_distances(xs, c)
        for k in np.flatnonzero((cc * (0.25 * margin) > da) & (dc < da)):
            # y: a moved along one axis, so a stays its nearest landmark,
            # with d2 strictly between x's exact and stale values.
            ys = np.tile(a, (65, 1))
            ys[:, 0] += np.sqrt(np.linspace(dc[k], da[k], 67)[1:-1])
            ya, yc = _sq_distances(ys, a), _sq_distances(ys, c)
            between = np.flatnonzero((ya <= yc) & (ya > dc[k]) & (ya < da[k]))
            if between.size:
                return np.vstack([a, c, xs[k], ys[between[0]]])
    raise AssertionError("no rounding-decided row near any midpoint")


class TestPrunedSelectionParity:
    """The pruned loop returns exactly the full-rescan reference indices."""

    @settings(max_examples=200, deadline=None)
    @given(selection_problems())
    def test_matches_full_rescan(self, problem):
        expected = full_rescan_landmarks(**problem)
        np.testing.assert_array_equal(select_landmarks(**problem), expected)

    @pytest.mark.parametrize("strategy", ["kmeans++", "farthest"])
    def test_matches_full_rescan_on_blobs(self, strategy):
        X = simulate_blobs(3000, n_features=8, seed=2).X
        for m in (2, 150, 2999):
            np.testing.assert_array_equal(
                select_landmarks(X, m, strategy=strategy, seed=4),
                full_rescan_landmarks(X, m, strategy=strategy, seed=4),
            )

    @pytest.mark.parametrize(
        "scale, spread, margin, n_features",
        [(1.0, 1e-15, 1.0, 8), (2e-162, 0.03, 0.96, 16)],
        ids=["rounding", "underflow"],
    )
    def test_midpoint_rows_are_remeasured(
        self, scale, spread, margin, n_features
    ):
        # "rounding" needs the slack factor; "underflow" (subnormal squared
        # deltas, far beyond any relative slack) needs the small-cc floor.
        X = _midpoint_trap(scale, spread, margin, n_features)
        seed = _seed_starting_at_row_0(4)
        expected = full_rescan_landmarks(X, 3, strategy="farthest", seed=seed)
        np.testing.assert_array_equal(expected, [0, 1, 3])
        np.testing.assert_array_equal(
            select_landmarks(X, 3, strategy="farthest", seed=seed), expected
        )

    def test_memory_layout_keeps_rescan_rounding(self):
        # Rows 2 and 3 sit at the same exact distance from landmark 1 (one
        # offset permutes the other), and numpy rounds C- and F-ordered
        # rows' sums differently, which decides the farthest row. Each
        # layout must reproduce its own rescan.
        rng = np.random.default_rng(0)
        for _ in range(1000):
            v = rng.normal(size=8)
            offsets = np.vstack([v, rng.permutation(v)])
            if np.argmax(_sq_distances(offsets, np.zeros(8))) != np.argmax(
                _sq_distances(np.asfortranarray(offsets), np.zeros(8))
            ):
                break
        else:
            raise AssertionError("no layout-dependent rounding found")
        toward = offsets.sum(axis=0) / np.linalg.norm(offsets.sum(axis=0))
        X = np.vstack([100.0 * toward, np.zeros(8), offsets])
        seed = _seed_starting_at_row_0(4)
        picks = []
        for layout in (np.ascontiguousarray, np.asfortranarray):
            expected = full_rescan_landmarks(
                layout(X), 3, strategy="farthest", seed=seed
            )
            np.testing.assert_array_equal(
                select_landmarks(layout(X), 3, strategy="farthest", seed=seed),
                expected,
            )
            picks.append(expected[-1])
        assert picks[0] != picks[1]

    def test_overflowing_distances(self):
        # |c - a|² overflows to inf, yet c is closer to x than a is: the
        # bound must treat inf as "at least float max", not skip x.
        X = np.array([[0.0], [2e154], [1.1e154], [-1e154]])
        seed = _seed_starting_at_row_0(4)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = full_rescan_landmarks(
                X, 3, strategy="farthest", seed=seed
            )
            np.testing.assert_array_equal(expected, [0, 1, 3])
            np.testing.assert_array_equal(
                select_landmarks(X, 3, strategy="farthest", seed=seed),
                expected,
            )
            with pytest.raises(ValueError):
                full_rescan_landmarks(X, 3, strategy="kmeans++", seed=seed)
            with pytest.raises(ValidationError, match="overflow"):
                select_landmarks(X, 3, strategy="kmeans++", seed=seed)

    def test_d2_draw_matches_generator_choice(self):
        weights = np.random.default_rng(3).exponential(size=(500, 64))
        weights[:, ::5] = 0.0  # zero-mass rows are never drawn
        ours, numpy_rng = np.random.default_rng(11), np.random.default_rng(11)
        for d2 in weights:
            total = float(d2.sum())
            assert _d2_draw(ours, d2, total) == int(
                numpy_rng.choice(d2.size, p=d2 / total)
            )
        assert ours.bit_generator.state == numpy_rng.bit_generator.state

    def test_counters_record_pruning(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            X = simulate_blobs(2000, n_features=6, seed=0).X
            for strategy in ("kmeans++", "farthest"):
                select_landmarks(X, 100, strategy=strategy, seed=0)
        finally:
            set_registry(previous)
        for strategy in ("kmeans++", "farthest"):
            evaluated = registry.counter_value(
                "landmarks.rows_evaluated", strategy=strategy
            )
            scanned = registry.counter_value(
                "landmarks.rows_scanned", strategy=strategy
            )
            assert 0 < evaluated <= scanned
            assert scanned == 2000 * 99


class TestLandmarkSeedDigest:
    """The landmarks stage digest depends on the seed's value, not its type."""

    def test_equal_seeds_share_a_digest(self, blob_problem):
        X, w_fair, _ = blob_problem
        fits = [
            PFR(extension="nystrom", landmarks=50, landmark_seed=seed).fit(
                X, w_fair
            )
            for seed in (1, True, np.int64(1), np.uint8(1))
        ]
        for model in fits[1:]:
            np.testing.assert_array_equal(
                model.landmark_indices_, fits[0].landmark_indices_
            )
            assert model.plan_digests_ == fits[0].plan_digests_

    def test_python_int_digest_is_unchanged(self, blob_problem):
        X, w_fair, _ = blob_problem
        plan = LandmarkPlan.for_estimator(
            PFR(extension="nystrom", landmarks=50, landmark_seed=7), X, w_fair
        )
        assert plan.seed == 7 and type(plan.seed) is int
        assert plan._landmark_digest == _stage_digest(
            "landmarks",
            {"n_landmarks": 50, "strategy": "kmeans++", "seed": "7",
             "n_total": X.shape[0]},
            {"X": X, "indices": plan.indices_},
        )

    @pytest.mark.parametrize(
        "seed",
        [None, 1.0, "1", np.random.default_rng(0)],
        ids=["none", "float", "str", "generator"],
    )
    def test_non_integer_seed_rejected(self, blob_problem, seed):
        X, w_fair, _ = blob_problem
        with pytest.raises(ValidationError, match="landmark seed"):
            PFR(extension="nystrom", landmarks=50, landmark_seed=seed).fit(
                X, w_fair
            )

    def test_select_landmarks_still_takes_a_generator(self, rng):
        X = rng.normal(size=(40, 3))
        np.testing.assert_array_equal(
            select_landmarks(X, 6, seed=np.random.default_rng(5)),
            select_landmarks(X, 6, seed=5),
        )


class TestParityAtFullBudget:
    """m = n landmark fits must equal the exact solve to 1e-8."""

    @pytest.mark.parametrize("strategy", LANDMARK_STRATEGIES)
    def test_pfr_m_equals_n(self, blob_problem, strategy):
        X, w_fair, X_eval = blob_problem
        exact = PFR(n_components=3, gamma=0.5).fit(X, w_fair)
        landmark = PFR(
            n_components=3,
            gamma=0.5,
            extension="nystrom",
            landmarks=X.shape[0],
            landmark_strategy=strategy,
        ).fit(X, w_fair)
        np.testing.assert_allclose(
            landmark.components_, exact.components_, atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            landmark.eigenvalues_, exact.eigenvalues_, atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            landmark.transform(X_eval), exact.transform(X_eval), atol=PARITY_TOL
        )

    def test_kernel_pfr_m_equals_n(self, blob_problem):
        X, w_fair, X_eval = blob_problem
        exact = KernelPFR(n_components=3, gamma=0.5).fit(X, w_fair)
        landmark = KernelPFR(
            n_components=3,
            gamma=0.5,
            extension="nystrom",
            landmarks=X.shape[0],
        ).fit(X, w_fair)
        np.testing.assert_allclose(
            landmark.alphas_, exact.alphas_, atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            landmark.transform(X_eval), exact.transform(X_eval), atol=PARITY_TOL
        )

    def test_landmarks_above_n_clamp_to_exact(self, blob_problem):
        X, w_fair, _ = blob_problem
        exact = PFR(n_components=2, gamma=0.3).fit(X, w_fair)
        clamped = PFR(
            n_components=2, gamma=0.3, extension="nystrom", landmarks=10**6
        ).fit(X, w_fair)
        np.testing.assert_allclose(
            clamped.components_, exact.components_, atol=PARITY_TOL
        )

    def test_full_budget_shares_stage_digests_with_exact(self, blob_problem):
        # Same landmark rows ⇒ byte-identical graph inputs ⇒ the downstream
        # digest chain must coincide with the exact plan's.
        X, w_fair, _ = blob_problem
        exact = PFR(n_components=2).fit(X, w_fair)
        landmark = PFR(
            n_components=2, extension="nystrom", landmarks=X.shape[0]
        ).fit(X, w_fair)
        assert "landmarks" in landmark.plan_digests_
        for stage in ("graph", "laplacian", "projection", "solve"):
            assert landmark.plan_digests_[stage] == exact.plan_digests_[stage]


class TestFidelityMonotone:
    """Aligned-cosine fidelity must improve with the landmark budget."""

    BUDGETS = (10, 25, 60, 150, 400)

    def _fidelity_curve(self, cls, blob_problem):
        X, w_fair, X_eval = blob_problem
        exact = cls(n_components=3, gamma=0.5).fit(X, w_fair)
        Z_ref = exact.transform(X_eval)
        curve = []
        for m in self.BUDGETS:
            model = cls(
                n_components=3,
                gamma=0.5,
                extension="nystrom",
                landmarks=m,
                landmark_strategy="kmeans++",
                landmark_seed=0,
            ).fit(X, w_fair)
            curve.append(embedding_fidelity(Z_ref, model.transform(X_eval)))
        return curve

    @pytest.mark.parametrize("cls", [PFR, KernelPFR], ids=lambda c: c.__name__)
    def test_monotone_and_converges_to_one(self, cls, blob_problem):
        curve = self._fidelity_curve(cls, blob_problem)
        assert all(b > a for a, b in zip(curve, curve[1:])), curve
        assert curve[-1] > 1.0 - PARITY_TOL  # m = n is the exact solve
        assert curve[0] > 0.5  # even 10 landmarks beat noise


class TestLandmarkPlan:
    def test_sweep_reuses_subplan_solves(self, blob_problem):
        X, w_fair, _ = blob_problem
        template = PFR(n_components=3, extension="nystrom", landmarks=80)
        plan = LandmarkPlan.for_estimator(template, X, w_fair)
        swept = []
        for gamma in (0.0, 0.5, 1.0):
            model = PFR(
                n_components=3, gamma=gamma, extension="nystrom", landmarks=80
            )
            plan.fit(model)
            swept.append(model)
        for model in swept:
            fresh = PFR(
                n_components=3,
                gamma=model.gamma,
                extension="nystrom",
                landmarks=80,
            ).fit(X, w_fair)
            np.testing.assert_allclose(
                model.components_, fresh.components_, atol=PARITY_TOL
            )

    def test_fit_path_with_landmark_template(self, blob_problem):
        X, w_fair, _ = blob_problem
        template = PFR(n_components=3, extension="nystrom", landmarks=60)
        models = fit_path(X, w_fair, gammas=[0.0, 1.0], estimator=template)
        assert len(models) == 2
        for model in models:
            assert model.landmark_indices_ is not None
            assert model.landmark_indices_.shape == (60,)
            assert "landmarks" in model.plan_digests_

    def test_plan_for_estimator_dispatch(self, blob_problem):
        X, w_fair, _ = blob_problem
        exact_plan = plan_for_estimator(PFR(), X, w_fair)
        assert isinstance(exact_plan, SpectralFitPlan)
        landmark_plan = plan_for_estimator(
            PFR(extension="nystrom", landmarks=50), X, w_fair
        )
        assert isinstance(landmark_plan, LandmarkPlan)

    def test_exact_plan_rejects_nystrom_estimator(self, blob_problem):
        X, w_fair, _ = blob_problem
        plan = SpectralFitPlan.for_estimator(PFR(), X, w_fair)
        with pytest.raises(ValidationError, match="LandmarkPlan"):
            plan.fit(PFR(extension="nystrom", landmarks=50))

    def test_landmark_plan_rejects_mismatched_estimator(self, blob_problem):
        X, w_fair, _ = blob_problem
        plan = LandmarkPlan.for_estimator(
            PFR(extension="nystrom", landmarks=50), X, w_fair
        )
        with pytest.raises(ValidationError, match="landmarks"):
            plan.fit(PFR(extension="nystrom", landmarks=40))
        with pytest.raises(ValidationError, match="nystrom"):
            plan.fit(PFR())

    def test_extension_validation(self, blob_problem):
        X, w_fair, _ = blob_problem
        with pytest.raises(ValidationError, match="extension"):
            PFR(extension="approximate").fit(X, w_fair)
        with pytest.raises(ValidationError, match="landmarks"):
            PFR(extension="nystrom").fit(X, w_fair)
        with pytest.raises(ValidationError, match="strategy"):
            PFR(
                extension="nystrom", landmarks=20, landmark_strategy="magic"
            ).fit(X, w_fair)

    def test_kernel_components_capacity_is_landmark_count(self, blob_problem):
        X, w_fair, _ = blob_problem
        with pytest.raises(ValidationError, match="n_components"):
            KernelPFR(
                n_components=30, extension="nystrom", landmarks=20
            ).fit(X, w_fair)

    def test_extend_matches_landmark_embedding_shape(self, blob_problem):
        X, w_fair, X_eval = blob_problem
        plan = LandmarkPlan.for_estimator(
            PFR(n_components=3, extension="nystrom", landmarks=80), X, w_fair
        )
        Z = plan.extend(X_eval, gamma=0.5, d=3)
        assert Z.shape == (X_eval.shape[0], 3)
        assert np.isfinite(Z).all()
        with pytest.raises(ValidationError, match="gamma and d"):
            plan.extend(X_eval)


class TestNystromExtend:
    def test_weighted_average_stays_in_convex_hull(self, rng):
        X_landmarks = rng.normal(size=(30, 4))
        Z_landmarks = rng.normal(size=(30, 2))
        Z = nystrom_extend(
            rng.normal(size=(12, 4)), X_landmarks, Z_landmarks, n_neighbors=5
        )
        assert Z.shape == (12, 2)
        assert Z.min() >= Z_landmarks.min() - 1e-12
        assert Z.max() <= Z_landmarks.max() + 1e-12

    def test_far_query_falls_back_to_nearest_landmark(self, rng):
        # A query so far away that every heat-kernel weight underflows must
        # land on its single nearest landmark, not on a zero vector.
        X_landmarks = rng.normal(size=(10, 3))
        Z_landmarks = rng.normal(size=(10, 2))
        far = np.full((1, 3), 1e6)
        Z = nystrom_extend(far, X_landmarks, Z_landmarks, n_neighbors=4)
        nearest = np.argmin(np.sum((X_landmarks - far) ** 2, axis=1))
        np.testing.assert_allclose(Z[0], Z_landmarks[nearest])

    def test_shape_validation(self, rng):
        with pytest.raises(ValidationError, match="Z_landmarks"):
            nystrom_extend(
                rng.normal(size=(5, 3)),
                rng.normal(size=(10, 3)),
                rng.normal(size=(9, 2)),
            )


class TestPersistence:
    @pytest.mark.parametrize("cls", [PFR, KernelPFR], ids=lambda c: c.__name__)
    def test_landmark_model_round_trips(self, cls, blob_problem, tmp_path):
        X, w_fair, X_eval = blob_problem
        model = cls(
            n_components=2, gamma=0.4, extension="nystrom", landmarks=60
        ).fit(X, w_fair)
        loaded = load_model(save_model(model, tmp_path / "landmark"))
        assert loaded.extension == "nystrom"
        assert loaded.landmarks == 60
        np.testing.assert_array_equal(
            loaded.landmark_indices_, model.landmark_indices_
        )
        assert loaded.plan_digests_ == model.plan_digests_
        np.testing.assert_allclose(
            loaded.transform(X_eval), model.transform(X_eval), atol=1e-12
        )

    def test_exact_model_keeps_none_landmarks(self, blob_problem, tmp_path):
        X, w_fair, _ = blob_problem
        model = PFR(n_components=2).fit(X, w_fair)
        loaded = load_model(save_model(model, tmp_path / "exact"))
        assert loaded.landmark_indices_ is None


class TestRowAgreement:
    def test_identical_embeddings_score_one(self, rng):
        Z = rng.normal(size=(20, 3))
        np.testing.assert_allclose(row_agreement(Z, Z), 1.0, atol=1e-12)

    def test_scale_mismatch_collapses_the_score(self, rng):
        # Pure cosine is scale-blind; the norm-ratio factor is what makes
        # the drift signal catch mean-shifted rows whose parametric image
        # leaves the landmark hull with an inflated norm.
        Z = rng.normal(size=(20, 3))
        scores = row_agreement(Z, 10.0 * Z)
        np.testing.assert_allclose(scores, 0.1, atol=1e-12)

    def test_zero_rows_do_not_blow_up(self):
        Z = np.zeros((3, 2))
        assert np.isfinite(row_agreement(Z, Z)).all()


class TestStreamingExtend:
    """The lifecycle half of extend(): append, score, warm-start refresh."""

    @pytest.fixture(scope="class")
    def fitted_plan_setup(self):
        data = simulate_blobs(300, n_features=5, seed=11)
        w_fair = between_group_quantile_graph(
            data.side_information, data.s, n_quantiles=6
        )
        estimator = PFR(
            n_components=3, gamma=0.5, extension="nystrom", landmarks=80
        )
        plan = LandmarkPlan.for_estimator(estimator, data.X, w_fair)
        plan.fit(estimator)
        rng = np.random.default_rng(13)
        in_dist = data.X[rng.choice(data.X.shape[0], 60, replace=False)]
        drifted = in_dist + 6.0
        return plan, estimator, in_dist, drifted

    def test_unfitted_plan_rejects_lifecycle_extend(self, blob_problem):
        X, w_fair, X_eval = blob_problem
        plan = LandmarkPlan.for_estimator(
            PFR(n_components=2, extension="nystrom", landmarks=40), X, w_fair
        )
        with pytest.raises(ValidationError, match="fitted operating point"):
            plan.extend(X_eval)

    def test_scores_discriminate_drift(self, fitted_plan_setup):
        plan, _, in_dist, drifted = fitted_plan_setup
        assert np.mean(plan.score_rows(in_dist)) > np.mean(
            plan.score_rows(drifted)
        ) + 0.2

    def test_extend_buffers_and_reports(self, fitted_plan_setup):
        plan, _, in_dist, drifted = fitted_plan_setup
        before = plan.n_pending
        ext = plan.extend(in_dist[:10], refresh="never")
        assert isinstance(ext, PlanExtension)
        assert ext.plan is plan and not ext.refreshed
        assert ext.scores.shape == (10,)
        assert plan.n_pending == before + 10
        assert ext.n_pending == plan.n_pending
        # Baseline quantiles come from the fit-time distribution.
        assert 0.0 < ext.baseline["p05"] <= 1.0

    def test_refresh_folds_pending_into_child(self, fitted_plan_setup):
        plan, estimator, _, drifted = fitted_plan_setup
        pending_before = plan.n_pending
        plan.extend(drifted, refresh="never")
        child = plan.refresh()
        assert plan.n_pending == 0  # buffer consumed
        q = pending_before + drifted.shape[0]
        assert child.X.shape[0] == plan.X.shape[0] + q
        assert child.n_landmarks > plan.n_landmarks
        assert child.parent is plan
        # New landmarks come from the pending rows only.
        new_indices = child.indices_[len(plan.indices_):]
        assert (new_indices >= plan.X.shape[0]).all()
        # The child fits a re-budgeted clone and serves unseen rows.
        refit = PFR(
            n_components=3, gamma=0.5, extension="nystrom",
            landmarks=child.n_landmarks,
        )
        child.fit(refit)
        Z = refit.transform(drifted[:5])
        assert Z.shape == (5, 3) and np.isfinite(Z).all()
        # The once-drifted region scores in-distribution under the child.
        assert np.mean(child.score_rows(drifted)) > np.mean(
            plan.score_rows(drifted)
        )

    def test_child_digests_chain_off_parent(self, fitted_plan_setup):
        plan, _, in_dist, _ = fitted_plan_setup
        plan.extend(in_dist, refresh="never")
        child = plan.refresh()
        parent_digests = plan.stage_digests()
        child_digests = child.stage_digests()
        assert "extend" not in parent_digests  # roots emit legacy keys only
        assert "extend" in child_digests
        assert child_digests["landmarks"] != parent_digests["landmarks"]

    def test_extend_leaves_parent_digests_untouched(self, blob_problem):
        # Acceptance: with the refresh feature unused (or merely buffering),
        # existing stage digests stay byte-identical.
        X, w_fair, X_eval = blob_problem
        estimator = PFR(n_components=2, extension="nystrom", landmarks=40)
        plan = LandmarkPlan.for_estimator(estimator, X, w_fair)
        plan.fit(estimator)
        before = dict(plan.stage_digests())
        plan.extend(X_eval, refresh="never")
        assert plan.stage_digests() == before

    def test_refresh_without_pending_raises(self, blob_problem):
        X, w_fair, _ = blob_problem
        plan = LandmarkPlan.for_estimator(
            PFR(n_components=2, extension="nystrom", landmarks=40), X, w_fair
        )
        with pytest.raises(ValidationError, match="no pending rows"):
            plan.refresh()

    def test_refresh_always_mode_returns_child(self, fitted_plan_setup):
        plan, _, in_dist, _ = fitted_plan_setup
        ext = plan.extend(in_dist[:8], refresh="always")
        assert ext.refreshed and ext.plan is not plan
        assert ext.n_pending == 0

    def test_w_fair_new_rides_along(self, fitted_plan_setup):
        plan, _, _, drifted = fitted_plan_setup
        q = drifted.shape[0]
        w_new = np.zeros((q, q))
        w_new[0, 1] = w_new[1, 0] = 1.0
        ext = plan.extend(drifted, w_fair_new=w_new, refresh="never")
        assert ext.plan.n_pending >= q
        child = plan.refresh()
        assert child.subplan.w_fair.shape[0] == child.n_landmarks

    def test_w_fair_new_shape_mismatch_raises(self, fitted_plan_setup):
        plan, _, in_dist, _ = fitted_plan_setup
        with pytest.raises(ValidationError, match="w_fair_new"):
            plan.extend(in_dist, w_fair_new=np.zeros((3, 3)), refresh="never")

    def test_invalid_refresh_mode_raises(self, fitted_plan_setup):
        plan, _, in_dist, _ = fitted_plan_setup
        with pytest.raises(ValidationError, match="refresh"):
            plan.extend(in_dist, refresh="sometimes")


class TestStreamingRegressions:
    """Edge cases the streaming layer flushed out (ISSUE 9 satellite b)."""

    def test_select_landmarks_rejects_non_integer(self, rng):
        X = rng.normal(size=(20, 3))
        with pytest.raises(ValidationError, match="integer"):
            select_landmarks(X, 7.5)

    def test_select_landmarks_rejects_m_over_n(self, rng):
        X = rng.normal(size=(20, 3))
        with pytest.raises(ValidationError, match=r"\[2, n=20\]"):
            select_landmarks(X, 21)
        with pytest.raises(ValidationError, match=r"\[2, n=20\]"):
            select_landmarks(X, 1)

    def test_nystrom_extend_rejects_empty_batch(self, rng):
        with pytest.raises(ValidationError, match="X_new"):
            nystrom_extend(
                np.empty((0, 3)),
                rng.normal(size=(10, 3)),
                rng.normal(size=(10, 2)),
            )

    def test_nystrom_extend_single_landmark_needs_bandwidth(self, rng):
        X_landmarks = rng.normal(size=(1, 3))
        Z_landmarks = rng.normal(size=(1, 2))
        with pytest.raises(ValidationError, match="bandwidth"):
            nystrom_extend(rng.normal(size=(4, 3)), X_landmarks, Z_landmarks)
        # With an explicit bandwidth the degenerate case is well-defined:
        # every query lands on the lone landmark's embedding.
        Z = nystrom_extend(
            rng.normal(size=(4, 3)), X_landmarks, Z_landmarks, bandwidth=1.0
        )
        np.testing.assert_allclose(Z, np.repeat(Z_landmarks, 4, axis=0))

    def test_extend_rejects_zero_row_batch(self, blob_problem):
        X, w_fair, _ = blob_problem
        estimator = PFR(n_components=2, extension="nystrom", landmarks=40)
        plan = LandmarkPlan.for_estimator(estimator, X, w_fair)
        plan.fit(estimator)
        with pytest.raises(ValidationError, match="X_new"):
            plan.extend(np.empty((0, X.shape[1])), refresh="never")

    def test_extend_rejects_feature_mismatch(self, blob_problem):
        X, w_fair, _ = blob_problem
        estimator = PFR(n_components=2, extension="nystrom", landmarks=40)
        plan = LandmarkPlan.for_estimator(estimator, X, w_fair)
        plan.fit(estimator)
        with pytest.raises(ValidationError, match="features"):
            plan.extend(np.zeros((4, X.shape[1] + 1)), refresh="never")
