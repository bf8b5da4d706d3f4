"""Experiment harness implementing the paper's protocol (§4.1).

For every workload the harness:

1. splits the data into train and test (stratified on the label),
2. standardizes features on the training statistics,
3. builds the fairness graph ``WF`` from the workload's side information —
   quantile graph for synthetic/COMPAS, equivalence-class graph for Crime,
4. learns each representation on the *training* rows only,
5. trains an out-of-the-box logistic regression on the representation,
6. evaluates on the untouched test set: AUC, Consistency(``WX``),
   Consistency(``WF``), and per-group positive/error rates.

The paper tunes hyper-parameters with 5-fold grid search on the training
set; :meth:`ExperimentHarness.tune` exposes that machinery, while the
figure drivers use the paper's reported operating points by default to
keep regeneration fast and deterministic.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

import numpy as np

from ..baselines import (
    EqualizedOddsPostProcessor,
    IFair,
    LFR,
    MaskedRepresentation,
    SideInformationAugmenter,
)
from ..core import PFR, plan_for_estimator
from ..datasets.base import Dataset
from ..exceptions import ValidationError
from ..graphs import knn_graph
from ..metrics import consistency, group_auc, group_rates, restrict_graph
from ..metrics.group import GroupRates
from ..ml import (
    LogisticRegression,
    StandardScaler,
    roc_auc_score,
    train_test_split,
)
from ..ml.model_selection import ParameterGrid, StratifiedKFold
from ..obs.trace import span, trace_enabled
from .parallel import get_executor

__all__ = [
    "MethodResult",
    "ExperimentHarness",
    "cell_task",
    "run_cells",
    "within_group_ranking_scores",
]


def cell_task(
    harness_fingerprint: dict, method: str, gamma, C, method_params: dict
) -> dict:
    """Canonical run-ledger task descriptor of one ``run_method`` cell.

    The single definition of a cell's identity, shared by the harness
    (read/write-through) and the spec runner (pre-dispatch skip) — the
    two must agree byte-for-byte or cache hits silently stop happening.
    """
    return {
        "kind": "method_result",
        "harness": harness_fingerprint,
        "method": str(method),
        "gamma": float(gamma),
        "C": float(C),
        "params": method_params,
    }


def _ledger_fetch(ledger, digest: str):
    """A ledger entry that must exist after dispatch; raise clearly if not.

    The only way it can be missing is external interference (a concurrent
    ``repro store gc``, manual deletion) between the worker's write-through
    and the parent's read-back.
    """
    entry = ledger.get(digest)
    if entry is None:
        raise ValidationError(
            f"ledger entry {digest[:12]}… vanished from {ledger.root} "
            "between computation and read-back (concurrent gc or external "
            "deletion?); re-run to recompute the missing cells"
        )
    return entry


def _dispatch(fn, groups, *, state, workers=None, ledger=None, digests=None,
              stored=None) -> list:
    """Map ``fn(state, (head, items))`` over groups: the one skip/dispatch/
    read-back path of every fan-out.

    Without a ledger this is a plain executor map and returns ``fn``'s
    per-group result lists. With one, ``digests`` holds each item's task
    digest; items already ``stored`` (default: probed with
    :meth:`~repro.store.RunLedger.contains`) are dropped before dispatch,
    groups left empty are not dispatched at all, and the per-group lists
    of ledger entries are returned instead — so cold, warm, resumed and
    parallel runs all read back the identical bytes.
    """
    executor = get_executor(workers)
    if ledger is None:
        return executor.map(fn, groups, state=state)
    if stored is None:
        stored = {d for ds in digests for d in ds if ledger.contains(d)}
    pending = []
    for (head, items), ds in zip(groups, digests):
        missing = [item for item, d in zip(items, ds) if d not in stored]
        if missing:
            pending.append((head, missing))
    executor.map(fn, pending, state=state)
    return [[_ledger_fetch(ledger, d) for d in ds] for ds in digests]


# -- the cell executor ------------------------------------------------------
#
# Every number of §4 is one *cell*: a dataset slice evaluated for one method
# at one γ. A task is a group of cells on one slice, ``((seed, source),
# [(method, gamma, C, params, digest), ...])``; each fan-out chooses its
# own grouping (repetition one group per seed, everything else one group
# per cell). ``source`` names where the slice's harness comes from:
#
# * ``None`` — the harness shipped in the executor state (``run_methods``
#   and ``gamma_sweep`` fan out over one harness);
# * a :class:`~repro.datasets.Dataset` — built for this group only, so
#   repetition keeps one seed's harness alive at a time;
# * a :class:`~repro.experiments.WorkloadFactory` — rebuilt lazily, once
#   per process, and reused by every later group on the same slice, so run
#   specs ship no data to their workers at all.

def _cell(fingerprint, method, gamma, C, params) -> tuple:
    """One cell; its task digest is computed only when a ledger needs it."""
    from ..store import task_digest

    digest = (
        None if fingerprint is None
        else task_digest(cell_task(fingerprint, method, gamma, C, params))
    )
    return (method, gamma, C, params, digest)


def _slice_harness(state, seed, source):
    if source is None:
        return state["harness"]
    if isinstance(source, Dataset):
        return ExperimentHarness(source, seed=seed, **state["harness_kwargs"])
    harnesses = state["harnesses"]
    harness = harnesses.get((source, seed))
    if harness is None:
        harness = ExperimentHarness(
            source(seed), seed=seed, **state["harness_kwargs"]
        )
        harnesses[(source, seed)] = harness
    return harness


def _cell_group_task(state, group):
    (seed, source), cells = group
    harness = _slice_harness(state, seed, source)
    traced = state.get("cell_spans") and trace_enabled()
    results = []
    for method, gamma, C, params, digest in cells:
        scope = contextlib.nullcontext()
        if traced:
            # Shard-labeled spans: a merged multi-machine trace stays
            # attributable to the shard that computed each cell.
            shard = {} if state["shard"] is None else {"shard": state["shard"]}
            scope = span(
                "spec.cell", digest=digest, dataset=source.name,
                method=method, gamma=float(gamma), seed=int(seed),
                cached=False, worker=os.getpid(), **shard,
            )
        with scope:
            results.append(harness.run_method(method, gamma=gamma, C=C, **params))
    return results


def run_cells(groups, *, state: dict, workers=None, ledger=None,
              stored=None) -> list:
    """Evaluate cell groups; returns one ``MethodResult`` list per group.

    ``state`` ships once per worker: ``{"harness": h}`` for ``None``
    sources, else ``{"harness_kwargs": {...}}`` plus ``"harnesses": {}``
    for workload-factory slices (and ``"cell_spans"``/``"shard"`` to trace
    each cell as a ``spec.cell`` span). With a ``ledger``, stored cells
    (or the digests in ``stored``) are skipped before dispatch and every
    result is decoded from the ledger.
    """
    if ledger is None:
        return _dispatch(_cell_group_task, groups, state=state, workers=workers)
    from ..store import decode_method_result

    entries = _dispatch(
        _cell_group_task, groups, state=state, workers=workers, ledger=ledger,
        digests=[[cell[-1] for cell in cells] for _, cells in groups],
        stored=stored,
    )
    return [
        [decode_method_result(entry.payload) for entry in group]
        for group in entries
    ]


def _tune_grid_task(state, group):
    harness, method, n_splits, scoring = state
    return [
        harness._score_grid_point(
            method, params, n_splits=n_splits, scoring=scoring
        )
        for params in group[1]
    ]


def within_group_ranking_scores(X, y, s, *, C: float = 1.0) -> np.ndarray:
    """Within-group ranking via per-group logistic regression (§4.2.1).

    The paper simulates human within-group rankings by fitting "a standard
    logistic regression model" and ranking each group by its predicted
    probability. Fitting one model *per group* keeps the ranking a purely
    within-group judgment, immune to between-group score shifts.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    s = np.asarray(s)
    scores = np.empty(len(y), dtype=np.float64)
    for value in np.unique(s):
        members = np.flatnonzero(s == value)
        model = LogisticRegression(C=C).fit(X[members], y[members])
        scores[members] = model.predict_proba(X[members])[:, 1]
    return scores


@dataclass
class MethodResult:
    """Test-set evaluation of one method on one workload.

    Attributes mirror the quantities the paper plots: utility (AUC),
    individual fairness (consistency against ``WX`` and ``WF``), and group
    fairness (per-group positive-prediction and error rates, per-group AUC).
    """

    method: str
    dataset: str
    auc: float
    consistency_wx: float
    consistency_wf: float
    rates: GroupRates
    auc_by_group: dict
    extras: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """Flat dict for tables/benchmarks."""
        return {
            "method": self.method,
            "dataset": self.dataset,
            "auc": round(self.auc, 4),
            "consistency_wx": round(self.consistency_wx, 4),
            "consistency_wf": round(self.consistency_wf, 4),
            "parity_gap": round(self.rates.gap("positive_rate"), 4),
            "fpr_gap": round(self.rates.gap("fpr"), 4),
            "fnr_gap": round(self.rates.gap("fnr"), 4),
        }


class ExperimentHarness:
    """Runs the paper's evaluation protocol on one workload.

    Parameters
    ----------
    dataset:
        A :class:`repro.datasets.Dataset` (synthetic, compas, or crime).
    test_size:
        Held-out fraction (stratified on the label).
    seed:
        Split / method seed; the whole run is a function of it.
    n_quantiles:
        Quantile count for the between-group quantile graph.
    rating_resolution:
        Star-class width for the Crime equivalence-class graph.
    n_neighbors:
        ``p`` of the k-NN data graph ``WX``.
    n_components:
        Latent dimensionality for the representation learners; ``None``
        uses ``max(2, m // 3)`` where ``m`` counts non-protected features.
    landmarks:
        When set, PFR-family methods fit with the landmark-Nyström
        extension on this many landmarks
        (:class:`repro.core.LandmarkPlan`) instead of the exact all-n
        eigenproblem — the switch that lets γ-sweeps run on 100k+-row
        workloads. ``None`` (default) keeps the paper's exact solve.
    landmark_strategy:
        Landmark selection strategy (``"uniform"``, ``"kmeans++"``,
        ``"farthest"``); the harness ``seed`` seeds the selection.
    method_overrides:
        Optional per-method hyper-parameter overrides, e.g.
        ``{"lfr": {"a_z": 1.0}}`` — the stand-in for the per-dataset grid
        search the paper runs (``tune()`` reproduces the search itself).
    store:
        A run-ledger directory or :class:`~repro.store.RunLedger`. When
        set, every ``run_method`` cell and every tuned grid point is
        read-through/written-through the content-addressed ledger: a cell
        whose task digest is already on disk is decoded instead of
        recomputed, so interrupted sweeps resume and extended grids pay
        only their new cells. Results are bitwise identical with or
        without a store, serial or parallel. ``None`` (default) keeps
        everything in memory, as before.
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        test_size: float = 0.3,
        seed: int = 0,
        n_quantiles: int = 10,
        rating_resolution: float = 1.0,
        n_neighbors: int = 10,
        n_components: int | None = None,
        landmarks: int | None = None,
        landmark_strategy: str = "kmeans++",
        method_overrides: dict | None = None,
        store=None,
    ):
        self.dataset = dataset
        self.test_size = test_size
        self.seed = seed
        self.n_quantiles = n_quantiles
        self.rating_resolution = rating_resolution
        self.n_neighbors = n_neighbors
        self.n_components = n_components
        self.landmarks = landmarks
        self.landmark_strategy = landmark_strategy
        self.method_overrides = method_overrides or {}
        self.store = store
        self._prepared = False
        # Staged-fit reuse (repro.core.plan / repro.core.approx): γ-sweeps
        # and repeated run_method calls share one fit plan (Spectral- or
        # LandmarkPlan) per structural configuration, so only the γ-mix +
        # eigensolve re-run per point.
        self._plan_cache: dict = {}
        self._tune_plan_cache: dict = {}

    def __getstate__(self):
        """Pickle without the staged-fit plan caches.

        The caches are pure derived state (rebuildable from the training
        matrix + structural hyper-parameters) and can hold n×n kernel
        matrices, so shipping them to worker processes would dominate the
        fan-out cost. Each worker rebuilds its plans lazily — once per
        (fold, structural-params) key — and then reuses them for every
        task it handles, preserving the sweep amortization per process.
        The ``store`` attribute itself ships (a ledger is just a root
        path), so workers write through to the same on-disk ledger.
        """
        state = self.__dict__.copy()
        state["_plan_cache"] = {}
        state["_tune_plan_cache"] = {}
        return state

    # -- run-ledger plumbing (repro.store) ---------------------------------

    def _ledger(self):
        """The :class:`~repro.store.RunLedger` behind ``store`` (or None)."""
        from ..store import coerce_ledger

        return coerce_ledger(self.store)

    def task_fingerprint(self) -> dict:
        """Canonical descriptor of everything a cell result depends on.

        Covers the dataset *content* (array hashes, not generator
        arguments) and every harness knob that shapes a result. Two
        harnesses with equal fingerprints produce bitwise-identical cells,
        which is what lets the ledger treat the digest as the cache key.
        """
        from ..store import dataset_fingerprint

        return {
            "dataset": dataset_fingerprint(self.dataset),
            "test_size": float(self.test_size),
            "seed": int(self.seed),
            "n_quantiles": int(self.n_quantiles),
            "rating_resolution": float(self.rating_resolution),
            "n_neighbors": int(self.n_neighbors),
            "n_components": self.n_components,
            "landmarks": self.landmarks,
            "landmark_strategy": str(self.landmark_strategy),
            "method_overrides": self.method_overrides,
        }

    # -- data preparation --------------------------------------------------

    def prepare(self) -> "ExperimentHarness":
        """Split, scale, and build every graph the protocol needs."""
        if self._prepared:
            return self
        data = self.dataset
        indices = np.arange(data.n_samples)
        train_idx, test_idx = train_test_split(
            indices, test_size=self.test_size, stratify=data.y, seed=self.seed
        )
        self.train_idx, self.test_idx = train_idx, test_idx

        self.scaler = StandardScaler().fit(data.X[train_idx])
        self.X_train = self.scaler.transform(data.X[train_idx])
        self.X_test = self.scaler.transform(data.X[test_idx])
        self.y_train, self.y_test = data.y[train_idx], data.y[test_idx]
        self.s_train, self.s_test = data.s[train_idx], data.s[test_idx]
        self.protected = list(data.protected_columns)

        self.side_values = self._side_information_scores()
        self.W_fair_full = self._build_fairness_graph()
        self.W_fair_train = restrict_graph(self.W_fair_full, train_idx)
        self.W_fair_test = restrict_graph(self.W_fair_full, test_idx)

        nonprotected = np.setdiff1d(
            np.arange(data.n_features), np.asarray(self.protected)
        )
        self.W_x_test = knn_graph(
            self.X_test[:, nonprotected],
            n_neighbors=min(self.n_neighbors, len(test_idx) - 1),
        )

        m_effective = len(nonprotected)
        if self.n_components is None:
            # Meaningful compression is required for the fairness graph to
            # shape the representation; a third of the feature count (at
            # least 2) matches the regime the paper's grid search lands in.
            self.n_components_ = max(2, m_effective // 3)
        else:
            self.n_components_ = self.n_components
        self._prepared = True
        return self

    def _side_information_scores(self) -> np.ndarray:
        """Per-individual side information (the input behind ``WF``)."""
        from .builders import fairness_side_scores

        return fairness_side_scores(self.dataset, train_indices=self.train_idx)

    def _build_fairness_graph(self):
        """Workload-appropriate ``WF`` over the full population (§4.3.1)."""
        from .builders import build_fairness_graph

        return build_fairness_graph(
            self.dataset,
            n_quantiles=self.n_quantiles,
            rating_resolution=self.rating_resolution,
            scores=self.side_values,
        )

    # -- representations ---------------------------------------------------

    def _augmented(self, X_train, X_test):
        """Apply the "+" augmentation: side values at train, means at test."""
        side_train = self.side_values[self.train_idx]
        augmenter = SideInformationAugmenter(side_information=side_train)
        return (
            augmenter.fit_transform(X_train),
            augmenter.transform(X_test),
        )

    def _representation(self, method: str, *, gamma: float, method_params: dict):
        """Train-representation + test-representation for a method name."""
        augment = method.endswith("+")
        base = method.rstrip("+")
        method_params = {**self.method_overrides.get(base, {}), **method_params}
        X_train, X_test = self.X_train, self.X_test

        if base == "original":
            masker = self._fit_base_estimator(
                base, X_train, gamma=gamma, augment=augment,
                method_params=method_params,
            )
            Z_train = masker.transform(X_train)
            Z_test = masker.transform(X_test)
            if augment:
                Z_train, Z_test = self._augmented(Z_train, Z_test)
            return Z_train, Z_test

        if augment:
            X_train, X_test = self._augmented(X_train, X_test)

        model = self._fit_base_estimator(
            base, X_train, gamma=gamma, augment=augment,
            method_params=method_params,
        )
        return model.transform(X_train), model.transform(X_test)

    def _fit_base_estimator(
        self, base: str, X_train, *, gamma: float, method_params: dict,
        augment: bool = False, fold=None,
    ):
        """Construct and fit the representation estimator for a base method.

        ``X_train`` is the (possibly augmented) training matrix the
        estimator should see; ``method_params`` must already include the
        harness ``method_overrides``. Shared by :meth:`_representation`
        (which then transforms train/test), :meth:`export_model` (which
        persists the fitted estimator into a run ledger) and
        :meth:`_tune_fold`, which passes the CV ``fold`` rows of the
        training split that ``X_train`` holds.
        """
        n_rows = X_train.shape[0]
        if base == "original":
            masker = MaskedRepresentation(protected_columns=self.protected)
            return masker.fit(X_train)

        if base == "pfr":
            # PFR sees the full attribute vector (like iFair/LFR it must
            # *learn* to suppress the protected signal); only the k-NN
            # distances exclude the protected columns, per the paper's
            # definition of WX (§3.1).
            model = PFR(
                n_components=min(self.n_components_, X_train.shape[1]),
                gamma=gamma,
                n_neighbors=min(self.n_neighbors, n_rows - 1),
                exclude_columns=self.protected,
                **{**self._landmark_params(n_rows), **method_params},
            )
            self._plan_fit(model, X_train, base, augment, method_params, fold)
            return model

        if base == "kpfr":
            # Kernelized PFR (§3.3.4) — the paper's future-work extension.
            from ..core import KernelPFR

            params = {"kernel": "rbf", "n_neighbors": self.n_neighbors}
            params.update(self._landmark_params(n_rows))
            params.update(method_params)
            capacity = (
                min(int(params["landmarks"]), n_rows)
                if params.get("extension") == "nystrom"
                else n_rows
            )
            model = KernelPFR(
                n_components=min(self.n_components_, capacity - 1),
                gamma=gamma,
                exclude_columns=self.protected,
                **params,
            )
            self._plan_fit(model, X_train, base, augment, method_params, fold)
            return model

        if base == "ifair":
            params = {"n_prototypes": 10, "max_iter": 100, "seed": self.seed}
            params.update(method_params)
            model = IFair(protected_columns=self.protected, **params)
            return model.fit(X_train)

        if base == "lfr":
            params = {"n_prototypes": 10, "max_iter": 150, "seed": self.seed}
            params.update(method_params)
            rows = slice(None) if fold is None else fold
            model = LFR(**params)
            return model.fit(X_train, self.y_train[rows], s=self.s_train[rows])

        raise ValidationError(
            f"unknown method {base!r}; use original/ifair/lfr/pfr/kpfr "
            "(+ optional '+') or hardt"
        )

    def export_model(self, method: str, *, gamma: float = 0.5, **method_params):
        """Fit a base method's estimator and persist it into the run ledger.

        Returns the :class:`~repro.store.LedgerEntry` whose model blob a
        :meth:`~repro.serving.ModelRegistry.register_from_ledger` call can
        promote straight into serving — the experiment → serving handoff
        is those two calls. Requires a ``store``; only base methods
        (``original``/``pfr``/``kpfr``/``ifair``/``lfr``) are exportable —
        augmented ("+") variants and ``hardt`` are pipelines, not a single
        estimator artifact.
        """
        ledger = self._ledger()
        if ledger is None:
            raise ValidationError(
                "export_model needs a run ledger; construct the harness "
                "with store=..."
            )
        if method.endswith("+") or method.rstrip("+") == "hardt":
            raise ValidationError(
                f"cannot export {method!r}: only base representation methods "
                "(original/pfr/kpfr/ifair/lfr) map to a single estimator "
                "artifact"
            )
        self.prepare()
        merged = {**self.method_overrides.get(method, {}), **method_params}
        task = {
            "kind": "model",
            "harness": self.task_fingerprint(),
            "method": method,
            "gamma": float(gamma),
            "params": merged,
        }
        from ..store import task_digest

        cached = ledger.get(task_digest(task))
        if cached is not None and cached.has_model:
            return cached
        model = self._fit_base_estimator(
            method, self.X_train, gamma=gamma, method_params=merged
        )
        digests = getattr(model, "plan_digests_", None)
        payload = {
            "model_type": type(model).__name__,
            "method": method,
            "gamma": float(gamma),
            "stage_digests": (
                {str(k): str(v) for k, v in digests.items()}
                if isinstance(digests, dict) else {}
            ),
        }
        return ledger.put(task, payload, model=model)

    def _landmark_params(self, n_train: int) -> dict:
        """Landmark-Nyström kwargs for PFR-family models (empty = exact)."""
        if self.landmarks is None:
            return {}
        return {
            "extension": "nystrom",
            "landmarks": min(int(self.landmarks), n_train),
            "landmark_strategy": self.landmark_strategy,
            "landmark_seed": self.seed,
        }

    def _plan_fit(
        self, model, X_train, base, augment, method_params, fold=None
    ) -> None:
        """Fit a PFR-family model through a cached fit plan.

        The plan (graphs, Laplacians, projected objective matrices — and,
        for ``extension="nystrom"`` models, the landmark selection) depends
        only on the training matrix and the structural hyper-parameters, so
        γ-sweeps and repeated ``run_method`` calls on one harness reuse it;
        only the γ-mix and the eigensolve run per call. Exact models get a
        :class:`~repro.core.SpectralFitPlan`, landmark models a
        :class:`~repro.core.LandmarkPlan` (chosen by
        :func:`~repro.core.plan_for_estimator`). A CV ``fold`` plans on
        the fold's rows of ``WF`` and lives in the per-search
        ``_tune_plan_cache``, keyed on the fold rows as well.
        """
        key = (
            base,
            augment,
            repr(sorted(method_params.items())),
            getattr(model, "extension", "exact"),
            getattr(model, "landmarks", None),
        )
        cache, W_fair = self._plan_cache, self.W_fair_train
        if fold is not None:
            key += (np.asarray(fold).tobytes(),)
            cache = self._tune_plan_cache
        plan = cache.get(key)
        if plan is None:
            if fold is not None:
                W_fair = restrict_graph(W_fair, fold)
            plan = plan_for_estimator(model, X_train, W_fair)
            cache[key] = plan
        plan.fit(model)

    # -- evaluation --------------------------------------------------------

    def _evaluate(self, method, y_score, y_pred) -> MethodResult:
        return MethodResult(
            method=method,
            dataset=self.dataset.name,
            auc=roc_auc_score(self.y_test, y_score),
            consistency_wx=consistency(y_pred, self.W_x_test),
            consistency_wf=consistency(y_pred, self.W_fair_test),
            rates=group_rates(self.y_test, y_pred, self.s_test),
            auc_by_group=group_auc(self.y_test, y_score, self.s_test),
        )

    def run_method(
        self, method: str, *, gamma: float = 0.5, C: float = 1.0, **method_params
    ) -> MethodResult:
        """Run one method end-to-end and evaluate on the test set.

        Method names: ``original``, ``ifair``, ``lfr``, ``pfr`` (suffix
        ``+`` adds the side-information augmentation), and ``hardt`` /
        ``hardt+`` (equalized-odds post-processing on the original
        representation).

        With a ``store`` configured, the cell is read-through/written-
        through the run ledger: a digest hit decodes the persisted result
        instead of recomputing, and a miss is persisted the moment it
        completes — so a killed sweep loses at most the cell in flight.
        """
        self.prepare()
        ledger = self._ledger()
        if ledger is None:
            return self._run_method_direct(
                method, gamma=gamma, C=C, method_params=method_params
            )
        from ..store import decode_method_result, encode_method_result

        task = cell_task(self.task_fingerprint(), method, gamma, C, method_params)
        entry = ledger.get_task(task)
        if entry is None:
            result = self._run_method_direct(
                method, gamma=gamma, C=C, method_params=method_params
            )
            entry = ledger.put(task, encode_method_result(result))
        # Decode even freshly-computed cells so every path — cold, warm,
        # resumed, parallel — returns the identical round-tripped object.
        return decode_method_result(entry.payload)

    def _run_method_direct(
        self, method: str, *, gamma: float, C: float, method_params: dict
    ) -> MethodResult:
        """The ledger-free evaluation path (reference semantics)."""
        if method.rstrip("+") == "hardt":
            return self._run_hardt(augment=method.endswith("+"), C=C)

        Z_train, Z_test = self._representation(
            method, gamma=gamma, method_params=method_params
        )
        # Representations come out on arbitrary scales (PFR's embedding
        # columns are unit-norm, i.e. tiny per-sample); standardize so the
        # downstream classifier's regularization and 0.5 threshold behave
        # the same for every method.
        scaler = StandardScaler().fit(Z_train)
        Z_train, Z_test = scaler.transform(Z_train), scaler.transform(Z_test)
        classifier = LogisticRegression(C=C).fit(Z_train, self.y_train)
        y_score = classifier.predict_proba(Z_test)[:, 1]
        y_pred = classifier.predict(Z_test)
        return self._evaluate(method, y_score, y_pred)

    def _run_hardt(self, *, augment: bool, C: float) -> MethodResult:
        """Hardt post-processing on top of the (masked) original predictor."""
        base_name = "original+" if augment else "original"
        Z_train, Z_test = self._representation(
            base_name, gamma=0.0, method_params={}
        )
        classifier = LogisticRegression(C=C).fit(Z_train, self.y_train)
        train_pred = classifier.predict(Z_train)
        post = EqualizedOddsPostProcessor(seed=self.seed).fit(
            self.y_train, train_pred, self.s_train
        )
        test_base = classifier.predict(Z_test)
        y_pred = post.predict(test_base, self.s_test)
        # The derandomized positive-probability is the natural score.
        y_score = post.predict_proba_positive(test_base, self.s_test)
        name = "hardt+" if augment else "hardt"
        result = self._evaluate(name, y_score, y_pred)
        result.extras["expected_error"] = post.expected_error_
        return result

    def _run_cells(self, cells, workers) -> list:
        """Fan ``(method, gamma, C, params)`` cells on this harness out, one
        group per cell, through :func:`run_cells`."""
        ledger = self._ledger()
        fingerprint = self.task_fingerprint() if ledger is not None else None
        groups = [((None, None), [_cell(fingerprint, *cell)]) for cell in cells]
        results = run_cells(
            groups, state={"harness": self}, workers=workers, ledger=ledger
        )
        return [result for (result,) in results]

    def run_methods(
        self, methods, *, gamma: float = 0.5, workers=None, **kwargs
    ) -> dict:
        """Run several methods; returns ``{name: MethodResult}``.

        ``workers`` fans the (independent) methods out across processes —
        ``None`` runs serially, an int / ``"auto"`` / an
        :class:`~repro.experiments.parallel.Executor` parallelizes.
        Results are bitwise identical either way. With a ``store``,
        already-ledgered methods are skipped before dispatch and the
        returned dict is rebuilt from ledger queries.
        """
        self.prepare()
        methods = list(methods)
        C = kwargs.pop("C", 1.0)
        results = self._run_cells(
            [(method, gamma, C, kwargs) for method in methods], workers
        )
        return dict(zip(methods, results))

    def gamma_sweep(
        self, gammas, *, method: str = "pfr", workers=None, **kwargs
    ) -> list:
        """Evaluate a method across γ values (Figures 4, 7, 10).

        For the PFR family every sweep point reuses a cached
        :class:`~repro.core.SpectralFitPlan` — graphs, Laplacians and
        projected objective matrices are built once, and each γ costs one
        mix + eigensolve (plus the downstream classifier). With
        ``workers`` set, γ points fan out across processes; each worker
        rebuilds the plan once and sweeps its share of the points against
        it, and the results are bitwise identical to a serial sweep.

        With a ``store``, completed γ points are skipped before dispatch —
        an interrupted sweep resumes at the missing cells, and widening
        the grid re-pays only the new γ values.
        """
        self.prepare()
        gammas = [float(g) for g in gammas]
        if len(set(gammas)) != len(gammas):
            raise ValidationError(f"gammas contains duplicates: {gammas}")
        C = kwargs.pop("C", 1.0)
        return self._run_cells(
            [(method, gamma, C, kwargs) for gamma in gammas], workers
        )

    # -- hyper-parameter tuning (the paper's 5-fold grid search) -----------

    def tune(
        self,
        method: str,
        param_grid,
        *,
        n_splits: int = 5,
        scoring: str = "roc_auc",
        workers=None,
    ) -> dict:
        """5-fold grid search over representation + classifier parameters.

        The grid may contain representation parameters (``gamma``, method
        keyword arguments) and the downstream classifier's ``C``. Returns
        ``{"best_params", "best_score", "results"}``.

        ``workers`` fans the grid points out across processes; every
        point's fold scores are a pure function of the harness data, the
        point and the harness seed, so the search result is bitwise
        identical to a serial search. Each worker keeps its own fold-plan
        cache, so the γ axis of the grid stays nearly free per process.
        """
        self.prepare()
        # Fresh staged-fit cache per search: fold plans are keyed by (fold
        # rows, structural params), so the γ axis of the grid — usually its
        # largest — reuses each fold's graphs/Laplacians/projections.
        self._tune_plan_cache = {}
        grid_points = [dict(params) for params in ParameterGrid(param_grid)]
        ledger = self._ledger()
        digests = None
        if ledger is not None:
            # Already-ledgered grid points are skipped before dispatch, so
            # a re-run of a finished (or widened) grid pays only new points.
            from ..store import task_digest

            digests = [
                [task_digest(self._grid_point_task(method, p, n_splits, scoring))]
                for p in grid_points
            ]
        out = _dispatch(
            _tune_grid_task, [(None, [p]) for p in grid_points],
            state=(self, method, n_splits, scoring), workers=workers,
            ledger=ledger, digests=digests,
        )
        mean_scores = [
            score if ledger is None else float(score.payload["mean_score"])
            for (score,) in out
        ]
        results = []
        best = {"best_params": None, "best_score": -np.inf}
        for params, mean_score in zip(grid_points, mean_scores):
            params = dict(params)
            C = params.pop("C", 1.0)
            gamma = params.pop("gamma", 0.5)
            results.append({"params": {**params, "C": C, "gamma": gamma},
                            "mean_score": mean_score})
            if mean_score > best["best_score"]:
                best = {
                    "best_params": {**params, "C": C, "gamma": gamma},
                    "best_score": mean_score,
                }
        best["results"] = results
        return best

    def _grid_point_task(
        self, method: str, params: dict, n_splits: int, scoring: str
    ) -> dict:
        return {
            "kind": "tuned_point",
            "harness": self.task_fingerprint(),
            "method": str(method),
            "params": dict(params),
            "n_splits": int(n_splits),
            "scoring": str(scoring),
        }

    def _score_grid_point(
        self, method: str, params: dict, *, n_splits: int, scoring: str
    ) -> float:
        """Mean cross-validation score of one grid point (all folds).

        Read-through/write-through the run ledger when a ``store`` is
        configured, at grid-point granularity (a point's fold scores are
        one unit of work).
        """
        ledger = self._ledger()
        task = None
        if ledger is not None:
            task = self._grid_point_task(method, params, n_splits, scoring)
            entry = ledger.get_task(task)
            if entry is not None:
                return float(entry.payload["mean_score"])
        score = self._score_grid_point_direct(
            method, params, n_splits=n_splits, scoring=scoring
        )
        if ledger is not None:
            ledger.put(task, {"mean_score": score})
        return score

    def _score_grid_point_direct(
        self, method: str, params: dict, *, n_splits: int, scoring: str
    ) -> float:
        params = dict(params)
        C = params.pop("C", 1.0)
        gamma = params.pop("gamma", 0.5)
        fold_scores = []
        cv = StratifiedKFold(n_splits=n_splits, shuffle=True, seed=self.seed)
        for fit_rows, val_rows in cv.split(self.X_train, self.y_train):
            fold_scores.append(
                self._tune_fold(
                    method, params, gamma, C, fit_rows, val_rows, scoring
                )
            )
        return float(np.mean(fold_scores))

    def _tune_fold(self, method, params, gamma, C, fit_rows, val_rows, scoring):
        """Score one CV fold: representation and classifier trained on the
        fit part, scored on the validation part."""
        base = method.rstrip("+")
        if base not in ("original", "pfr", "ifair", "lfr"):
            raise ValidationError(f"tune() does not support method {method!r}")
        X_fit, X_val = self.X_train[fit_rows], self.X_train[val_rows]
        y_fit, y_val = self.y_train[fit_rows], self.y_train[val_rows]
        model = self._fit_base_estimator(
            base, X_fit, gamma=gamma, method_params=params, fold=fit_rows
        )
        Z_fit, Z_val = model.transform(X_fit), model.transform(X_val)

        scaler = StandardScaler().fit(Z_fit)
        Z_fit, Z_val = scaler.transform(Z_fit), scaler.transform(Z_val)
        classifier = LogisticRegression(C=C).fit(Z_fit, y_fit)
        if scoring == "roc_auc":
            return roc_auc_score(y_val, classifier.predict_proba(Z_val)[:, 1])
        if scoring == "accuracy":
            return float(np.mean(classifier.predict(Z_val) == y_val))
        raise ValidationError(f"unknown scoring {scoring!r}")
