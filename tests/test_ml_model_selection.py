"""Tests for repro.ml.model_selection — splits, CV, grid search."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ml import (
    GridSearchCV,
    KFold,
    LogisticRegression,
    ParameterGrid,
    StratifiedKFold,
    cross_val_score,
    train_test_split,
)


class TestTrainTestSplit:
    def test_sizes(self):
        X = np.arange(100).reshape(50, 2)
        X_train, X_test = train_test_split(X, test_size=0.3, seed=0)
        assert len(X_test) == 15
        assert len(X_train) == 35

    def test_partition_covers_everything(self):
        X = np.arange(40)
        a, b = train_test_split(X, test_size=0.25, seed=1)
        assert sorted(np.concatenate([a, b]).tolist()) == list(range(40))

    def test_multiple_arrays_aligned(self):
        X = np.arange(60).reshape(30, 2)
        y = np.arange(30)
        X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.2, seed=2)
        np.testing.assert_array_equal(X_train[:, 0] // 2, y_train)
        np.testing.assert_array_equal(X_test[:, 0] // 2, y_test)

    def test_stratified_preserves_rates(self):
        y = np.array([0] * 80 + [1] * 20)
        y_train, y_test = train_test_split(y, test_size=0.25, stratify=y, seed=3)
        assert y_test.mean() == pytest.approx(0.2, abs=0.01)
        assert len(y_test) == 25

    def test_joint_composition_preserved(self):
        # A joint y×s key passed as `stratify` keeps every (label, group)
        # cell within one row of proportional on both sides.
        from repro.datasets import simulate_admissions

        data = simulate_admissions(400, seed=21)
        joint = 2 * data.y + data.s
        train, test = train_test_split(
            joint, test_size=0.25, stratify=joint, seed=3
        )
        for side in (train, test):
            for cell in range(4):
                share = np.mean(joint == cell)
                assert abs(np.mean(side == cell) - share) < 0.02

    def test_deterministic_given_seed(self):
        X = np.arange(30)
        a1, b1 = train_test_split(X, test_size=0.5, seed=9)
        a2, b2 = train_test_split(X, test_size=0.5, seed=9)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_invalid_test_size(self):
        with pytest.raises(ValidationError):
            train_test_split(np.arange(10), test_size=1.5)

    def test_empty_split_rejected(self):
        with pytest.raises(ValidationError):
            train_test_split(np.arange(3), test_size=0.01)


class TestKFold:
    def test_folds_partition(self):
        X = np.arange(23)
        seen = []
        for train_idx, test_idx in KFold(n_splits=5).split(X):
            assert len(np.intersect1d(train_idx, test_idx)) == 0
            seen.extend(test_idx.tolist())
        assert sorted(seen) == list(range(23))

    def test_fold_sizes_balanced(self):
        sizes = [len(t) for _, t in KFold(n_splits=4).split(np.arange(10))]
        assert sorted(sizes) == [2, 2, 3, 3]

    def test_shuffle_changes_order(self):
        X = np.arange(20)
        plain = [t.tolist() for _, t in KFold(n_splits=4).split(X)]
        shuffled = [t.tolist() for _, t in KFold(n_splits=4, shuffle=True, seed=0).split(X)]
        assert plain != shuffled

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            list(KFold(n_splits=5).split(np.arange(3)))

    def test_min_splits(self):
        with pytest.raises(ValidationError):
            KFold(n_splits=1)


class TestStratifiedKFold:
    def test_class_balance_per_fold(self):
        y = np.array([0] * 40 + [1] * 10)
        for _, test_idx in StratifiedKFold(n_splits=5).split(np.zeros(50), y):
            assert np.sum(y[test_idx] == 1) == 2
            assert np.sum(y[test_idx] == 0) == 8

    def test_partition(self):
        y = np.array([0, 1] * 15)
        seen = []
        for _, test_idx in StratifiedKFold(n_splits=3).split(np.zeros(30), y):
            seen.extend(test_idx.tolist())
        assert sorted(seen) == list(range(30))

    def test_rare_class_rejected(self):
        y = np.array([0] * 28 + [1] * 2)
        with pytest.raises(ValidationError, match="only"):
            list(StratifiedKFold(n_splits=5).split(np.zeros(30), y))


class TestParameterGrid:
    def test_product(self):
        grid = list(ParameterGrid({"a": [1, 2], "b": [3, 4]}))
        assert len(grid) == 4
        assert {"a": 1, "b": 3} in grid

    def test_len(self):
        assert len(ParameterGrid({"a": [1, 2, 3], "b": [1]})) == 3

    def test_list_of_grids(self):
        grid = list(ParameterGrid([{"a": [1]}, {"b": [2, 3]}]))
        assert len(grid) == 3

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            ParameterGrid({"a": []})

    def test_scalar_values_rejected(self):
        with pytest.raises(ValidationError, match="sequences"):
            ParameterGrid({"a": 1})


class TestCrossValScore:
    def test_returns_one_score_per_fold(self, binary_problem):
        X, y = binary_problem
        scores = cross_val_score(LogisticRegression(), X, y, cv=KFold(n_splits=4))
        assert scores.shape == (4,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_auc_scoring(self, binary_problem):
        X, y = binary_problem
        scores = cross_val_score(
            LogisticRegression(), X, y, cv=StratifiedKFold(3), scoring="roc_auc"
        )
        assert scores.mean() > 0.85

    def test_unknown_scoring(self, binary_problem):
        X, y = binary_problem
        with pytest.raises(ValidationError, match="unknown scoring"):
            cross_val_score(LogisticRegression(), X, y, scoring="nope")

    def test_callable_scorer(self, binary_problem):
        X, y = binary_problem

        def negative_count_scorer(estimator, X_val, y_val):
            return float(np.mean(estimator.predict(X_val) == 0))

        scores = cross_val_score(
            LogisticRegression(), X, y, cv=KFold(3), scoring=negative_count_scorer
        )
        assert scores.shape == (3,)
        assert np.all((scores >= 0) & (scores <= 1))


class TestGridSearchCV:
    def test_finds_better_c(self, binary_problem):
        X, y = binary_problem
        search = GridSearchCV(
            estimator=LogisticRegression(),
            param_grid={"C": [1e-4, 1.0]},
            scoring="roc_auc",
            cv=StratifiedKFold(3),
        ).fit(X, y)
        assert search.best_params_["C"] == 1.0
        assert search.best_score_ > 0.8

    def test_refits_best_estimator(self, binary_problem):
        X, y = binary_problem
        search = GridSearchCV(
            estimator=LogisticRegression(),
            param_grid={"C": [0.5, 2.0]},
        ).fit(X, y)
        assert search.best_estimator_.C == search.best_params_["C"]
        assert search.predict(X).shape == (len(y),)

    def test_cv_results_complete(self, binary_problem):
        X, y = binary_problem
        search = GridSearchCV(
            estimator=LogisticRegression(),
            param_grid={"C": [0.1, 1.0, 10.0]},
        ).fit(X, y)
        assert len(search.cv_results_) == 3
        assert all("mean_score" in r for r in search.cv_results_)

    def test_std_score_is_sample_std(self, binary_problem):
        X, y = binary_problem
        cv = StratifiedKFold(3)
        search = GridSearchCV(
            estimator=LogisticRegression(),
            param_grid={"C": [1.0]},
            scoring="roc_auc",
            cv=cv,
        ).fit(X, y)
        fold_scores = cross_val_score(
            LogisticRegression(C=1.0), X, y, cv=cv, scoring="roc_auc"
        )
        record = search.cv_results_[0]
        assert record["mean_score"] == float(np.mean(fold_scores))
        # Error bars use sample std (ddof=1): fold scores are a sample of
        # the score distribution, not the whole population.
        assert record["std_score"] == float(np.std(fold_scores, ddof=1))
        assert record["std_score"] != float(np.std(fold_scores))

    def test_requires_estimator_and_grid(self, binary_problem):
        X, y = binary_problem
        with pytest.raises(ValidationError):
            GridSearchCV().fit(X, y)

    def test_predict_before_fit(self):
        with pytest.raises(ValidationError, match="not fitted"):
            GridSearchCV(LogisticRegression(), {"C": [1.0]}).predict(np.ones((2, 2)))
