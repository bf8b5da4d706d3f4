"""Crime & Communities workload (paper §4.3, UCI "Communities and Crime").

The paper predicts whether a US community is violent (``isViolent``) from
socio-economic, demographic, and policing attributes; communities with a
majority non-white population form the protected group (570 of 1993;
base rates 0.35 / 0.86 — Table 1). Side information for the fairness graph
comes from niche.com resident safety ratings (§4.3.1), modeled here by
:mod:`repro.datasets.ratings`.

:func:`simulate_crime` generates a synthetic population from a single
latent socio-economic factor: community wealth drives income, poverty,
education, housing, and policing attributes, and (inversely) the violence
level — reproducing the real dataset's correlation structure, the extreme
base-rate gap, and the race-proxy effect (``pct_white`` is a *regular*
feature correlated with the protected attribute, exactly the redlining
structure that makes the original data hard).

:func:`load_crime` ingests the real UCI ``communities.data`` file when
available.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .._validation import check_random_state
from ..exceptions import DatasetError
from ..ml.linear import sigmoid
from .base import Dataset
from .compas import _calibrate_intercept
from .ratings import simulate_star_ratings

__all__ = ["simulate_crime", "load_crime", "CRIME_FEATURES"]

_TABLE1_N_S0 = 1423
_TABLE1_N_S1 = 570
_TABLE1_BASE_RATE_S0 = 0.35
_TABLE1_BASE_RATE_S1 = 0.86

# (name, loading on the socio-economic factor z, idiosyncratic noise sd).
# Positive loading = higher in wealthy communities.
_FACTOR_SPEC = (
    ("med_income", 0.80, 0.45),
    ("med_rent", 0.75, 0.45),
    ("pct_home_owners", 0.60, 0.55),
    ("pct_college_grad", 0.70, 0.50),
    ("pct_high_school", 0.55, 0.55),
    ("pct_employed_prof", 0.65, 0.55),
    ("pct_same_house_5y", 0.40, 0.70),
    ("pct_two_parent_hh", 0.65, 0.50),
    ("med_home_value", 0.78, 0.45),
    ("pct_poverty", -0.75, 0.45),
    ("pct_unemployed", -0.60, 0.55),
    ("pct_vacant_housing", -0.50, 0.60),
    ("pct_single_parent", -0.65, 0.50),
    ("pct_public_assist", -0.70, 0.50),
    ("pct_crowded_housing", -0.55, 0.60),
    ("pop_density", -0.30, 0.80),
    ("pct_young_males", -0.20, 0.85),
    ("police_per_pop", -0.40, 0.70),
    ("police_budget_pc", -0.35, 0.75),
    ("pct_recent_movers", -0.35, 0.75),
    ("pct_large_families", -0.25, 0.80),
    ("med_age", 0.25, 0.85),
    ("pct_urban", -0.20, 0.90),
    ("land_area", 0.05, 1.00),
)

CRIME_FEATURES = tuple(name for name, _, _ in _FACTOR_SPEC) + (
    "pct_white",
    "majority_nonwhite",
)


def simulate_crime(
    n_nonprotected: int = _TABLE1_N_S0,
    n_protected: int = _TABLE1_N_S1,
    *,
    seed=0,
    shuffle: bool = True,
    rating_coverage: float = 0.75,
    measurement_noise_protected: float = 0.5,
) -> Dataset:
    """Generate a synthetic Crime & Communities population (Table 1 calibrated).

    Parameters
    ----------
    n_nonprotected, n_protected:
        Community counts per group (paper: 1423 / 570).
    seed:
        Generator seed; the dataset is a pure function of it.
    shuffle:
        Interleave groups.
    rating_coverage:
        Fraction of communities with simulated niche.com reviews (the paper
        covered ~1500 of ~2000).
    measurement_noise_protected:
        Multiplier on the protected communities' idiosyncratic feature
        noise: official statistics for minority neighborhoods are less
        reliable, so the recorded attributes track the latent
        socio-economic factor more loosely — which is why the resident
        ratings (an independent channel) can *help* the protected group
        (the paper's Figure 7c).

    Returns
    -------
    Dataset
        Features per :data:`CRIME_FEATURES`, label = ``isViolent``, side
        information = mean star rating (NaN where no reviews).
    """
    if min(n_nonprotected, n_protected) < 10:
        raise DatasetError("each group needs at least 10 communities")
    rng = check_random_state(seed)

    n = n_nonprotected + n_protected
    s = np.concatenate(
        [
            np.zeros(n_nonprotected, dtype=np.int64),
            np.ones(n_protected, dtype=np.int64),
        ]
    )
    # Historical disadvantage: the protected group sits lower on the
    # socio-economic factor.
    z = rng.normal(0.0, 1.0, size=n) - 1.1 * s

    # Features observe the socio-economic factor through recorded
    # statistics. For protected communities the records carry a shared
    # (per-community) measurement error — unreliable official statistics —
    # so *all* their attributes drift coherently away from the truth. A
    # per-column error would average out across ~24 attributes; a shared
    # error does not.
    z_observed = z + rng.normal(0.0, 1.0, size=n) * measurement_noise_protected * s
    columns = []
    for _, loading, noise_sd in _FACTOR_SPEC:
        columns.append(loading * z_observed + rng.normal(0.0, noise_sd, size=n))
    # pct_white: a strong race proxy that is a *regular* feature (redlining
    # structure); clipped to [0, 1].
    pct_white = np.clip(0.82 - 0.55 * s + rng.normal(0.0, 0.12, size=n), 0.0, 1.0)
    columns.append(pct_white)
    columns.append(s.astype(np.float64))
    X = np.column_stack(columns)

    # Violence tracks (inverse) wealth with idiosyncratic noise.
    violence = -0.85 * z + rng.normal(0.0, 0.5, size=n)
    y = np.zeros(n, dtype=np.int64)
    for value, rate in ((0, _TABLE1_BASE_RATE_S0), (1, _TABLE1_BASE_RATE_S1)):
        members = s == value
        intercept = _calibrate_intercept(violence[members], rate)
        y[members] = (
            rng.random(members.sum()) < sigmoid(violence[members] - intercept)
        ).astype(np.int64)

    mean_ratings, n_reviews = simulate_star_ratings(
        violence, s, coverage=rating_coverage, seed=rng
    )

    if shuffle:
        order = rng.permutation(n)
        X, y, s = X[order], y[order], s[order]
        violence = violence[order]
        mean_ratings, n_reviews = mean_ratings[order], n_reviews[order]

    return Dataset(
        name="crime",
        X=X,
        y=y,
        s=s,
        feature_names=CRIME_FEATURES,
        protected_columns=(len(CRIME_FEATURES) - 1,),
        side_information=mean_ratings,
        side_information_name="niche.com-style mean safety rating (1-5 stars)",
        metadata={
            "seed": seed,
            "generator": "simulate_crime",
            "violence_score": violence,
            "n_reviews": n_reviews,
            "substitution": (
                "latent-factor synthetic population calibrated to Table 1"
            ),
        },
    )


def load_crime(path, *, names_path=None) -> Dataset:
    """Load the UCI ``communities.data`` file.

    The file has 128 comma-separated columns without a header: 5
    non-predictive identifiers, 122 normalized predictive attributes, and
    the continuous target ``ViolentCrimesPerPop``. Missing values are
    ``'?'`` and are imputed with column means. Following the paper,
    ``isViolent`` is the median split of the target and the protected group
    is "majority population non-white" (``racePctWhite < 0.5``, attribute
    index 3 among the predictive columns).

    Parameters
    ----------
    path:
        Path to ``communities.data``.
    names_path:
        Optional ``communities.names`` file; when given, feature names are
        parsed from it, otherwise generic names are used.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"Crime & Communities file not found: {path}")

    rows = []
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 128:
                raise DatasetError(
                    f"{path}:{line_number}: expected 128 fields, got {len(parts)}"
                )
            rows.append(parts)
    if len(rows) < 10:
        raise DatasetError(f"{path}: too few rows ({len(rows)})")

    raw = np.full((len(rows), 123), np.nan)
    for i, parts in enumerate(rows):
        for j, token in enumerate(parts[5:]):
            if token != "?":
                raw[i, j] = float(token)

    target = raw[:, -1]
    if np.isnan(target).any():
        raise DatasetError(f"{path}: target column contains missing values")
    features = raw[:, :-1]
    column_means = np.nanmean(features, axis=0)
    missing = np.isnan(features)
    features[missing] = np.take(column_means, np.nonzero(missing)[1])

    # Predictive attribute 3 (0-based) is racePctWhite.
    s = (features[:, 3] < 0.5).astype(np.int64)
    y = (target >= np.median(target)).astype(np.int64)

    feature_names = _crime_feature_names(names_path, features.shape[1])
    X = np.column_stack([features, s.astype(np.float64)])
    return Dataset(
        name="crime",
        X=X,
        y=y,
        s=s,
        feature_names=tuple(feature_names) + ("majority_nonwhite",),
        protected_columns=(features.shape[1],),
        side_information=None,
        side_information_name=(
            "none in the raw UCI file; attach ratings via "
            "repro.datasets.ratings.simulate_star_ratings"
        ),
        metadata={"source": str(path), "generator": "load_crime"},
    )


def _crime_feature_names(names_path, n_features: int) -> list[str]:
    if names_path is None:
        return [f"attr_{j}" for j in range(n_features)]
    names = []
    with Path(names_path).open(encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("@attribute"):
                names.append(line.split()[1])
    predictive = names[5 : 5 + n_features]
    if len(predictive) != n_features:
        raise DatasetError(
            f"{names_path}: expected {n_features} predictive attribute names, "
            f"found {len(predictive)}"
        )
    return predictive
