"""Registry of the paper's experiments (one entry per table and figure).

Each entry ties a table/figure of the paper to the driver that regenerates
it, the workload it runs on, and the qualitative claims ("shapes") the
reproduction is expected to exhibit. ``python -m repro list`` and
``python -m repro run`` read this registry; README's "Reproducing the
paper" section shows how to run each entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import figures

__all__ = ["PaperExperiment", "ExperimentSpec", "EXPERIMENTS", "get_experiment"]


@dataclass(frozen=True)
class PaperExperiment:
    """One reproducible paper experiment (a table or figure of §4).

    Renamed from ``ExperimentSpec`` so the name cannot be confused with
    the declarative :class:`~repro.experiments.RunSpec` scenario matrix;
    ``ExperimentSpec`` remains as a deprecated alias.

    Attributes
    ----------
    experiment_id:
        Paper identifier (``table1``, ``figure2``, ...).
    title:
        What the paper shows.
    dataset:
        Workload name (``synthetic``, ``crime``, ``compas`` or ``all``).
    driver:
        Zero-argument-friendly callable ``f(*, seed, scale, ...)`` from
        :mod:`repro.experiments.figures`.
    expected_shapes:
        The qualitative claims the reproduction should reproduce (checked
        by the integration tests in ``tests/test_paper_claims.py``).
    """

    experiment_id: str
    title: str
    dataset: str
    driver: object
    expected_shapes: tuple


#: Deprecated alias (pre-PR-5 name); prefer :class:`PaperExperiment`.
ExperimentSpec = PaperExperiment


EXPERIMENTS = {
    "table1": PaperExperiment(
        "table1",
        "Experimental setting and statistics of the datasets",
        "all",
        figures.table1,
        (
            "synthetic: 600 individuals, 300/300, base rates ≈ 0.51/0.48",
            "crime: 1993 communities, 1423/570, base rates ≈ 0.35/0.86",
            "compas: 8803 offenders, 4218/4585, base rates ≈ 0.41/0.55",
        ),
    ),
    "figure1": PaperExperiment(
        "figure1",
        "Learned 2-D representations on the synthetic dataset",
        "synthetic",
        figures.figure1,
        (
            "original: groups separated (cross-group distance ratio > 1)",
            "ifair/lfr/pfr: groups well-mixed (ratio ≈ 1)",
            "pfr only: deserving individuals of both groups aligned",
        ),
    ),
    "figure2": PaperExperiment(
        "figure2",
        "Synthetic: utility vs. individual fairness per method",
        "synthetic",
        figures.figure2,
        (
            "PFR wins Consistency(WF) by a wide margin",
            "PFR AUC >= other learned representations",
            "all methods reach high Consistency(WX)",
        ),
    ),
    "figure3": PaperExperiment(
        "figure3",
        "Synthetic: per-group positive-prediction and error rates",
        "synthetic",
        figures.figure3,
        (
            "original: substantial parity and error-rate gaps",
            "pfr: near-equal positive rates and error rates, comparable to hardt",
        ),
    ),
    "figure4": PaperExperiment(
        "figure4",
        "Synthetic: influence of gamma",
        "synthetic",
        figures.figure4,
        (
            "gamma ↑ ⇒ Consistency(WF) ↑",
            "gamma ↑ ⇒ Consistency(WX) ↓",
            "gamma ↑ ⇒ AUC ↑ (fairness graph aligned with ground truth)",
        ),
    ),
    "figure5": PaperExperiment(
        "figure5",
        "Crime: utility vs. individual fairness (augmented baselines)",
        "crime",
        figures.figure5,
        (
            "PFR wins Consistency(WF)",
            "PFR pays some AUC and Consistency(WX) relative to Original+",
        ),
    ),
    "figure6": PaperExperiment(
        "figure6",
        "Crime: group fairness (incl. Hardt+)",
        "crime",
        figures.figure6,
        (
            "PFR: near-equal positive rates across groups",
            "PFR error-rate balance comparable to Hardt+",
        ),
    ),
    "figure7": PaperExperiment(
        "figure7",
        "Crime: influence of gamma",
        "crime",
        figures.figure7,
        (
            "gamma ↑ ⇒ Consistency(WF) ↑, Consistency(WX) ↓",
            "gamma ↑ ⇒ overall AUC ↓ while the group AUC gap narrows",
        ),
    ),
    "figure8": PaperExperiment(
        "figure8",
        "COMPAS: utility vs. individual fairness (augmented baselines)",
        "compas",
        figures.figure8,
        (
            "PFR comparable to other learned representations on AUC and "
            "individual fairness (§4.3.3: 'performs similarly')",
            "PFR beats the unconstrained baselines on Consistency(WF)",
        ),
    ),
    "figure9": PaperExperiment(
        "figure9",
        "COMPAS: group fairness (incl. Hardt+)",
        "compas",
        figures.figure9,
        (
            "PFR: near-equal positive rates and error rates, as good as Hardt+",
        ),
    ),
    "figure10": PaperExperiment(
        "figure10",
        "COMPAS: influence of gamma",
        "compas",
        figures.figure10,
        (
            "gamma ↑ ⇒ Consistency(WF) ↑, Consistency(WX) ↓",
            "gamma ↑ ⇒ overall AUC ↓, protected-group AUC gap narrows",
        ),
    ),
}


def get_experiment(experiment_id: str) -> PaperExperiment:
    """Look up an experiment by its paper identifier."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id]
