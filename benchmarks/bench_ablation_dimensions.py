"""Ablation — latent dimensionality d on the Crime workload.

The latent dimensionality d is the lever that gives γ leverage: d close to the
feature count reduces PFR to a rotation (no fairness effect); d too small
starves the classifier. This ablation traces the whole curve.
"""

from repro.experiments import ExperimentHarness, render_table
from repro.experiments import make_workload
from repro.experiments.figures import FigureResult

from conftest import bench_scale, save_render


def _run():
    data = make_workload("crime", seed=0, scale=bench_scale("crime"))
    rows = []
    for d in (1, 2, 4, 8, 16, 25):
        harness = ExperimentHarness(data, seed=0, n_components=d)
        result = harness.run_method("pfr", gamma=1.0)
        rows.append(
            [
                d,
                result.auc,
                result.consistency_wf,
                result.rates.gap("positive_rate"),
            ]
        )
    text = render_table(["d", "AUC", "Consistency(WF)", "parity gap"], rows)
    return FigureResult(
        figure_id="ablation_dimensions",
        description="crime: PFR vs. latent dimensionality d",
        data={"rows": rows},
        text=text,
    )


def test_bench_ablation_dimensions(once):
    result = once(_run)
    save_render(result)
    rows = {r[0]: r for r in result.data["rows"]}
    # Full-dimensional PFR is a rotation: its parity gap stays large, while
    # the compressed operating point (d=2) closes most of it.
    assert rows[2][3] < rows[25][3]
    # Utility grows with d (more of the input is preserved).
    assert rows[25][1] > rows[1][1]
