"""Figure 10 — COMPAS: influence of γ."""

from repro.experiments import figure10

from conftest import bench_scale, save_render


def test_bench_figure10(once):
    result = once(
        figure10,
        scale=bench_scale("compas"),
        seed=0,
        gammas=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    )
    save_render(result)

    series = result.data["series"]
    sweep = result.data["sweep"]
    # γ ↑ ⇒ Consistency(WF) ↑ and Consistency(WX) ↓; the demographic-parity
    # gap collapses. (Deviation vs the paper: overall AUC stays flat or
    # rises slightly instead of declining; `python -m repro run figure10`
    # prints the series.)
    assert series["consistency_wf"][-1] > series["consistency_wf"][0]
    assert series["consistency_wx"][-1] < series["consistency_wx"][0]
    assert (
        sweep[-1].rates.gap("positive_rate")
        < sweep[0].rates.gap("positive_rate")
    )
