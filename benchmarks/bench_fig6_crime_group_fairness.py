"""Figure 6 — Crime & Communities: group fairness (incl. Hardt+)."""

from repro.experiments import figure6

from conftest import bench_scale, save_render


def test_bench_figure6(once):
    result = once(figure6, scale=bench_scale("crime"), seed=0)
    save_render(result)

    results = result.data["results"]
    pfr = results["pfr"].rates
    # PFR shrinks the parity gap dramatically relative to the
    # unconstrained baselines and balances error rates comparably to
    # Hardt+ (mean of the FPR and FNR gaps).
    for method in ("original+", "ifair+"):
        assert pfr.gap("positive_rate") < results[method].rates.gap("positive_rate")
    pfr_mean = 0.5 * (pfr.gap("fpr") + pfr.gap("fnr"))
    hardt = results["hardt+"].rates
    hardt_mean = 0.5 * (hardt.gap("fpr") + hardt.gap("fnr"))
    # Hardt+ optimizes error equality directly; PFR gets within 0.1 of it
    # without any group-fairness term (`python -m repro run figure6` prints
    # the residual FPR gap on this extreme-base-rate workload).
    assert pfr_mean <= hardt_mean + 0.1
