"""The closed-loop workloads: reproduce, sweep and fit.

Each workload has an input generator (a pure function of the seed, so the
program receives only generated inputs) and a ``run`` that times the
work, checks every output, and fills an :class:`Outcome`. With tracing
on, ``run`` first repeats the timed work untraced, then once more with the
layer wrappers installed; the ratio of the two walls is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import shutil
import time

from common import Outcome, all_finite, median

TRADEOFF_FIGURES = ("figure2", "figure5", "figure8")
#: The Crime and COMPAS figures: most of the reproduction's time, and a
#: longer (so steadier) span than any single figure.
REAL_DATA_FIGURES = ("figure5", "figure6", "figure7", "figure8", "figure9",
                     "figure10")


def phase(tracer, name):
    return tracer.phase(name) if tracer is not None else contextlib.nullcontext()


# ----------------------------------------------------------------- reproduce

#: Experiments the reproduce workload leaves out. ``figure1`` raises
#: ``ZeroDivisionError`` in ``figures._representation_geometry`` on some
#: seeds at every scale (LFR maps every test row to one point); that is a
#: program defect, open on the ROADMAP's correctness item, and a benchmark
#: must run workloads on which no operation fails. Take it out of this set
#: once the defect is fixed.
EXCLUDED_EXPERIMENTS = ("figure1",)


def reproduce_inputs(seed: int) -> dict:
    """Every experiment but ``EXCLUDED_EXPERIMENTS`` at the paper's scale,
    seeded by the workload seed."""
    from repro.experiments import EXPERIMENTS

    experiments = [e for e in EXPERIMENTS if e not in EXCLUDED_EXPERIMENTS]
    return {"experiments": experiments, "seed": seed, "scale": 1.0}


def _reproduce_pass(inputs, out: Outcome, tracer=None) -> dict:
    from repro.experiments import get_experiment

    times, consistency, auc = {}, [], []
    with phase(tracer, "reproduce"):
        for exp_id in inputs["experiments"]:
            start = time.perf_counter()
            try:
                result = get_experiment(exp_id).driver(
                    seed=inputs["seed"], scale=inputs["scale"]
                )
                text = result.render()
            except Exception as exc:  # a crashing experiment is a failed op
                out.check(False, f"{exp_id}: {type(exc).__name__}: {exc}")
                times[exp_id] = time.perf_counter() - start
                continue
            times[exp_id] = time.perf_counter() - start
            ok = out.check(all_finite(result.data) and bool(text.strip()),
                           f"{exp_id}: non-finite data or empty render")
            if ok and exp_id in TRADEOFF_FIGURES:
                pfr = result.data["results"]["pfr"]
                consistency.append(pfr.consistency_wf)
                auc.append(pfr.auc)
    return {"times": times, "consistency": consistency, "auc": auc}


def run_reproduce(ctx, inputs, out: Outcome, tracer_factory=None) -> None:
    passes = _repeat(ctx, lambda: _reproduce_pass(inputs, out))
    first = passes[0]
    out.metrics["main_s"] = median([sum(p["times"].values()) for p in passes])
    out.metrics["second_s"] = median(
        [sum(p["times"][exp_id] for exp_id in REAL_DATA_FIGURES) for p in passes])
    out.notes["experiment_s"] = first["times"]
    if first["consistency"]:
        out.layers["result.pfr_consistency_wf"] = (
            sum(first["consistency"]) / len(first["consistency"]))
        out.layers["result.pfr_auc"] = sum(first["auc"]) / len(first["auc"])
    if tracer_factory is not None:
        with tracer_factory() as tracer:
            start = time.perf_counter()
            _reproduce_pass(inputs, out, tracer)
            out.notes["traced_wall_s"] = time.perf_counter() - start
        out.notes["untraced_wall_s"] = out.metrics["main_s"]


# --------------------------------------------------------------------- sweep

def sweep_spec(seed: int):
    """120 cells: crime@1.0 + compas@0.25 × 4 methods × 5 γ × 3 seeds."""
    from repro.experiments import RunSpec

    base = 3 * (seed % 100_000)
    return RunSpec.from_dict({
        "name": f"perfbench-sweep-{seed}",
        "datasets": [{"name": "crime", "scale": 1.0},
                     {"name": "compas", "scale": 0.25}],
        "methods": ["original", "pfr", "kpfr", "hardt"],
        "gammas": [0.0, 0.25, 0.5, 0.75, 1.0],
        "seeds": [base, base + 1, base + 2],
    })


def sweep_inputs(seed: int) -> dict:
    return {"spec": sweep_spec(seed)}


def _encoded(report) -> dict:
    from repro.store import canonical_json, encode_method_result

    return {
        key: canonical_json(encode_method_result(result))
        for key, result in report.results.items()
    }


def _cold_pass(spec, store_dir, out: Outcome, tracer=None, label="cold"):
    from repro.experiments import run_spec

    shutil.rmtree(store_dir, ignore_errors=True)
    start = time.perf_counter()
    with phase(tracer, f"sweep.{label}"):
        report = run_spec(spec, store=store_dir)
    wall = time.perf_counter() - start
    out.check(report.n_computed == spec.n_cells and report.n_total == spec.n_cells,
              f"{label} pass computed {report.n_computed}/{spec.n_cells} cells")
    return wall, report


def _warm_pass(spec, store_dir, reference, out: Outcome, tracer=None):
    from repro.experiments import run_spec

    start = time.perf_counter()
    with phase(tracer, "sweep.warm"):
        report = run_spec(spec, store=store_dir)
    wall = time.perf_counter() - start
    out.check(report.n_cached == spec.n_cells and _encoded(report) == reference,
              "warm pass is not fully cached or not bitwise equal to cold")
    return wall


def _shard_leg(spec, workdir, reference, out: Outcome, tracer=None) -> None:
    from repro.experiments import run_spec
    from repro.store import RunLedger, merge_stores

    stores = [workdir / f"shard{i}" for i in range(2)]
    merged = workdir / "merged"
    for path in (*stores, merged):
        shutil.rmtree(path, ignore_errors=True)
    with phase(tracer, "sweep.shard"):
        for index, path in enumerate(stores):
            run_spec(spec, store=path, shard=(index, 2))
        report = merge_stores(merged, *stores)
        final = run_spec(spec, store=merged)
        problems = RunLedger(merged).verify()["problems"]
    out.check(not report.conflicts, f"merge reported {len(report.conflicts)} conflicts")
    out.check(not problems, f"merged ledger verify: {problems[:3]}")
    out.check(final.n_cached == spec.n_cells and _encoded(final) == reference,
              "merged report is not fully cached or not bitwise equal to cold")


def run_sweep(ctx, inputs, out: Outcome, tracer_factory=None) -> None:
    from repro.store import RunLedger

    spec = inputs["spec"]
    store_dir = ctx.workdir / "ledger"
    cold_s, report = _cold_pass(spec, store_dir, out)
    reference = _encoded(report)
    out.check(not RunLedger(store_dir).verify()["problems"],
              "cold ledger verify reported problems")
    pfr = [r.consistency_wf for (d, m, g, s), r in report.results.items()
           if m == "pfr"]
    out.layers["result.pfr_consistency_wf"] = sum(pfr) / len(pfr)
    out.layers["result.pfr_auc"] = sum(
        r.auc for (d, m, g, s), r in report.results.items() if m == "pfr"
    ) / len(pfr)
    deadline = time.perf_counter() + max(2.0, ctx.seconds - cold_s)
    warm = []
    while len(warm) < 8 or time.perf_counter() < deadline:
        warm.append(_warm_pass(spec, store_dir, reference, out))
    out.metrics["main_s"] = cold_s
    out.metrics["second_s"] = median(warm)
    out.notes["warm_passes"] = len(warm)
    out.notes["warm_cells_per_s"] = spec.n_cells / median(warm)
    if tracer_factory is not None:
        with tracer_factory() as tracer:
            traced_cold, _ = _cold_pass(spec, store_dir, out, tracer)
            _warm_pass(spec, store_dir, reference, out, tracer)
            _shard_leg(spec, ctx.workdir, reference, out, tracer)
        out.notes["untraced_wall_s"] = cold_s
        out.notes["traced_wall_s"] = traced_cold


# ----------------------------------------------------------------------- fit

FIT_ROWS = 30_000
FIT_FEATURES = 24
FIT_COMPONENTS = 4
FIT_GAMMA = 0.5
FIT_LANDMARKS = 2_000


def fit_inputs(seed: int, n: int = FIT_ROWS) -> dict:
    """Blob rows plus the sparse merit k-NN fairness graph of bench_raw_speed."""
    from repro.datasets import simulate_blobs
    from repro.graphs import knn_graph

    data = simulate_blobs(n, n_features=FIT_FEATURES, seed=seed)
    w_fair = knn_graph(data.side_information[:, None], n_neighbors=8,
                       bandwidth=1.0)
    return {"X": data.X, "w_fair": w_fair}


def _fit_pass(inputs, out: Outcome, tracer=None) -> dict:
    import numpy as np

    from repro.core import PFR, embedding_fidelity

    X, w_fair = inputs["X"], inputs["w_fair"]
    timings, embeddings = {}, {}
    for label, params in (
        ("exact", {}),
        ("landmark", {"extension": "nystrom", "landmarks": FIT_LANDMARKS}),
    ):
        model = PFR(n_components=FIT_COMPONENTS, gamma=FIT_GAMMA, **params)
        start = time.perf_counter()
        with phase(tracer, f"fit.{label}"):
            model.fit(X, w_fair)
        timings[label] = time.perf_counter() - start
        Z = model.transform(X)
        ok = (model.components_.shape == (X.shape[1], FIT_COMPONENTS)
              and Z.shape == (X.shape[0], FIT_COMPONENTS)
              and bool(np.all(np.isfinite(model.components_)))
              and bool(np.all(np.isfinite(Z))))
        out.check(ok, f"{label} fit: non-finite or mis-shaped output")
        embeddings[label] = Z
    fidelity = float(embedding_fidelity(embeddings["exact"], embeddings["landmark"]))
    out.check(np.isfinite(fidelity) and 0.0 < fidelity <= 1.0 + 1e-9,
              f"landmark fidelity {fidelity} out of range")
    return {**timings, "fidelity": fidelity}


def run_fit(ctx, inputs, out: Outcome, tracer_factory=None) -> None:
    passes = _repeat(ctx, lambda: _fit_pass(inputs, out))
    out.metrics["main_s"] = median([p["exact"] for p in passes])
    out.metrics["second_s"] = median([p["landmark"] for p in passes])
    out.layers["result.landmark_fidelity"] = passes[0]["fidelity"]
    if tracer_factory is not None:
        with tracer_factory() as tracer:
            traced = _fit_pass(inputs, out, tracer)
        out.notes["untraced_wall_s"] = passes[0]["exact"] + passes[0]["landmark"]
        out.notes["traced_wall_s"] = traced["exact"] + traced["landmark"]


def _repeat(ctx, one_pass) -> list:
    """Run ``one_pass`` at least once, and again while another fits the budget."""
    passes, start = [], time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(one_pass())
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > ctx.seconds:
            return passes
