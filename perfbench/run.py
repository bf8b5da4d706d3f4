"""The repository benchmark: four seeded workloads over the ``repro`` stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 0 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each one is there):

* ``reproduce`` regenerates and renders the paper's experiments at scale
  1.0, all but ``figure1`` (see ``workloads.EXCLUDED_EXPERIMENTS``);
* ``sweep``     one 120-cell RunSpec through ``run_spec``: a cold pass into
  an empty ledger, then fully cached re-runs (the traced run adds a
  shard → merge → report leg);
* ``fit``       an exact PFR fit and a Nyström fit on 30k blob rows;
* ``serve``     fit → register → ``python -m repro serve`` → HTTP load.

End-to-end metrics are measured with tracing off and mean the same thing
on every workload, with the job they time named here:

==========  ==========================  =================================
metric      reproduce / sweep / fit     serve
==========  ==========================  =================================
setup_s     median of 3 set-ups: a      the same, plus fit, register,
            fresh interpreter imports   boot until ``/healthz`` answers
            and generates the inputs    and the 512-row cache warm-up
peak_rss_mb this process                the server process
main_s      10 experiments / cold       closed-loop wall of 384 requests
            120-cell pass / exact fit   × 256 fresh rows, in 16 chunks
second_s    figures 5-10 (Crime and     median latency of the open-loop
            COMPAS) / one cached re-run hit stream at 250 req/s, from
            / Nyström fit               each request's due time
==========  ==========================  =================================

``--trace 1`` is a separate run: it repeats the work untraced, then once
more with the layer wrappers of ``layers.py`` installed, and prints every
per-layer metric (layers a workload does not use read 0). Every run writes
its full record — provenance, metrics, notes and the per-phase self-time
breakdown — to ``.perfbench-results/`` in the checkout; ``compare.py``
reads two such directories. Each run also times a fixed reference kernel
(``common.reference_kernel``) eight times before and eight times after its
work and records the samples, so a comparison can show when the machine
itself ran at a different speed.

The last line of standard output is the JSON result object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import Context, Outcome, median, reference_kernel  # noqa: E402

WORKLOADS = ("reproduce", "sweep", "fit", "serve")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "main_s": "s",
    "second_s": "s",
}
SETUP_TRIALS = 3
REFERENCE_SAMPLES = 8
#: What ``main_s`` and ``second_s`` time on each workload, by job name.
JOBS = {
    "reproduce": ("reproduce_s", "real_data_figures_s"),
    "sweep": ("sweep_cold_s", "sweep_warm_pass_s"),
    "fit": ("fit_exact_s", "fit_landmark_s"),
    "serve": ("serve_batch_job_s", "serve_hit_p50_s"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench-results",
                        help="directory (under the checkout) for run records")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "serve":
        from serve_load import serve_inputs

        return serve_inputs(seed)
    import workloads

    return getattr(workloads, f"{workload}_inputs")(seed)


def provenance(root: Path, ctx: Context, inputs: dict) -> dict:
    import numpy
    import scipy

    import repro

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    git = {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                    env=env, capture_output=True, text=True,
                                    timeout=30)
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    sizes = {
        key: list(getattr(value, "shape", ()))
        for key, value in inputs.items() if hasattr(value, "shape")
    }
    if "spec" in inputs:
        sizes["cells"] = inputs["spec"].n_cells
    if "experiments" in inputs:
        sizes["experiments"] = len(inputs["experiments"])
    return {
        "git": git,
        "repro": repro.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "input_sizes": sizes,
    }


def probe_setup(ctx: Context) -> list:
    """Wall time of fresh interpreters that import and generate inputs."""
    times = []
    for _ in range(SETUP_TRIALS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", ctx.workload,
             "--seed", str(ctx.seed), "--setup-probe"],
            cwd=ctx.root, check=True, timeout=170,
        )
        times.append(time.perf_counter() - start)
    return times


class TracedSection:
    """Installs the layer wrappers and reads obs counters around them."""

    def __init__(self, out: Outcome):
        self.out = out

    def __enter__(self):
        import importlib
        import pkgutil

        import repro
        from layers import counter_totals, install
        from repro.obs.metrics import get_registry
        from spans import Tracer

        # Import every module first, so no module binds a wrapper by name
        # after the wrappers are installed and keeps it after restore.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        self.registry = get_registry()
        self.before = counter_totals(self.registry.snapshot())
        self.tracer = Tracer()
        install(self.tracer)
        return self.tracer

    def __exit__(self, *exc_info):
        from layers import counter_totals, layer_metrics

        self.tracer.restore()
        after = counter_totals(self.registry.snapshot())
        values = layer_metrics(self.tracer, self.before, after)
        for key, value in values.items():
            self.out.layers.setdefault(key, value)
        self.out.notes["phases"] = {
            phase: dict(sorted(table.items(), key=lambda kv: -kv[1])[:8])
            for phase, table in self.tracer.phase_breakdown().items()
        }


def run_workload(ctx: Context, inputs: dict, out: Outcome) -> None:
    probe = probe_setup(ctx)
    reference = [reference_kernel() for _ in range(REFERENCE_SAMPLES)]
    try:
        _run_workload(ctx, inputs, out, probe)
    finally:
        reference += [reference_kernel() for _ in range(REFERENCE_SAMPLES)]
        out.notes["reference_s"] = reference


def _run_workload(ctx: Context, inputs: dict, out: Outcome, probe) -> None:
    import workloads

    traced = (lambda: TracedSection(out)) if ctx.trace else None
    if ctx.workload != "serve":
        out.metrics["setup_s"] = median(probe)
        getattr(workloads, f"run_{ctx.workload}")(ctx, inputs, out, traced)
        out.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return

    import serve_load

    live = serve_load.setup(ctx, inputs, probe)
    try:
        out.metrics["setup_s"] = live["setup_s"]
        serve_load.run_serve(ctx, inputs, out, live, bool(ctx.trace))
        if ctx.trace:
            start = time.perf_counter()
            micro = serve_load.micro_pass(live, inputs)
            untraced = time.perf_counter() - start
            with traced() as tracer:
                with tracer.phase("serve.fit_register"):
                    serve_load.fit_and_register(ctx, inputs)
                start = time.perf_counter()
                with tracer.phase("serve.micro"):
                    serve_load.micro_pass(live, inputs)
                out.notes["traced_wall_s"] = time.perf_counter() - start
            out.notes["untraced_wall_s"] = untraced
            out.layers.update(micro)
    finally:
        serve_load.close(live)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    seed = args.seed & 0x7FFFFFFF
    if args.setup_probe:
        make_inputs(args.workload, seed)
        return 0

    workdir = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), root,
                  workdir)
    try:
        inputs = make_inputs(args.workload, ctx.data_seed)
        out = Outcome()
        run_workload(ctx, inputs, out)
        record = finish(ctx, args, inputs, out)
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(record["result"]))
    return 0


def finish(ctx: Context, args, inputs: dict, out: Outcome) -> dict:
    from layers import PER_LAYER

    if ctx.trace:
        untraced = out.notes.get("untraced_wall_s")
        traced = out.notes.get("traced_wall_s")
        out.layers["obs.trace_overhead"] = (
            traced / untraced if untraced and traced else 0.0)
        names = PER_LAYER
    else:
        names = list(END_TO_END.items())
    metrics = {}
    for name, unit in names:
        value = out.metrics.get(name) if not ctx.trace else out.layers.get(name, 0.0)
        metrics[name] = {"value": float(value), "unit": unit}
    result = {
        "correct": out.failed == 0,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }
    jobs = dict(zip(("main_s", "second_s"), JOBS[ctx.workload]))
    for name, entry in metrics.items():
        label = f"{name} ({jobs[name]})" if name in jobs else name
        print(f"{label:40s} {entry['value']:.6g} {entry['unit']}")
    if "hit" in out.notes:
        hit = out.notes["hit"]
        print(f"serve hit stream: p99 {hit['p99_ms']:.3f} ms over {hit['sent']} "
              f"samples, generator p90 lateness {hit['late_ms']:.3f} ms")
    for failure in out.failures[:20]:
        print(f"FAILED: {failure}")
    if ctx.trace:
        for phase, table in out.notes.get("phases", {}).items():
            top = ", ".join(f"{k} {v:.3f}s" for k, v in list(table.items())[:4])
            print(f"phase {phase}: {top}")
    record = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "trace": int(ctx.trace),
        "provenance": provenance(ctx.root, ctx, inputs),
        "result": result,
        "notes": out.notes,
        "failures": out.failures,
    }
    results_dir = ctx.root / args.out
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return record


if __name__ == "__main__":
    sys.exit(main())
