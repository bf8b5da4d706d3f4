"""Distributed sweeps: shard a RunSpec across processes, merge, report.

The scale-out workflow on one box, using real subprocesses so each shard
is exactly what a separate machine would run:

1. write a small COMPAS γ-sweep spec to a JSON file;
2. launch ``python -m repro run SPEC --store SHARD_i --shard i/2`` for
   both shards **concurrently** — each computes only the cells
   whose task digest hashes to its index, into its own store;
3. ``python -m repro store merge MERGED SHARD_0 SHARD_1`` — the digest-
   keyed union (idempotent: re-running the merge dedupes 100%);
4. a final un-sharded ``run_spec`` over the merged store: every cell is
   a ledger hit, and the aggregates are bitwise identical to what a
   serial single-store run would have produced.

Run:  python examples/sharded_sweep.py [--store-root DIR] [--scale 0.2]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import RunSpec, compile_cells, run_spec, shard_of
from repro.store import RunLedger, merge_stores

N_SHARDS = 2


def spec_dict(scale: float) -> dict:
    return {
        "name": "sharded-compas-sweep",
        "datasets": [{"name": "compas", "scale": scale}],
        "methods": ["pfr"],
        "gammas": [0.0, 0.5, 1.0],
        "seeds": [0, 1],
        "harness": {"n_components": 3},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store-root", default=None,
                        help="directory for the shard + merged stores "
                             "(default: a temp dir)")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="COMPAS size fraction (default 0.2)")
    args = parser.parse_args()
    root = Path(args.store_root or tempfile.mkdtemp(prefix="repro-sharded-"))
    root.mkdir(parents=True, exist_ok=True)

    spec = RunSpec.from_dict(spec_dict(args.scale))
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec_dict(args.scale), indent=2))

    print("== 1. how the matrix shards ==")
    cells = compile_cells(spec)
    for i in range(N_SHARDS):
        mine = [c for c in cells if shard_of(c["digest"], N_SHARDS) == i]
        print(f"shard {i}/{N_SHARDS}: {len(mine)} of {len(cells)} cells")

    print("\n== 2. run both shards as concurrent subprocesses ==")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")] if p
    )
    start = time.perf_counter()
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "run",
             str(spec_path), "--store", str(root / f"shard{i}"),
             "--shard", f"{i}/{N_SHARDS}"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        for i in range(N_SHARDS)
    ]
    for i, proc in enumerate(procs):
        out, _ = proc.communicate()
        if proc.returncode != 0:
            print(out)
            raise SystemExit(f"shard {i} failed ({proc.returncode})")
        print(f"--- shard {i} ---")
        print(out.strip().splitlines()[-1])
    print(f"both shards done in {time.perf_counter() - start:.1f}s "
          "(wall-clock of the slower one — they ran concurrently)")

    print("\n== 3. merge the shard stores ==")
    report = merge_stores(
        root / "merged", *(root / f"shard{i}" for i in range(N_SHARDS))
    )
    print(f"copied {report.n_copied} entries, deduped {report.n_deduped}, "
          f"conflicts {report.n_conflicts}")
    again = merge_stores(
        root / "merged", *(root / f"shard{i}" for i in range(N_SHARDS))
    )
    print(f"re-merge is idempotent: copied {again.n_copied}, "
          f"dedupe rate {again.dedupe_rate:.0%}")
    problems = RunLedger(root / "merged").verify()["problems"]
    print(f"store verify on the merged ledger: {len(problems)} problems")

    print("\n== 4. report over the merged store ==")
    merged = run_spec(spec, store=root / "merged")
    print(f"{merged.n_total} cells: {merged.n_cached} cached, "
          f"{merged.n_computed} computed (nothing left to do)")
    serial = run_spec(spec, store=root / "serial")  # ground truth
    for key in serial.aggregates:
        assert merged.aggregates[key].mean == serial.aggregates[key].mean
        assert merged.aggregates[key].std == serial.aggregates[key].std
    print("merged aggregates are bitwise identical to a serial "
          "single-store run")
    print(f"\nstores live under {root} "
          f"(`python -m repro store stats --store {root / 'merged'}`)")


if __name__ == "__main__":
    main()
