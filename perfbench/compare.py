"""Compare two sets of benchmark runs: parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the run records ``run.py`` writes (``--out``). For
every workload × end-to-end metric it prints each side's median and
quartiles, the share of run pairs the change won, the change's median as a
ratio of the parent's (with that base), and a verdict under the bound in
BENCHMARK.json:

* ``better``     the change won at least 90% of pairs and the medians
  differ by more than the parent's own quartile spread;
* ``worse``      the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` either side's quartile spread exceeds the bound and not
  every change run beats every parent run;
* ``no worse``   otherwise.

A last row per workload compares the reference-kernel time each run
records before and after its work. It is the machine's speed, not the
program's: when it differs between the sides, so did the machine.

Runs are paired by seed when both sides ran the same seeds, otherwise
every parent run is paired with every change run. Ties count for neither.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import quartiles  # noqa: E402


def load_runs(directory) -> dict:
    """``{workload: {seed: {metric: value}}}`` from untraced run records.

    Each run's median reference-kernel time rides along as the pseudo
    metric ``reference_s``: a machine-speed reading, not a result.
    """
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") or "result" not in record:
            continue
        metrics = {
            name: entry["value"]
            for name, entry in record["result"]["metrics"].items()
        }
        reference = record.get("notes", {}).get("reference_s")
        if reference:
            metrics["reference_s"] = statistics.median(reference)
        runs.setdefault(record["workload"], {})[record["seed"]] = metrics
    return runs


#: The machine-speed reading, compared like a metric so that a difference
#: in machine state between the two sides shows next to the results.
REFERENCE = {"name": "reference_s", "unit": "s", "better": "lower", "bound": 0.1}


def _beats(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def pairs(parent: dict, change: dict) -> list:
    """``(parent value, change value)`` pairs, matched by seed when possible."""
    if set(parent) == set(change):
        return [(parent[seed], change[seed]) for seed in sorted(parent)]
    return [(p, c) for p in parent.values() for c in change.values()]


def verdict(parent: list, change: list, paired: list, better: str,
            bound: float) -> dict:
    """Compare one metric's parent and change values under ``bound``."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in paired if _beats(c, p, better))
    won = wins / len(paired) if paired else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                  (c3 - c1) / abs(cm) if cm else 0.0)
    every = all(_beats(c, p, better) for p in parent for c in change)
    worse_by = (cm - pm) / abs(pm) if better == "lower" else (pm - cm) / abs(pm)
    if spread > bound and not every:
        label = "unresolved"
    elif won >= 0.9 and abs(cm - pm) > (p3 - p1) and _beats(cm, pm, better):
        label = "better"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "no worse"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "won": won,
        "ratio": cm / pm if pm else float("nan"),
        "spread": spread,
        "verdict": label,
    }


def compare(parent_dir, change_dir, benchmark) -> list:
    spec = json.loads(Path(benchmark).read_text())
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        for metric in spec["end_to_end"] + [REFERENCE]:
            name = metric["name"]
            p = {seed: m[name] for seed, m in parent.items() if name in m}
            c = {seed: m[name] for seed, m in change.items() if name in m}
            if not p or not c:
                continue
            row = verdict(list(p.values()), list(c.values()), pairs(p, c),
                          metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "bound": metric["bound"], **row})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change, args.benchmark)
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    header = (f"{'workload':10s} {'metric':12s} {'parent q1/med/q3':>28s} "
              f"{'change q1/med/q3':>28s} {'won':>5s} {'ratio (of base)':>24s}  verdict")
    print(header)
    for row in rows:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        base = f"{row['ratio']:.3f} of {row['parent'][1]:.4g} {row['unit']}"
        print(f"{row['workload']:10s} {row['metric']:12s} {fmt(row['parent']):>28s} "
              f"{fmt(row['change']):>28s} {row['won']:5.0%} {base:>24s}  "
              f"{row['verdict']} (bound {row['bound']:.0%}, spread {row['spread']:.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
