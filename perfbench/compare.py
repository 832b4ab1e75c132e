"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory is a ``--out`` directory of ``run.py`` (or its ``results``
subdirectory) holding untraced result files, ideally ten seeds per
workload, run alternately on the base and the new commit. For every
end-to-end metric in BENCHMARK.json and every workload found on both sides
it prints each side's median and quartiles, the metric's bound and a
verdict:

* ``better``: the new side wins at least nine tenths of the paired runs
  (paired by seed; ties count for neither) and the medians differ by more
  than the base side's interquartile distance; or, when the spread is wider
  than the bound, every new run beats every base run;
* ``unresolved``: the spread of either side is wider than the bound;
* ``worse``: the new side fails a larger share of its operations than the
  base (whatever the times say), or the new median is worse than the base
  median by more than the bound;
* ``within bound``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_results(path: Path) -> dict:
    """workload -> {seed: result file contents}, untraced runs only."""
    results_dir = path / "results" if (path / "results").is_dir() else path
    out: dict = {}
    for file in sorted(results_dir.glob("*_trace0.json")):
        data = json.loads(file.read_text(encoding="utf-8"))
        out.setdefault(data["meta"]["workload"], {})[data["meta"]["seed"]] = data
    return out


def summary(values: list) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(base: list, new: list, pairs: list, bound: float, higher_is_better: bool,
            more_failures: bool) -> str:
    """Apply the pairing rule to one metric on one workload; see the module docstring."""
    if more_failures:
        return "worse"
    sign = 1.0 if higher_is_better else -1.0

    def better(a: float, b: float) -> bool:  # b better than a
        return sign * (b - a) > 0

    med_a, q1_a, q3_a = summary(base)
    med_b, q1_b, q3_b = summary(new)
    spread = max((q3_a - q1_a) / abs(med_a), (q3_b - q1_b) / abs(med_b))
    wins = sum(better(a, b) for a, b in pairs)
    claim = (bool(pairs) and wins >= 0.9 * len(pairs) and better(med_a, med_b)
             and abs(med_b - med_a) > q3_a - q1_a)
    if spread > bound:
        claim = all(better(a, b) for a in base for b in new)
        if not claim:
            return "unresolved"
    if claim:
        return "better"
    if sign * (med_a - med_b) > bound * abs(med_a):
        return "worse"
    return "within bound"


def error_rate(runs: dict) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs.values())
    failed = sum(r["result"]["failed"] for r in runs.values())
    return failed / attempted


def compare(base_dir: Path, new_dir: Path, contract: dict) -> list:
    base, new = load_results(base_dir), load_results(new_dir)
    rows = []
    for workload in [w for w in base if w in new]:
        a_runs, b_runs = base[workload], new[workload]
        more_failures = error_rate(b_runs) > error_rate(a_runs)
        common = sorted(set(a_runs) & set(b_runs))
        for spec in contract["end_to_end"]:
            name = spec["name"]

            def value(run):
                return run["result"]["metrics"][name]["value"]

            a = [value(r) for _, r in sorted(a_runs.items())]
            b = [value(r) for _, r in sorted(b_runs.items())]
            if common:
                pairs = [(value(a_runs[s]), value(b_runs[s])) for s in common]
            else:
                pairs = list(zip(a, b))
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "base": summary(a), "new": summary(b), "n": (len(a), len(b)),
                "bound": spec["bound"],
                "verdict": verdict(a, b, pairs, spec["bound"], spec["better"] == "higher",
                                   more_failures),
                "error_rate": (error_rate(a_runs), error_rate(b_runs)),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(args.base, args.new, contract)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 1
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            ea, eb = row["error_rate"]
            print(f"{workload}: error_rate base {ea:.4g}, new {eb:.4g}")
        (ma, qa1, qa3), (mb, qb1, qb3) = row["base"], row["new"]
        change = 100.0 * (mb - ma) / abs(ma)
        print(f"  {row['metric']:<16} {row['unit']:<4} base {ma:.5g} [{qa1:.5g}, {qa3:.5g}] "
              f"n={row['n'][0]}  new {mb:.5g} [{qb1:.5g}, {qb3:.5g}] n={row['n'][1]}  "
              f"{change:+.1f}%  bound {100 * row['bound']:.0f}%  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
