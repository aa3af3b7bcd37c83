"""Summarise or compare sets of benchmark records written by run.py.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

With one directory, prints for each workload and end-to-end metric the median,
the quartiles and the spread (quartile distance over median) beside the
metric's bound. With two, prints both sides and a verdict per workload and
metric, then the per-layer self-time deltas of the traced runs.

Verdict rule (run length and benchmark code the same on both sides):
  improved        at least ten pairs (matched by seed), the change wins at least
                  nine tenths of them, ties counting for neither, and the medians
                  differ in its favour by more than the parent's quartile distance
  unresolved      otherwise, when the parent's spread is wider than the bound,
                  unless every change run beats every parent run (within bound)
  worse           the change's median is worse than the parent's by more than the bound
  within bound    otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(directory: str) -> dict[tuple[str, int], list[dict]]:
    """Records keyed by (workload, trace flag)."""
    out: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        rec = json.loads(path.read_text())
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_by_seed(records: list[dict], metric: str) -> dict[int, float]:
    out = {}
    for rec in records:
        m = rec["result"]["metrics"].get(metric)
        if m is not None:
            out.setdefault(rec["seed"], []).append(m["value"])
    return {seed: statistics.median(v) for seed, v in out.items()}


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0 means the change is better
    p, c = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p)
    c_med = statistics.median(c)
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(sign * (cv - pv) < 0 for pv, cv in pairs)
    gain = sign * (p_med - c_med)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1:
        return "improved"
    if (p_q3 - p_q1) / p_med > bound:
        return "within bound" if all(sign * (cv - pv) < 0 for cv in c for pv in p) else "unresolved"
    if -gain > bound * p_med:
        return "worse"
    return "within bound"


def summarise(sets: list[dict], bench: dict) -> None:
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"== {workload}")
        for m in bench["end_to_end"]:
            cells = []
            for recs in sets:
                vals = list(values_by_seed(recs.get((workload, 0), []), m["name"]).values())
                if not vals:
                    cells.append("no runs")
                    continue
                q1, med, q3 = quartiles(vals)
                cells.append(f"n={len(vals)} median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {(q3 - q1) / med:.3f}")
            line = f"  {m['name']:<14} {m['unit']:<3} bound {m['bound']:<5} " + " | ".join(cells)
            if len(sets) == 2:
                parent = values_by_seed(sets[0].get((workload, 0), []), m["name"])
                change = values_by_seed(sets[1].get((workload, 0), []), m["name"])
                line += "  -> " + (verdict(parent, change, m["better"], m["bound"]) if parent and change else "no runs")
            print(line)


def layer_deltas(sets: list[dict], bench: dict) -> None:
    names = [m["name"] for m in bench["per_layer"]]
    for workload in [w["name"] for w in bench["workloads"]]:
        parent = sets[0].get((workload, 1), [])
        change = sets[1].get((workload, 1), [])
        if not parent or not change:
            print(f"== {workload} per-layer: no traced runs on both sides")
            continue
        print(f"== {workload} per-layer (median of {len(parent)} parent / {len(change)} change traced runs)")
        rows = []
        for name in names:
            if not (name.endswith("ms") or name == "cost.mac_mismatches"):
                continue
            p = statistics.median(r["result"]["metrics"][name]["value"] for r in parent)
            c = statistics.median(r["result"]["metrics"][name]["value"] for r in change)
            if p or c:
                rows.append((abs(c - p), name, p, c))
        for _, name, p, c in sorted(rows, reverse=True):
            pct = f"{(c - p) / p * 100:+.1f}%" if p else "new"
            print(f"  {name:<44} {p:10.4g} -> {c:10.4g}  {c - p:+10.4g}  {pct}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    sets = [load_records(d) for d in argv]
    summarise(sets, bench)
    if len(sets) == 2:
        layer_deltas(sets, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
