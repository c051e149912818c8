#!/usr/bin/env python3
"""Compare the end-to-end benchmark of two checkouts in alternating pairs.

    python3 tests/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W \\
        --pairs N --seconds S --seed-base B

PARENT_ROOT and CHANGE_ROOT are the roots of two avgkernel checkouts.  Pair
i runs `perfbench/run.py --workload W --seed B+i --seconds S --trace 0`
from each root, each in its own directory, the parent first in even pairs
and the change first in odd ones, and reads the last JSON line of each run.
Each run's metrics go to stderr as it ends.  Stdout gets one row per
end-to-end metric of the parent's BENCHMARK.json: the medians and quartiles
of both sides, the pairs the change won, and the verdict of `verdict`.
A last line counts the failed operations of each side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# a gain needs the change to win this share of the pairs
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads better; ties count for neither."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Judge one metric from paired runs: parent[i] and change[i] are pair i.

    "gain": the change wins at least WIN_SHARE of the pairs (ties count for
    neither) and its median is better by more than the parent's quartile
    distance.  "regression": its median is worse than the parent's by more
    than bound, a share of the parent's median.  "unresolved": neither, and
    the quartile distance of either side exceeds bound as a share of the
    parent's median, unless every change run is better than every parent
    run.  Otherwise "no regression".
    """
    won = wins(parent, change, better)
    sign = 1.0 if better == "lower" else -1.0
    # after this, lower is better for every metric
    parent = [sign * v for v in parent]
    change = [sign * v for v in change]
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    if won >= WIN_SHARE * len(parent) and p_median - c_median > p3 - p1:
        return "gain"
    scale = abs(p_median)
    if c_median - p_median > bound * scale:
        return "regression"
    if max(p3 - p1, c3 - c1) > bound * scale and max(change) >= min(parent):
        return "unresolved"
    return "no regression"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one perfbench run from root."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    cp = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if cp.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} exited {cp.returncode}:\n{cp.stderr}")
    return json.loads(cp.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(roots[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            values = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
            print(f"# pair {i + 1} seed {seed} {side}: {values} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)

    print(f"# {args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, "
          f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}; "
          f"median [quartiles], parent -> change")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        moved = f"{(cm - pm) / abs(pm):+.1%}" if pm else "n/a"
        print(f"{name:12s} {pm:.4g} [{p1:.4g}, {p3:.4g}] -> {cm:.4g} [{c1:.4g}, {c3:.4g}] "
              f"{metric['unit']}  {moved}  wins {wins(parent, change, metric['better'])}/{args.pairs}  "
              f"{verdict(parent, change, metric['better'], metric['bound'])} "
              f"(bound {metric['bound']:g})")
    failed = {side: (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
              for side, rs in runs.items()}
    print(f"# failed operations: parent {failed['parent'][0]}/{failed['parent'][1]}, "
          f"change {failed['change'][0]}/{failed['change'][1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
