#!/usr/bin/env python3
"""How close the remainder estimate R comes to the true error of Q_k.

    python3 tests/estimator_study.py SRC [--draws N] [--orders K ...]

SRC is the `src` directory of an avgkernel checkout, whose package runs
the study.  The draws are the first N (default 500) kernels that
support.random_mixture draws from each of random.Random(3) and
random.Random(4); each has a closed-form Q.  At each order k (default 120
and 361) every draw runs through average.pre_exponential_factor on the
rules of extrapolate.fit_orders(k), on a fresh temporary rule cache, as
`report --max-points k` runs it.

Stdout gets one JSON object, which ACCURACY.json holds for the defaults.
Per order: the count of each fit status; over the `estimated` fits, the
quantiles of R/|true|, true = Q - Q_k, and the count of fits with
R/|true| < 0.5 (unsafe: `check` can fail a correct p) and with 0.5 to
0.9; and for each unsafe fit its draw, C, and the half slopes of its
sampled points, fit_slope of the first 4 and of the last 4 (n, eps_n),
with their gap.  A change to extrapolate, the rules or the 2D sum runs
this on the parent's and its own SRC and compares the two outputs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

SEEDS = (3, 4)
QUANTILES = {"min": 0.0, "1%": 0.01, "5%": 0.05, "50%": 0.5, "95%": 0.95, "max": 1.0}


def quantile(ordered: list[float], share: float) -> float:
    """The share-quantile of ascending values, interpolated linearly."""
    pos = share * (len(ordered) - 1)
    i = int(pos)
    if i == len(ordered) - 1:
        return ordered[i]
    return ordered[i] + (pos - i) * (ordered[i + 1] - ordered[i])


def half_slopes(values: dict[int, float], k: int) -> list[float | None]:
    """fit_slope of the first and of the last 4 sampled (n, eps_n) of the
    default window of k: None for a half with fewer than two errors."""
    from avgkernel.extrapolate import DegenerateFitError, _samples, fit_slope, fit_window

    points = [(n, abs(values[n + 1] - values[n])) for n in _samples(fit_window(k))]
    slopes = []
    for half in (points[:4], points[-4:]):
        try:
            slopes.append(fit_slope(half))
        except DegenerateFitError:
            slopes.append(None)
    return slopes


def study(draws: list[tuple[str, str, float]], k: int, cache: str) -> dict:
    """The record of one order k over draws (label, kernel text, exact Q)."""
    from avgkernel.average import pre_exponential_factor
    from avgkernel.extrapolate import fit_orders
    from avgkernel.kernels import parse_kernel
    from avgkernel.tensor_quad import load_rules

    rules = load_rules(fit_orders(k), cache)
    statuses: dict[str, int] = {}
    ratios, unsafe = [], []
    for label, text, exact in draws:
        result = pre_exponential_factor(parse_kernel(text), rules)
        fit = result.fit
        statuses[fit.status] = statuses.get(fit.status, 0) + 1
        if fit.status != "estimated":
            continue
        ratio = fit.remainder / abs(exact - result.values[-1])
        ratios.append(ratio)
        if ratio < 0.5:
            first, last = half_slopes(dict(zip(fit_orders(k), result.values)), k)
            gap = None if None in (first, last) else abs(first - last)
            unsafe.append({"draw": label, "r_over_true": ratio, "C": fit.slope,
                           "half_slopes": [first, last], "gap": gap})
    ratios.sort()
    return {
        "statuses": dict(sorted(statuses.items())),
        "r_over_true": {name: quantile(ratios, share) for name, share in QUANTILES.items()}
        if ratios else None,
        "below_0.5": sum(r < 0.5 for r in ratios),
        "0.5_to_0.9": sum(0.5 <= r < 0.9 for r in ratios),
        "unsafe": unsafe,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--draws", type=int, default=500)
    parser.add_argument("--orders", type=int, nargs="+", default=[120, 361])
    args = parser.parse_args()
    if not (args.src / "avgkernel" / "cli.py").is_file():
        print(f"estimator_study: no avgkernel package under {args.src}", file=sys.stderr)
        return 2
    # the package under SRC, also for support's own imports
    sys.path.insert(0, str(args.src.resolve()))
    from support import random_mixture

    draws = []
    for seed in SEEDS:
        rng = random.Random(seed)
        draws += [(f"{seed}:{i}", *random_mixture(rng)) for i in range(args.draws)]
    with tempfile.TemporaryDirectory(prefix="avgkernel-study-") as cache:
        record = {"seeds": list(SEEDS), "draws_per_seed": args.draws,
                  "orders": {str(k): study(draws, k, cache) for k in args.orders}}
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
