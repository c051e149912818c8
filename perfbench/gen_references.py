#!/usr/bin/env python3
"""Regenerate perfbench/references.json.

    python3 perfbench/gen_references.py [--outputs CACHE_DIR]

Always recomputes the FM and SD double integrals from the exact 1D
reduction Q = Gamma(q+2) * int_0^1 beta(t, 1-t) dt with 30-digit mpmath
quadrature split at t = 1/2 (the SD kink), and cross-checks the reduction
against the SC and CR closed forms.

With --outputs it also re-freezes the p values the current avgkernel
prints: table3 at orders 60, 120 and 361, and report at order 120 for each
check-expr family member.  Those values are the baseline the benchmark's
drift check and p_err_ratio compare against, so refreeze them only on
purpose.  CACHE_DIR is a rule cache to use; a cold order-361 fill takes
minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp

from references import DATA_PATH, family_kernel, family_members, parse_table3

ROOT = Path(__file__).resolve().parent.parent
TABLE3_ORDERS = (60, 120, 361)
FAMILY_ORDER = 120


def q_1d(beta, q) -> mp.mpf:
    return mp.gamma(q + 2) * mp.quad(lambda t: beta(t, 1 - t), [0, mp.mpf(1) / 2, 1])


def integrals() -> dict[str, str]:
    mp.mp.dps = 30
    c = mp.cbrt
    third = mp.mpf(1) / 3
    q = {
        "FM": q_1d(lambda x, y: mp.sqrt(1 / x + 1 / y) * (c(x) + c(y)) ** 2, third / 2),
        "SD": q_1d(lambda x, y: (c(x) + c(y)) ** 3 * abs(c(x) - c(y)), 4 * third),
    }
    sc = q_1d(lambda x, y: (c(x) + c(y)) ** 3, 1)
    cr = q_1d(lambda x, y: (1 / c(x) + 1 / c(y)) * (c(x) + c(y)), 0)
    sc_closed = 2 + 6 * mp.gamma(5 * third) * mp.gamma(4 * third)
    cr_closed = 2 + 2 * mp.gamma(4 * third) * mp.gamma(2 * third)
    for name, got, want in (("SC", sc, sc_closed), ("CR", cr, cr_closed)):
        if abs(got - want) > mp.mpf(10) ** -20 * want:
            raise SystemExit(f"1D reduction disagrees with the {name} closed form")
    return {k: mp.nstr(v, 30) for k, v in q.items()}


def cli(argv: list[str], cache_dir: str) -> str:
    env = dict(os.environ, AVGKERNEL_CACHE_DIR=cache_dir,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "avgkernel", *argv], env=env,
                          check=True, capture_output=True, text=True).stdout


def frozen_outputs(cache_dir: str) -> tuple[dict, dict]:
    table3 = {}
    for order in TABLE3_ORDERS:
        rows = parse_table3(cli(["table3", "--max-points", str(order)], cache_dir))
        table3[str(order)] = {k: repr(v) for k, v in rows.items()}
    family = {}
    for a, b in family_members():
        text = cli(["report", "--kernel", family_kernel(a, b),
                    "--max-points", str(FAMILY_ORDER)], cache_dir)
        family[family_kernel(a, b)] = repr(float(text.splitlines()[1].split(",")[5]))
    return table3, {str(FAMILY_ORDER): family}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--outputs", metavar="CACHE_DIR",
                        help="also re-freeze the p values avgkernel prints")
    args = parser.parse_args()
    data = json.loads(DATA_PATH.read_text(encoding="utf-8")) if DATA_PATH.exists() else {}
    data["q_1d"] = integrals()
    if args.outputs:
        data["table3_p"], data["family_p"] = frozen_outputs(args.outputs)
    DATA_PATH.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
