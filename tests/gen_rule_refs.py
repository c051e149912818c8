#!/usr/bin/env python3
"""Regenerate tests/rule_refs.json, the 40-digit rules behind test_rules.py.

    python3 tests/gen_rule_refs.py

Builds the Gauss-Laguerre rules of orders 10, 100 and 361 with
tests/gen_q361.py's 40-digit mpmath builder, independently of avgkernel,
asserts that each rule's weights sum to 1, and writes every node and
weight as a 40-digit decimal string.  Runs in about seven seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

from gen_q361 import DPS, gauss_laguerre

ORDERS = (10, 100, 361)
OUT = Path(__file__).with_name("rule_refs.json")


def main() -> int:
    mp.mp.dps = DPS
    refs = {}
    for k in ORDERS:
        nodes, weights = gauss_laguerre(k)
        err = abs(mp.fsum(weights) - 1)
        assert err <= mp.mpf(10) ** (8 - DPS), f"order {k}: weights sum to 1 {mp.nstr(err, 3)} off"
        refs[str(k)] = {"nodes": [mp.nstr(x, DPS) for x in nodes],
                        "weights": [mp.nstr(w, DPS) for w in weights]}
    OUT.write_text(json.dumps(refs, indent=1) + "\n", encoding="ascii")
    print(f"wrote {OUT.name}: orders {', '.join(map(str, ORDERS))} at {DPS} digits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
