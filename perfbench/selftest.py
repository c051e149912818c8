#!/usr/bin/env python3
"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Checks, on table3 at order 30 with a cold cache:

1. The traced stdout equals the untraced stdout byte for byte, and every
   count repeats exactly across two traced runs.
2. One flipped byte in one cached rule file is seen from outside: the
   traced run reports rules.cache_corrupt == 1 and rules.build_calls == 1,
   and stdout is unchanged.

Prints each failed expectation and exits 1 if there is one.  The file is
not named test_*.py so the package's own pytest run does not collect it.
"""

from __future__ import annotations

import os
import shutil
import sys

import run

ARGV = ["table3", "--max-points", "30"]
VICTIM_ORDER = 12


def main() -> int:
    failures = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    run_dir = run.WORK / f"selftest-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        reference = run.cli(ARGV, run.fresh_dir(run_dir))
        expect(reference.rc == 0, f"untraced run exited {reference.rc}")
        reports = [run.traced_run(ARGV, run.fresh_dir(run_dir), off=False)[1]
                   for _ in range(2)]
        for i, report in enumerate(reports, start=1):
            expect(report.get("stdout", "").encode("utf-8") == reference.stdout,
                   f"traced run {i} stdout differs from the untraced run")
        moved = run.moved_counts(reports[0]["layers"], reports[1]["layers"])
        expect(not moved, f"counts differ between traced runs: {moved}")
        expect(reports[0]["layers"]["rules.cache_misses"] == 30,
               "a cold order-30 run should miss 30 rules")

        cache = run.fresh_dir(run_dir)
        filled = run.cli(ARGV, cache)
        victim = cache / f"glq_{VICTIM_ORDER}.csv"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        _, report = run.traced_run(ARGV, cache, off=False)
        layers = report["layers"]
        expect(layers["rules.cache_corrupt"] == 1,
               f"rules.cache_corrupt = {layers['rules.cache_corrupt']}, expected 1")
        expect(layers["rules.build_calls"] == 1,
               f"rules.build_calls = {layers['rules.build_calls']}, expected 1")
        expect(report["stdout"].encode("utf-8") == filled.stdout,
               "stdout changed after recomputing the corrupt rule")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for message in failures:
        print(f"selftest: FAILED {message}", file=sys.stderr)
    print("selftest: " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
