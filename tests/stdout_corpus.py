#!/usr/bin/env python3
"""Print one sha256 of standard output per CLI invocation of a corpus.

    python3 tests/stdout_corpus.py SRC > corpus.txt

SRC is the `src` directory of an avgkernel checkout.  The corpus runs every
subcommand in csv and json: `rule` and `table3` once each, and `converge`,
`report` and `check` for the four builtins and two expression kernels, all
at order 60, on a fresh temporary rule cache; then `table3` once more with
caching disabled, which builds every rule in the process; then, again in
both formats, the invocations of EDGE_CASES, which reach the other
statuses and exit codes and the largest rule order.  Each output line is
"<sha256 of stdout> rc=<exit code> <arguments>", so the corpora of two
checkouts, compared with diff, show every invocation whose output changed.
A refactor that must keep stdout byte-identical runs it on both sides.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ORDER = "60"
KERNELS = (
    "FM", "CR", "SC", "SD",
    "(x^(-1/3)+y^(-1/3))*(x^(2/3)+y^(2/3))",
    "(x^(1/6)+y^(1/6))*(x^(1/3)+y^(1/3))",
)
# A series too short for a fit (status short), explicit fit windows, a
# kernel integrated exactly (exact), one whose fitted slope allows no
# remainder (divergent, and an oracle overflow: exit 3), a kernel with a
# wrong declared degree (exit 1), rejected arguments (exit 2), among them
# a degree that is not finite, and the rule of the largest order accepted,
# the only one whose build rescales the recurrence's terms.
EDGE_CASES = (
    ["rule", "--points", "2000"],
    ["converge", "--kernel", "SC", "--max-points", "10"],
    ["converge", "--kernel", "SC", "--max-points", ORDER, "--fit-window", "5:20"],
    ["report", "--kernel", "SC", "--max-points", ORDER, "--fit-window", "5:20"],
    *([command, "--kernel", kernel, "--max-points", ORDER]
      for kernel in ("x*y", "q=-2; 1/(x*y)")
      for command in ("converge", "report", "check")),
    ["check", "--kernel", "q=0.5; 2", "--max-points", ORDER],
    ["report", "--kernel", "SC", "--max-points", "19"],
    ["converge", "--kernel", "SC", "--max-points", ORDER, "--fit-window", "20:5"],
    ["converge", "--kernel", "SC", "--max-points", "10", "--fit-window", "2:5"],
    ["check", "--kernel", "x + y + 1", "--max-points", ORDER],
    *([command, "--kernel", "q=1e400; x*y/(x+y)", "--max-points", ORDER]
      for command in ("report", "check")),
)


def invocations():
    for fmt in ("csv", "json"):
        yield ["rule", "--points", ORDER, "--format", fmt]
        yield ["table3", "--max-points", ORDER, "--format", fmt]
        for command in ("converge", "report", "check"):
            for kernel in KERNELS:
                yield [command, "--kernel", kernel, "--max-points", ORDER,
                       "--format", fmt]
    for fmt in ("csv", "json"):
        yield ["table3", "--max-points", ORDER, "--format", fmt, "--cache-dir", ""]
    for fmt in ("csv", "json"):
        for args in EDGE_CASES:
            yield [*args, "--format", fmt]


def package_src(arg: str) -> Path | None:
    """The resolved `src` directory, or None if it holds no avgkernel."""
    src = Path(arg).resolve()
    return src if (src / "avgkernel" / "cli.py").is_file() else None


def run(src: Path, args: list[str], cache: str) -> subprocess.CompletedProcess:
    """One CLI invocation of the package under src, on the rule cache
    `cache` unless args name their own."""
    cache_args = [] if "--cache-dir" in args else ["--cache-dir", cache]
    return subprocess.run(
        [sys.executable, "-m", "avgkernel", *args, *cache_args],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, check=False,
    )


def shown(args: list[str]) -> str:
    return " ".join(arg or "''" for arg in args)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = package_src(sys.argv[1])
    if src is None:
        print(f"stdout_corpus: no avgkernel package under {sys.argv[1]}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="avgkernel-corpus-") as cache:
        for args in invocations():
            proc = run(src, args, cache)
            digest = hashlib.sha256(proc.stdout).hexdigest()
            print(f"{digest} rc={proc.returncode} {shown(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
