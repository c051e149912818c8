#!/usr/bin/env python3
"""Freeze the CLI output of a corpus of invocations as the golden that a
tier-1 test holds the package to.

    python3 tests/stdout_corpus.py --freeze SRC

SRC is the `src` directory of an avgkernel checkout.  The corpus runs every
subcommand in csv and json: `rule` and `table3` once each, and `converge`,
`report` and `check` for the four builtins and two expression kernels, all
at order 60, on a fresh temporary rule cache; then `table3` once more with
caching disabled, which builds every rule in the process;
then, again in both formats, the invocations of EDGE_CASES, which reach
the other statuses and exit codes, the largest rule order and the paper's
Table 3 at its default order: 98 invocations in all.

It writes tests/corpus_golden.json: for each invocation its arguments,
exit code, standard error, standard output with every number replaced by
0 (compare_stdout.skeleton), and the printed fields with their numbers
(golden_fields).  tests/test_corpus_golden.py runs the corpus in-process
and compares against it, and tests/compare_stdout.py runs it against two
checkouts.  A change that means to alter the output regenerates the
golden, and the golden's diff shows what moved.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "corpus_golden.json"
ORDER = "60"
SAMPLE = 100
KERNELS = (
    "FM", "CR", "SC", "SD",
    "(x^(-1/3)+y^(-1/3))*(x^(2/3)+y^(2/3))",
    "(x^(1/6)+y^(1/6))*(x^(1/3)+y^(1/3))",
)
# A series too short for a fit (status short), explicit fit windows, a
# kernel integrated exactly (exact), one whose fitted slope allows no
# remainder (divergent, and an oracle overflow: exit 3), a kernel with a
# wrong declared degree (exit 1), rejected arguments (exit 2), among them
# a degree that is not finite, the rule of the largest order accepted,
# whose build renormalizes the recurrence's terms at the most checks (they
# reach far beyond double range), table3 at its default order 361, an
# asymmetric kernel, whose warning names the sample pair where its two
# orientations differ most, a kernel undefined at one orientation of a
# sample pair only (exit 3), and a kernel whose expression holds every
# operator node: unary '-', abs, '+', '-', '*', '/' and '^', and the
# constant-only -(1/2); a kernel text with a line break, whose label is
# single-spaced, one whose oracle overflows (exit 3, one line of standard
# error), one wrapped in 400 parentheses, two whose beta_bar = p*u^q is
# not finite at u = 2, one by p*u^q and one by u^q alone (exit 3), and a
# two-order fit window where one order only has an error to fit (exit 3).
EDGE_CASES = (
    ["rule", "--points", "2000"],
    ["table3"],
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
    ["report", "--kernel", "q=1; abs(x-2*y)", "--max-points", ORDER],
    ["report", "--kernel", "(x-2*y)^0.5", "--max-points", ORDER],
    ["check", "--kernel", "2*x*y/abs(-x-y) - -(1/2)*(x+y)^(3/2)/(x^2+y^2)^(1/4)",
     "--max-points", ORDER],
    ["report", "--kernel", "x*y\n*(x+y)", "--max-points", "30"],
    ["check", "--kernel", "1e300*(x^-0.99*y + x*y^-0.99)", "--max-points", "120"],
    ["report", "--kernel", "(" * 400 + "x+y" + ")" * 400, "--max-points", "20"],
    ["check", "--kernel", "q=40; 1e300*(x+y)", "--max-points", "20"],
    ["check", "--kernel", "q=2000; x+y", "--max-points", "20"],
    *([command, "--kernel", "x*y + 2e-06*abs(x-2*y)*abs(2*x-y)", "--max-points", "30",
       "--fit-window", "26:27", "--cache-dir", ""] for command in ("converge", "report")),
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
    """args on one line: an empty argument as '', and one that holds
    whitespace in single quotes, with a line break written as \\n."""
    return " ".join("''" if not arg else arg if not any(c.isspace() for c in arg)
                    else "'" + arg.replace("\n", "\\n") + "'" for arg in args)


def golden_fields(args: list[str], stdout: str) -> dict[str, list]:
    """compare_stdout.fields of one output, as the golden holds them: a
    json invocation keeps every SAMPLE-th value and the last of a field
    longer than SAMPLE, since its csv twin holds every value and its text,
    one 0 per number, holds their count."""
    from compare_stdout import fields

    found = fields(stdout.encode("utf-8"))
    if "json" not in args:
        return found
    return {name: values[::SAMPLE] + values[-1:] if len(values) > SAMPLE else values
            for name, values in found.items()}


def record(args: list[str], rc: int, stdout: str, stderr: str) -> dict:
    """The golden entry of one invocation."""
    from compare_stdout import skeleton

    return {"args": args, "rc": rc, "stderr": stderr,
            "text": skeleton(stdout), "fields": golden_fields(args, stdout)}


def main() -> int:
    if len(sys.argv) != 3 or sys.argv[1] != "--freeze":
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = package_src(sys.argv[2])
    if src is None:
        print(f"stdout_corpus: no avgkernel package under {sys.argv[2]}", file=sys.stderr)
        return 2
    golden = []
    with tempfile.TemporaryDirectory(prefix="avgkernel-corpus-") as cache:
        for args in invocations():
            proc = run(src, args, cache)
            golden.append(record(args, proc.returncode, proc.stdout.decode("utf-8"),
                                 proc.stderr.decode("utf-8")))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} invocations to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
