#!/usr/bin/env python3
"""Show which printed fields moved between the CLI output of two checkouts.

    python3 tests/compare_stdout.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two avgkernel
checkouts.  Every invocation of tests/stdout_corpus.py runs against both,
each side on its own fresh rule cache.  One line is printed per
invocation: "same <arguments>" when stdout, stderr and the exit code are
byte-identical, otherwise "diff <arguments>: " followed by each field that
moved and the largest relative change among its numbers, |new - old| /
|old|.  A field is a csv column (named by the "# columns:" header, else by
position), the label of a "#" trailer line, or a json key path; "text"
marks a field whose non-numeric value, or number of values, changed.
"stdout text" marks any change of the output other than in its numbers,
and "stderr text" a change of standard error.  The next-to-last line
gives, for each field that moved in its numbers, the largest relative
change over all invocations ("none" when no number moved), and the last
line counts the invocations that differ.  The exit code is 0 when none
differs, 1 when any does, and 2 on bad arguments.
"""

from __future__ import annotations

import json
import math
import re
import sys
import tempfile

from stdout_corpus import invocations, package_src, run, shown

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def fields(stdout: bytes) -> dict[str, list]:
    """The values of each field of one output, in output order."""
    text = stdout.decode("utf-8")
    values: dict[str, list] = {}
    if text.startswith("{"):
        def walk(node, path):
            if isinstance(node, dict):
                for key, item in node.items():
                    walk(item, f"{path}.{key}" if path else key)
            elif isinstance(node, list):
                for item in node:
                    walk(item, path)
            else:
                values.setdefault(path, []).append(node)
        walk(json.loads(text), "")
        return values
    names = None
    for line in text.splitlines():
        if line.startswith("# columns: "):
            names = line[len("# columns: "):].split(",")
        elif line.startswith("#"):
            label = line.split(" = ")[0]
            values.setdefault(label, []).extend(_NUMBER.findall(line[len(label):]))
        else:
            for i, item in enumerate(line.split(",")):
                name = names[i] if names and i < len(names) else f"column {i + 1}"
                values.setdefault(name, []).append(item)
    return values


def skeleton(stdout: str) -> str:
    """The output with every number replaced by 0: its text, which a
    change of printed digits leaves alone."""
    return _NUMBER.sub("0", stdout)


def change(old: list, new: list):
    """The largest relative change between two value lists; "text" when
    they differ other than in the numbers they hold."""
    if len(old) != len(new):
        return "text"
    worst = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        if isinstance(a, bool) or isinstance(b, bool):
            return "text"
        try:
            a, b = float(a), float(b)
        except (TypeError, ValueError):
            return "text"
        worst = max(worst, abs(b - a) / abs(a) if a else math.inf)
    return worst


def describe(old, new, largest: dict[str, float]) -> str:
    """The moved fields of two runs of one invocation, in output order;
    each numeric change also raises the field's entry in largest."""
    parts = [] if old.returncode == new.returncode else [
        f"exit code {old.returncode} -> {new.returncode}"]
    if old.stderr != new.stderr:
        parts.append("stderr text")
    try:
        before, after = fields(old.stdout), fields(new.stdout)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return ", ".join(parts + ["stdout (not parsed)"])
    if skeleton(old.stdout.decode("utf-8")) != skeleton(new.stdout.decode("utf-8")):
        parts.append("stdout text")
    for name in [*before, *(key for key in after if key not in before)]:
        moved = change(before.get(name, []), after.get(name, []))
        if moved == "text":
            parts.append(f"{name} text")
        elif moved:
            parts.append(f"{name} {moved:.1e}")
            largest[name] = max(largest.get(name, 0.0), moved)
    return ", ".join(parts) or "bytes only"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sources = [package_src(arg) for arg in sys.argv[1:]]
    for arg, src in zip(sys.argv[1:], sources):
        if src is None:
            print(f"compare_stdout: no avgkernel package under {arg}", file=sys.stderr)
            return 2
    differ = total = 0
    largest: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="avgkernel-compare-") as parent_cache, \
            tempfile.TemporaryDirectory(prefix="avgkernel-compare-") as change_cache:
        for args in invocations():
            old = run(sources[0], args, parent_cache)
            new = run(sources[1], args, change_cache)
            total += 1
            if (old.stdout, old.stderr, old.returncode) == (new.stdout, new.stderr,
                                                            new.returncode):
                print(f"same {shown(args)}", flush=True)
            else:
                differ += 1
                print(f"diff {shown(args)}: {describe(old, new, largest)}", flush=True)
    print("# largest change per field: " + (", ".join(
        f"{name} {moved:.1e}" for name, moved in largest.items()) or "none"))
    print(f"# {differ} of {total} invocations differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
