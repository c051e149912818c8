#!/usr/bin/env python3
"""Closed-loop end-to-end and per-layer benchmark of the avgkernel CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the real CLI (`python -m avgkernel ...`) as a child
process, one invocation at a time, with AVGKERNEL_CACHE_DIR pointing at a
directory the benchmark owns under .bench_build/.  Every output is checked
against the independent references in references.py.  --trace 0 measures
the end-to-end metrics for --seconds seconds; --trace 1 runs tracer.py
instead and reports per-layer counts and times.  The last line of stdout is
one JSON object whose metric names and units come from BENCHMARK.json.

Workloads, metrics and the reasons for each are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from references import (
    TABLE3_RELTOL,
    builtin_p_exact,
    family_kernel,
    family_member,
    family_p_exact,
    load_data,
    parse_check,
    parse_table3,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("cold-table3", "warm-table3", "check-expr")
FULL_ORDER = 361        # the prefilled cache warm workloads read
SETUP_ORDER = 60        # cold fill repeated as the set-up sample
SETUP_SAMPLES = 3
STARTUP_SAMPLES = 3
FILL_TIMEOUT_S = 850.0
CHILD_TIMEOUT_S = 150.0


@dataclass
class Invocation:
    """One finished child process with its resource use."""

    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Accuracy:
    """One printed p against its exact value and its frozen baseline."""

    p: float
    exact: float
    frozen: float

    @property
    def rel_err(self) -> float:
        return abs(self.p - self.exact) / abs(self.exact)

    @property
    def ratio(self) -> float:
        return abs(self.p - self.exact) / abs(self.frozen - self.exact)


@dataclass
class Tally:
    """Checked invocations of one run."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    accuracy: list[Accuracy] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, what: str, problems: list[str], accuracy=()) -> None:
        self.attempted += 1
        self.accuracy.extend(accuracy)
        if problems:
            self.problems.append(f"{what}: {'; '.join(problems)}")


def child_env(cache_dir: Path) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, AVGKERNEL_CACHE_DIR=str(cache_dir))


def run_child(cmd: list[str], cache_dir: Path, timeout_s: float = CHILD_TIMEOUT_S) -> Invocation:
    """Run cmd to completion and collect its own rusage (os.wait4)."""
    with tempfile.TemporaryFile(dir=cache_dir.parent) as out, \
            tempfile.TemporaryFile(dir=cache_dir.parent) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(cache_dir),
                                cwd=ROOT)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(proc.returncode, out.read(), err.read(), wall,
                          usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli(argv: list[str], cache_dir: Path, timeout_s: float = CHILD_TIMEOUT_S) -> Invocation:
    return run_child([sys.executable, "-m", "avgkernel", *argv], cache_dir, timeout_s)


def fresh_dir(run_dir: Path) -> Path:
    return Path(tempfile.mkdtemp(prefix="cache-", dir=run_dir))


def source_key() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def full_cache() -> Path:
    """Rules 1..FULL_ORDER filled by this checkout's CLI, built once.

    The fill takes minutes at seed, too long to repeat in every run, so it
    is the benchmark's build step; the key follows the package source.
    """
    target = WORK / f"glq-{FULL_ORDER}-{source_key()}"
    if target.is_dir():
        return target
    tmp = WORK / f"fill-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    print(f"perfbench: filling the order 1..{FULL_ORDER} rule cache (one time)",
          file=sys.stderr)
    inv = cli(["table3", "--max-points", str(FULL_ORDER)], tmp, FILL_TIMEOUT_S)
    if inv.rc != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise SystemExit(f"perfbench: cache fill failed with exit code {inv.rc}:\n"
                         f"{inv.stderr.decode(errors='replace')}")
    print(f"perfbench: cache fill took {inv.wall_s:.1f} s", file=sys.stderr)
    try:
        tmp.rename(target)
    except OSError:  # another run finished the same fill first
        shutil.rmtree(tmp, ignore_errors=True)
    return target


def workload_argv(workload: str, seed: int) -> list[str]:
    if workload == "cold-table3":
        return ["table3", "--max-points", "120"]
    if workload == "warm-table3":
        return ["table3"]
    return ["check", "--max-points", "120", "--kernel", family_kernel(*family_member(seed))]


def table3_check(inv_rc: int, stdout: bytes, order: int, data: dict):
    """Problems and accuracy of one table3 output at the given order."""
    if inv_rc != 0:
        return [f"exit code {inv_rc}"], []
    try:
        rows = parse_table3(stdout.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"unparsable output: {exc}"], []
    problems, accuracy = [], []
    for kernel_id, p in rows.items():
        frozen = float(data["table3_p"][str(order)][kernel_id])
        if abs(p - frozen) > TABLE3_RELTOL * abs(frozen):
            problems.append(f"{kernel_id} p = {p!r} drifted from {frozen!r}")
        accuracy.append(Accuracy(p, builtin_p_exact(kernel_id, data), frozen))
    return problems, accuracy


def expr_check(inv_rc: int, stdout: bytes, seed: int, data: dict):
    """Problems and accuracy of one check-expr output."""
    a, b = family_member(seed)
    if inv_rc != 0:
        return [f"exit code {inv_rc}"], []
    try:
        rows, passed = parse_check(stdout.decode("utf-8"))
        p, tol = rows[1.0]
    except (UnicodeDecodeError, ValueError, KeyError) as exc:
        return [f"unparsable output: {exc}"], []
    exact = family_p_exact(a, b)
    problems = [] if passed else ["check did not pass"]
    if abs(p - exact) > tol:
        problems.append(f"|p - p_exact| = {abs(p - exact):.3e} exceeds tol {tol:.3e}")
    frozen = float(data["family_p"]["120"][family_kernel(a, b)])
    return problems, [Accuracy(p, exact, frozen)]


def output_check(workload: str, seed: int, rc: int, stdout: bytes, data: dict):
    if workload == "check-expr":
        return expr_check(rc, stdout, seed, data)
    return table3_check(rc, stdout, 120 if workload == "cold-table3" else FULL_ORDER, data)


def prepare_cache(workload: str, run_dir: Path, full: Path) -> Path:
    cache = fresh_dir(run_dir)
    if workload != "cold-table3":
        shutil.copytree(full, cache, dirs_exist_ok=True)
    return cache


def setup_sample(workload: str, run_dir: Path, full: Path, tally: Tally, data: dict):
    """One set-up: a cold CLI fill of SETUP_ORDER orders, then the run's cache."""
    start = time.perf_counter()
    inv = cli(["table3", "--max-points", str(SETUP_ORDER)], fresh_dir(run_dir))
    cache = prepare_cache(workload, run_dir, full)
    elapsed = time.perf_counter() - start
    problems, _ = table3_check(inv.rc, inv.stdout, SETUP_ORDER, data)
    tally.record("set-up fill", problems)
    return elapsed, cache


def measure(workload: str, seed: int, seconds: float, run_dir: Path, full: Path,
            data: dict):
    tally = Tally()
    setups = [setup_sample(workload, run_dir, full, tally, data) for _ in range(SETUP_SAMPLES)]
    cache = setups[-1][1]
    argv = workload_argv(workload, seed)
    timed: list[Invocation] = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        if workload == "cold-table3":
            cache = fresh_dir(run_dir)
        inv = cli(argv, cache)
        timed.append(inv)
        tally.record(f"invocation {len(timed)}",
                     *output_check(workload, seed, inv.rc, inv.stdout, data))
        if workload == "cold-table3":
            # the same invocation on the cache it just filled prints the same bytes
            again = cli(argv, cache)
            same = again.rc == inv.rc and again.stdout == inv.stdout
            tally.record(f"warm re-run {len(timed)}",
                         [] if same else ["output differs from the cold invocation"])

    walls = [i.wall_s for i in timed]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(i.cpu_s for i in timed),
        "peak_rss_mb": statistics.median(i.rss_mb for i in timed),
        "setup_s": statistics.median(s for s, _ in setups),
        "p_err_ratio": max((a.ratio for a in tally.accuracy), default=0.0),
    }
    summary = {
        "timed invocations": len(timed),
        "wall_s min..max": f"{min(walls):.4f}..{max(walls):.4f}",
        "failed_frac": tally.failed / tally.attempted,
        "p_rel_err_max": max((a.rel_err for a in tally.accuracy), default=0.0),
    }
    return metrics, summary, tally


def traced_run(argv: list[str], cache: Path, off: bool) -> tuple[Invocation, dict]:
    out = cache.parent / f"trace-{cache.name}.json"
    cmd = [sys.executable, str(HERE / "tracer.py"), str(out), *(["--off"] if off else []),
           "--", *argv]
    inv = run_child(cmd, cache)
    report = json.loads(out.read_text(encoding="utf-8")) if inv.rc == 0 else {}
    out.unlink(missing_ok=True)
    return inv, report


def moved_counts(first: dict, second: dict) -> list[str]:
    """Integer per-layer metrics (counts, bytes) that differ between two runs."""
    return [k for k, v in first.items() if isinstance(v, int) and second.get(k) != v]


def r_over_true_err(results: list[dict], seed: int, data: dict) -> float:
    """min over kernels of R / |p - p_exact| (check's tolerance is 2R)."""
    ratios = []
    a, b = family_member(seed)
    for r in results:
        if r["label"] in ("FM", "CR", "SC", "SD"):
            exact = builtin_p_exact(r["label"], data)
        else:
            exact = family_p_exact(a, b)
        if r["R"] is not None:
            ratios.append(r["R"] / abs(r["p"] - exact))
    return min(ratios, default=0.0)


def trace(workload: str, seed: int, run_dir: Path, full: Path, data: dict):
    """Per-layer metrics from two traced runs, checked against an untraced one."""
    tally = Tally()
    argv = workload_argv(workload, seed)
    reference = cli(argv, prepare_cache(workload, run_dir, full))
    tally.record("untraced invocation",
                 *output_check(workload, seed, reference.rc, reference.stdout, data))
    runs = {}
    for name, off in (("traced 1", False), ("in-process untraced", True), ("traced 2", False)):
        inv, report = traced_run(argv, prepare_cache(workload, run_dir, full), off)
        if inv.rc != 0:
            tally.record(name, [f"tracer exit code {inv.rc}: "
                                f"{inv.stderr.decode(errors='replace')[-500:]}"])
            continue
        stdout = report["stdout"].encode("utf-8")
        problems, _ = output_check(workload, seed, report["rc"], stdout, data)
        if stdout != reference.stdout:
            problems.append("stdout differs from the untraced invocation")
        tally.record(name, problems)
        runs[name] = report
    if len(runs) < 3:
        return None, tally
    first = runs["traced 1"]["layers"]
    moved = moved_counts(first, runs["traced 2"]["layers"])
    tally.record("count repeat", [f"counts differ between traced runs: {moved}"] if moved else [])

    startup = [run_child([sys.executable, "-c", "import avgkernel.cli"], fresh_dir(run_dir))
               for _ in range(STARTUP_SAMPLES)]
    traced_wall = statistics.mean(runs[n]["wall_s"] for n in ("traced 1", "traced 2"))
    metrics = dict(first)
    metrics["extrapolate.r_over_true_err"] = r_over_true_err(
        runs["traced 1"]["results"], seed, data)
    metrics["cli.startup_s"] = statistics.median(i.wall_s for i in startup)
    metrics["trace.overhead_s"] = traced_wall - runs["in-process untraced"]["wall_s"]
    return metrics, tally


def emit(tally: Tally, metrics: dict, wanted: list[dict]) -> None:
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "avgkernel" / "__main__.py").is_file():
        print(f"perfbench: no avgkernel package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    data = load_data()

    full = full_cache()
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, tally = trace(args.workload, args.seed, run_dir, full, data)
            summary = {}
            wanted = spec["per_layer"]
        else:
            metrics, summary, tally = measure(args.workload, args.seed, args.seconds,
                                              run_dir, full, data)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if metrics is None:
        print("perfbench: traced runs failed; no per-layer metrics", file=sys.stderr)
        return 1
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"argv {workload_argv(args.workload, args.seed)}")
    for key, value in summary.items():
        print(f"# {key}: {value}")
    for m in wanted:
        print(f"# {m['name']:32s} {metrics[m['name']]:>14.6g} {m['unit']}")
    emit(tally, metrics, wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
