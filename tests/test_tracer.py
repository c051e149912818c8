"""perfbench/tracer.py, loaded unedited, still wraps what the CLI calls.

The tracer replaces module attributes by wrappers and counts the calls
that reach them, so a refactor that renames or bypasses one of those
attributes would silently change the benchmark's per-layer counts.
"""

import contextlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

from avgkernel import average, cli, laguerre, rules, tensor_quad

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# every attribute the tracer wraps
WRAPPED = (
    (cli, "main"), (cli, "parse_kernel"), (cli, "pre_exponential_factor"),
    (cli, "population_average_oracle"), (average, "full_report"),
    (average, "eval_kernel"), (tensor_quad, "load_or_compute_rule"),
    (tensor_quad, "integrate_2d"), (rules, "compute_rule"),
    (rules, "_recurrence_scaled"), (laguerre, "_recurrence_scaled"),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    return rc, stdout.getvalue()


def run_traced(argv, tmp_path):
    """Run argv untraced and traced, each on a fresh cache; check that the
    tracer wraps and restores every attribute and leaves stdout and the
    exit code as they were, and return the tracer."""
    tracer_module = load_tracer()
    untraced = run_main([*argv, "--cache-dir", str(tmp_path / "untraced")])

    originals = [getattr(module, attr) for module, attr in WRAPPED]
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert all(getattr(module, attr) is not orig
                   for (module, attr), orig in zip(WRAPPED, originals))
        traced = run_main([*argv, "--cache-dir", str(tmp_path / "traced")])
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is orig
               for (module, attr), orig in zip(WRAPPED, originals))

    assert traced == untraced
    assert traced[0] == 0
    return tracer_module, tracer


def test_tracer_wraps_the_recurrence_the_rules_call():
    # avgkernel.laguerre is only an alias of the recurrence in avgkernel.rules,
    # kept because the tracer imports it and wraps its attribute
    assert laguerre._recurrence_scaled is rules._recurrence_scaled


def test_tracer_counts_table3_layers(tmp_path):
    tracer_module, tracer = run_traced(["table3", "--max-points", "21"], tmp_path)
    layers = tracer_module.layer_metrics(tracer)
    # orders 1..21 are loaded; each kernel sums order 21 alone
    assert layers["rules.cache_misses"] == 21
    assert layers["tensor_quad.calls"] == 4
    assert layers["average.p_calls"] == 4
    assert layers["extrapolate.calls"] == 4


def test_tracer_counts_check_layers(tmp_path):
    # check-expr's path: parse_kernel, one series and the oracle at three u
    argv = ["check", "--kernel", "(x^(1/6)+y^(1/6))*(x^(1/3)+y^(1/3))", "--max-points", "21"]
    tracer_module, tracer = run_traced(argv, tmp_path)
    layers = tracer_module.layer_metrics(tracer)
    assert layers["average.oracle_calls"] == 3
    assert layers["average.p_calls"] == 1
    assert layers["extrapolate.calls"] == 1
    # at order 21 the fit's sampled pairs and p read orders 11..21
    assert layers["tensor_quad.calls"] == 11
    assert layers["rules.cache_misses"] == 11
    assert len(tracer.named("kernels.parse_kernel")) == 1


def test_benchmark_selftest_passes():
    # the benchmark's own check of the tracer's counts and of table3's cache
    # fill, run as the benchmark runs it
    selftest = TRACER.parent / "selftest.py"
    cp = subprocess.run([sys.executable, str(selftest)], capture_output=True, text=True,
                        timeout=300)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "selftest: passed\n"
