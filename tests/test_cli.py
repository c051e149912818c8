import ctypes
import errno
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avgkernel import average, cli, extrapolate, rules, tensor_quad
from avgkernel.kernels import builtin_kernel
from support import version_4_file

try:
    import resource
except ImportError:  # no address-space limits outside Unix
    resource = None


def run_cli(*args, cache=None):
    env = dict(os.environ)
    env["AVGKERNEL_CACHE_DIR"] = cache if cache is not None else ""
    cmd = [sys.executable, "-m", "avgkernel", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def data_rows(stdout):
    return [line for line in stdout.splitlines() if not line.startswith("#")]


def trailer(stdout):
    return [line for line in stdout.splitlines() if line.startswith("#")]


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for name in ("rule", "converge", "report", "table3", "check"):
        assert name in cp.stdout


def test_rule_single_point_exact_bytes():
    cp = run_cli("rule", "--points", "1")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "1,1.0000000000000000e0,1.0000000000000000e0\n"


def test_rule_ten_points(cache_dir):
    cp = run_cli("rule", "--points", "10", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    rows = data_rows(cp.stdout)
    assert len(rows) == 10
    first = rows[0].split(",")
    assert first[0] == "1"
    assert abs(float(first[1]) - 0.1377) <= 1e-4
    assert abs(float(first[2]) - 0.3084) <= 1e-4
    # 17 significant digits in both numeric columns
    assert len(first[1].partition("e")[0].replace("-", "").replace(".", "")) == 17


def test_rule_rejects_zero_points():
    cp = run_cli("rule", "--points", "0")
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.strip() != ""


def test_rule_json(cache_dir):
    cp = run_cli("rule", "--points", "5", "--format", "json", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["order"] == 5
    assert len(payload["nodes"]) == len(payload["weights"]) == 5
    assert payload["nodes"] == sorted(payload["nodes"])


def test_converge_structure(cache_dir):
    cp = run_cli("converge", "--kernel", "sc", "--max-points", "25", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    rows = data_rows(cp.stdout)
    assert len(rows) == 25
    for k, row in enumerate(rows, start=1):
        fields = row.split(",")
        assert fields[0] == str(k)
        float(fields[1])
        if k < 25:
            assert float(fields[2]) >= 0.0
        else:
            assert fields[2] == ""
    tail = trailer(cp.stdout)
    assert tail[0].startswith("# C = ")
    assert "(fit window 13:24)" in tail[0]
    assert tail[1].startswith("# R = ")
    assert tail[2].startswith("# II = ")


def test_converge_short_series_skips_fit(cache_dir):
    cp = run_cli("converge", "--kernel", "sc", "--max-points", "10", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    assert len(data_rows(cp.stdout)) == 10
    assert "too short" in cp.stdout


def test_converge_separable_kernel_converges_exactly(cache_dir):
    cp = run_cli("converge", "--kernel", "x*y", "--max-points", "30", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    last = data_rows(cp.stdout)[-1].split(",")
    assert abs(float(last[1]) - 1.0) <= 1e-12
    tail = trailer(cp.stdout)
    assert tail[0] == "# converged exactly, R = 0"
    assert tail[1] == "# II = 1.0000 ± 0.0000"


def test_converge_rejects_tiny_max_points():
    cp = run_cli("converge", "--kernel", "sc", "--max-points", "1")
    assert cp.returncode == 2


def test_converge_fit_window_flag(cache_dir):
    cp = run_cli("converge", "--kernel", "sc", "--max-points", "25",
                 "--fit-window", "5:20", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    assert "(fit window 5:20)" in cp.stdout
    bad = run_cli("converge", "--kernel", "sc", "--max-points", "25",
                  "--fit-window", "20:5", cache=cache_dir)
    assert bad.returncode == 2


def test_converge_rejects_fit_window_on_short_series(cache_dir):
    # below 20 orders there is no fit, so a requested window is an error,
    # not silently ignored
    cp = run_cli("converge", "--kernel", "sc", "--max-points", "10",
                 "--fit-window", "2:5", cache=cache_dir)
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert "--max-points >= 20" in cp.stderr


# symmetric, q = 2; against the 1e-10 floor eps_26 is 2.16x, eps_27 0.72x
# and the anchor eps_29 1.21x, so only order 26 of the window 26:27 has an
# error to fit
UNFITTABLE_WINDOW = ["--kernel", "x*y + 2e-06*abs(x-2*y)*abs(2*x-y)", "--max-points", "30",
                     "--fit-window", "26:27", "--cache-dir", ""]


@pytest.mark.parametrize("command", ["converge", "report"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_two_order_window_without_two_errors_exits_3(command, fmt, capsys):
    # converge writes no row before its fit
    assert cli.main([command, *UNFITTABLE_WINDOW, "--format", fmt]) == 3
    assert capsys.readouterr() == (
        "", "avgkernel: fit points with a positive error: 1, need 2\n")


def test_converge_json(cache_dir):
    cp = run_cli("converge", "--kernel", "sc", "--max-points", "21",
                 "--format", "json", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["kernel"] == "SC"
    assert payload["orders"] == list(range(1, 22))
    assert len(payload["values"]) == 21
    assert len(payload["errors"]) == 20
    assert payload["status"] == "estimated"
    assert payload["C"] < -1.0
    assert payload["R"] > 0.0


def test_converge_output_is_byte_deterministic(tmp_path):
    # first run populates the cache, second reads it back; the bytes
    # on stdout must not depend on which path was taken
    args = ("converge", "--kernel", "cr", "--max-points", "21")
    cold = run_cli(*args, cache=str(tmp_path))
    warm = run_cli(*args, cache=str(tmp_path))
    assert cold.returncode == warm.returncode == 0
    assert cold.stdout == warm.stdout


def test_converge_utf8_plus_minus(cache_dir):
    env = dict(os.environ)
    env["AVGKERNEL_CACHE_DIR"] = cache_dir
    cp = subprocess.run(
        [sys.executable, "-m", "avgkernel", "converge", "--kernel", "sc",
         "--max-points", "21"],
        capture_output=True, env=env,
    )
    assert cp.returncode == 0
    assert "±" in cp.stdout.decode("utf-8")


def test_report_row_shape(cache_dir):
    cp = run_cli("report", "--kernel", "cr", "--max-points", "30", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    assert lines[0] == "# columns: kernel,Q,eps_n,C,R,p,q,beta_bar"
    fields = lines[1].split(",")
    assert fields[0] == "CR"
    assert float(fields[5]) == pytest.approx(float(fields[1]) / 2.0, rel=1e-15)
    assert float(fields[6]) == 0.0
    assert lines[2].startswith("# II = ")


def test_report_json(cache_dir):
    cp = run_cli("report", "--kernel", "sc", "--max-points", "30",
                 "--format", "json", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["q"] == 1.0
    assert payload["p"] == pytest.approx(payload["Q"] / 2.0, rel=1e-15)
    assert payload["beta_bar"].endswith("*u")
    assert payload["status"] == "estimated"


def counted_loads(monkeypatch):
    """The orders every load_or_compute_rule call loads, in call order."""
    loads = []
    load = tensor_quad.load_or_compute_rule

    def counted(k, cache_dir, built=None):
        loads.append(k)
        return load(k, cache_dir, built)

    monkeypatch.setattr(tensor_quad, "load_or_compute_rule", counted)
    return loads


@pytest.mark.parametrize("command, kernel, k, window", [
    ("report", "FM", 21, None),
    ("report", "SD", 361, None),
    ("report", "SC", 60, (5, 20)),
    ("check", "CR", 21, None),
    ("check", "x^0.5*y + x*y^0.5", 361, None),
])
def test_report_and_check_load_only_the_fit_orders(command, kernel, k, window, cache_dir,
                                                   monkeypatch, capsys):
    # Q_k and the sampled pairs of the fit are the only numbers printed
    argv = [command, "--kernel", kernel, "--max-points", str(k), "--cache-dir", cache_dir]
    if window is not None:
        argv += ["--fit-window", f"{window[0]}:{window[1]}"]
    loads = counted_loads(monkeypatch)
    assert cli.main(argv) == 0
    assert loads == extrapolate.fit_orders(k, window)
    assert len(loads) <= 16


def test_report_at_the_order_limit_builds_16_rules(tmp_path, monkeypatch, capsys):
    built = []
    compute_rules = tensor_quad.compute_rules

    def batch(orders):
        built.extend(orders)
        return compute_rules(orders)

    monkeypatch.setattr(tensor_quad, "compute_rules", batch)
    argv = ["report", "--kernel", "SD", "--max-points", str(cli.MAX_ORDER)]
    assert cli.main([*argv, "--cache-dir", str(tmp_path)]) == 0
    assert built == extrapolate.fit_orders(cli.MAX_ORDER)
    assert len(built) == 16
    assert capsys.readouterr().out.splitlines()[1].startswith("SD,")


@pytest.mark.parametrize("k_max", [21, 60])
def test_report_p_is_the_dense_series_p(k_max, cache_dir, capsys):
    # p is half the sum of rule k, bit for bit the p of the series 1..k
    rules_1_k = tensor_quad.load_rules(range(1, k_max + 1), cache_dir)
    for kid in ("FM", "SD"):
        dense = average.pre_exponential_factor(builtin_kernel(kid), rules_1_k)
        argv = ["report", "--kernel", kid, "--max-points", str(k_max), "--format", "json"]
        assert cli.main([*argv, "--cache-dir", cache_dir]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == dense.p == dense.values[-1] / 2


@pytest.mark.parametrize("kid", ["FM", "CR", "SC", "SD"])
def test_converge_fits_what_report_fits(kid, cache_dir, capsys):
    # converge prints every order 1..k, but fits the same sampled pairs
    printed = []
    for command in ("converge", "report"):
        argv = [command, "--kernel", kid, "--max-points", "60", "--format", "json"]
        assert cli.main([*argv, "--cache-dir", cache_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        printed.append((payload["C"], payload["R"], payload["status"]))
    assert printed[0] == printed[1]
    assert printed[0][2] == "estimated"


def test_table3_rows(cache_dir):
    cp = run_cli("table3", "--max-points", "21", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    assert lines[0] == "# columns: type,p,q,beta_bar"
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["FM", "CR", "SC", "SD"]
    displays = [line.split(",")[3] for line in lines[1:]]
    assert displays[0].endswith("*u^(1/6)")
    assert "*u" not in displays[1]
    assert displays[2].endswith("*u")
    assert displays[3].endswith("*u^(4/3)")


def test_table3_json(cache_dir):
    cp = run_cli("table3", "--max-points", "21", "--format", "json", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert [r["type"] for r in payload["rows"]] == ["FM", "CR", "SC", "SD"]
    assert payload["rows"][2]["q"] == 1.0


def test_divergent_status(cache_dir):
    # 1/(x*y) has a non-integrable singularity: its series grows with C > -1
    kernel = "q=-2; 1/(x*y)"
    cp = run_cli("converge", "--kernel", kernel, "--max-points", "30", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    assert trailer(cp.stdout)[-2:] == ["# R = no estimate (C >= -1)", "# II = no estimate"]
    cp = run_cli("report", "--kernel", kernel, "--max-points", "30", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    row = cp.stdout.splitlines()[1].split(",")
    assert float(row[3]) >= -1.0
    assert row[4] == ""
    for command in ("converge", "report"):
        cp = run_cli(command, "--kernel", kernel, "--max-points", "30",
                     "--format", "json", cache=cache_dir)
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["status"] == "divergent", command
        assert payload["R"] is None, command


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table3_failure_keeps_completed_rows(fmt, cache_dir, monkeypatch, capsys):
    evaluate = average.eval_kernel

    def failing_sd(spec, x, y):
        return np.nan if spec.label == "SD" else evaluate(spec, x, y)

    monkeypatch.setattr(average, "eval_kernel", failing_sd)
    argv = ["table3", "--max-points", "21", "--format", fmt, "--cache-dir", cache_dir]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("avgkernel: order 21: integrand is nan")
    if fmt == "json":
        assert captured.out == ""
    else:
        lines = captured.out.splitlines()
        assert lines[0] == "# columns: type,p,q,beta_bar"
        assert [line.split(",")[0] for line in lines[1:]] == ["FM", "CR", "SC"]


def test_table3_without_cache_builds_each_order_once(monkeypatch, capsys):
    built = []
    compute_rules, compute_rule = tensor_quad.compute_rules, rules.compute_rule

    def batch(orders):
        built.extend(orders)
        return compute_rules(orders)

    def single(k):
        built.append(k)
        return compute_rule(k)

    monkeypatch.setattr(tensor_quad, "compute_rules", batch)
    monkeypatch.setattr(rules, "compute_rule", single)
    assert cli.main(["table3", "--max-points", "25", "--cache-dir", ""]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert built == list(range(1, 26))


def test_table3_loads_each_order_once(tmp_path, monkeypatch, capsys):
    loads = counted_loads(monkeypatch)
    for cache_dir in (str(tmp_path), ""):
        loads.clear()
        assert cli.main(["table3", "--max-points", "25", "--cache-dir", cache_dir]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        assert loads == list(range(1, 26)), cache_dir
    # table3 sums order 25 alone, but leaves every order 1..25 cached
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"glq_{k}.csv" for k in range(1, 26))


def test_table3_rewrites_a_version_4_cache(tmp_path, monkeypatch, capsys):
    # a cache that an older release filled in format version 4 gives the
    # same table, is rewritten once in the current format, and is then read
    argv = ["table3", "--max-points", "25"]
    assert cli.main([*argv, "--cache-dir", str(tmp_path / "fresh")]) == 0
    fresh = capsys.readouterr().out
    old = tmp_path / "old"
    old.mkdir()
    for rule in rules.compute_rules(range(1, 26)):
        (old / f"glq_{rule.order}.csv").write_text(version_4_file(rule))

    built = []
    compute_rules, compute_rule = tensor_quad.compute_rules, rules.compute_rule

    def batch(orders):
        built.extend(orders)
        return compute_rules(orders)

    def single(k):
        built.append(k)
        return compute_rule(k)

    monkeypatch.setattr(tensor_quad, "compute_rules", batch)
    monkeypatch.setattr(rules, "compute_rule", single)
    assert cli.main([*argv, "--cache-dir", str(old)]) == 0
    assert capsys.readouterr().out == fresh
    assert built == list(range(1, 26))
    for k in range(1, 26):
        assert (old / f"glq_{k}.csv").read_bytes() == (tmp_path / "fresh" / f"glq_{k}.csv").read_bytes()
    built.clear()
    assert cli.main([*argv, "--cache-dir", str(old)]) == 0
    assert capsys.readouterr().out == fresh
    assert built == []


@pytest.mark.parametrize("k_max", ["21", "60"])
def test_table3_p_is_the_series_p(k_max, capsys):
    # table3 sums order k alone; its p is bitwise the p of the series that
    # report runs, each with every rule built afresh
    argv = ["--max-points", k_max, "--format", "json", "--cache-dir", ""]
    assert cli.main(["table3", *argv]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["type"] for row in rows] == ["FM", "CR", "SC", "SD"]
    for row in rows:
        assert cli.main(["report", "--kernel", row["type"], *argv]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == row["p"], row["type"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table3_cache_dir_that_is_a_file_exits_3(fmt, tmp_path, capsys):
    # the csv header is printed before the rules are loaded, and the first
    # cache write fails once for all four kernels
    path = tmp_path / "not-a-dir"
    path.write_text("")
    argv = ["table3", "--max-points", "21", "--format", fmt, "--cache-dir", str(path)]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ("# columns: type,p,q,beta_bar\n" if fmt == "csv" else "")
    assert captured.err == f"avgkernel: {FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(path))}\n"


def test_cache_corrupted_between_runs_is_rebuilt(tmp_path, capsys):
    # each command reads the cache afresh, so a file damaged after one run
    # is rebuilt by the next run in the same process
    argv = ["converge", "--kernel", "SC", "--max-points", "21", "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    path = tmp_path / "glq_5.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    with pytest.raises(rules._CorruptCache):
        rules._parse_cache_bytes(path.read_bytes(), 5)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert rules._parse_cache_bytes(path.read_bytes(), 5).order == 5


def test_table3_cache_entry_that_is_a_directory_exits_3(tmp_path, capsys):
    # a directory where order 5's file belongs is no cache file: the rule
    # is built, and replacing the directory with it fails
    (tmp_path / "glq_5.csv").mkdir()
    assert rules.uncached_orders(range(1, 8), tmp_path) == [1, 2, 3, 4, 5, 6, 7]
    assert cli.main(["table3", "--max-points", "21", "--cache-dir", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "# columns: type,p,q,beta_bar\n"
    prefix = f"avgkernel: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp_path}/.glq_5."
    assert captured.err.startswith(prefix), captured.err
    assert captured.err.endswith(f".tmp' -> '{tmp_path}/glq_5.csv'\n"), captured.err
    # orders 1..4 were written before, and no temp file is left
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "glq_1.csv", "glq_2.csv", "glq_3.csv", "glq_4.csv", "glq_5.csv"]
    assert rules.uncached_orders(range(1, 8), tmp_path) == [5, 6, 7]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_named_pipe_in_place_of_a_cache_file_is_replaced(tmp_path):
    os.mkfifo(tmp_path / "glq_3.csv")
    argv = [sys.executable, "-m", "avgkernel", "rule", "--points", "3", "--cache-dir", str(tmp_path)]
    cp = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == run_cli("rule", "--points", "3").stdout
    assert (tmp_path / "glq_3.csv").is_file()
    assert rules.load_or_compute_rule(3, tmp_path).order == 3


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_orders_listed_uncached_are_written_unread(tmp_path, monkeypatch, capsys):
    # the one directory listing decides every miss: what it lists is built
    # and written, its entry never opened, so a device link is replaced
    (tmp_path / "glq_5.csv").symlink_to("/dev/zero")
    argv = ["table3", "--max-points", "21", "--cache-dir", str(tmp_path)]
    with monkeypatch.context() as patch:
        patch.setattr(rules, "_nonblocking", lambda path, flags: pytest.fail(f"opened {path}"))
        assert cli.main(argv) == 0
    cold = capsys.readouterr()
    assert not (tmp_path / "glq_5.csv").is_symlink()
    assert rules.uncached_orders(range(1, 22), tmp_path) == []
    assert cli.main(argv) == 0
    assert capsys.readouterr() == cold


def _cap_address_space():
    # about 1.5 GiB: enough to run a command, and a runaway read fails fast
    # in the child instead of using up the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))


@pytest.mark.skipif(resource is None or not os.path.exists("/dev/zero"),
                    reason="no address-space limit or no /dev/zero")
@pytest.mark.parametrize("entry", ["symlink to /dev/zero", "4 GiB sparse file"])
def test_endless_or_huge_cache_entry_is_replaced(entry, tmp_path):
    # an entry that is no regular file is never opened, and a regular file
    # is read no further than an order-5 file reaches: either is replaced
    path = tmp_path / "glq_5.csv"
    if entry == "symlink to /dev/zero":
        path.symlink_to("/dev/zero")
    else:
        path.touch()
        os.truncate(path, 4 << 30)
    argv = [sys.executable, "-m", "avgkernel", "rule", "--points", "5", "--cache-dir", str(tmp_path)]
    cp = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                        preexec_fn=_cap_address_space)
    assert (cp.returncode, cp.stderr) == (0, "")
    assert cp.stdout == run_cli("rule", "--points", "5").stdout
    assert path.is_file() and not path.is_symlink()
    assert rules._parse_cache_bytes(path.read_bytes(), 5).order == 5


def test_table3_creates_a_missing_cache_dir(tmp_path, capsys):
    cache = tmp_path / "missing" / "cache"
    assert rules.uncached_orders([3, 1, 2], cache) == [3, 1, 2]
    argv = ["table3", "--max-points", "21", "--format", "json"]
    assert cli.main([*argv, "--cache-dir", ""]) == 0
    uncached = capsys.readouterr()
    assert cli.main([*argv, "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr() == uncached
    assert sorted(path.name for path in cache.iterdir()) == sorted(
        f"glq_{k}.csv" for k in range(1, 22))
    assert rules.uncached_orders(range(20, 24), cache) == [22, 23]


def _entry(argv, stdout=subprocess.PIPE, **popen):
    # python -m avgkernel, with standard output block-buffered, as a user's
    # process has it by default
    env = dict(os.environ, AVGKERNEL_CACHE_DIR="")
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "avgkernel", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env, **popen)


@pytest.mark.parametrize("argv, code, err", [
    (["rule", "--points", "2000", "--cache-dir", ""], 0, ""),
    (["check", "--kernel", "q=0.5; 2", "--max-points", "21", "--cache-dir", ""], 1,
     "avgkernel: warning: kernel 'q=0.5; 2' declares q = 0.5, but its sampled degree is 0\n"),
    (["rule", "--points", "2001"], 2, "avgkernel: --points must be <= 2000\n"),
    (["rule", "--points", "5", "--cache-dir", "{file}"], 3,
     f"avgkernel: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{{file}}'\n"),
], ids=["0", "1", "2", "3"])
def test_process_entry_exit_codes(argv, code, err, tmp_path, capsysbinary):
    file = tmp_path / "not-a-dir"
    file.write_text("")
    argv = [arg.format(file=file) for arg in argv]
    assert cli.main(argv) == code
    in_process = capsysbinary.readouterr()
    cp = _entry(argv)
    out, stderr = cp.communicate()
    assert cp.returncode == code
    assert stderr.decode() == err.format(file=file)
    assert out == in_process.out
    assert stderr == in_process.err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
@pytest.mark.parametrize("close, argv", [
    # 94 kB of rows: more than the pipe holds, so a write in main() fails
    ("after one line", ["rule", "--points", "2000"]),
    # a few buffered bytes: only main()'s last flush fails
    ("before any output", ["rule", "--points", "1"]),
])
def test_process_entry_into_a_closed_pipe(close, argv):
    # a reader that closes early ends the process as it ends cat, whenever
    # it closes
    for _ in range(3):
        read, write = os.pipe()
        if close == "before any output":
            os.close(read)
        proc = _entry(argv, stdout=write)
        os.close(write)
        if close == "after one line":
            with os.fdopen(read, "rb") as reader:
                assert reader.readline().startswith(b"1,")
        assert proc.wait(timeout=60) == -signal.SIGPIPE
        assert proc.stderr.read() == b""
        proc.stderr.close()


@pytest.mark.skipif(not (os.path.exists("/dev/full") and hasattr(signal, "SIGPIPE")),
                    reason="no /dev/full or no SIGPIPE")
@pytest.mark.parametrize("points", ["1", "2000"])
def test_process_entry_into_a_full_device(points):
    # a failed write ends the same way whether main() writes it or flushes it
    with open("/dev/full", "wb") as full:
        proc = _entry(["rule", "--points", points], stdout=full)
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert stderr.decode() == f"avgkernel: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(os.name != "posix", reason="no fork to close fd 1 in")
def test_process_entry_with_stdout_closed():
    # started as `avgkernel rule --points 1 >&-` starts it, with no fd 1 and
    # so no sys.stdout, a run ends as a failed write does
    proc = _entry(["rule", "--points", "1"], stdout=subprocess.DEVNULL,
                  preexec_fn=lambda: os.close(1))
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert stderr.decode() == f"avgkernel: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"


_FOOTPRINT_IN_CHILD = """\
import sys
from avgkernel import cli
rc = cli.main([*{argv!r}, "--cache-dir", "", "--format", {fmt!r}])
names = ("avgkernel.laguerre", "numpy.random", "fractions", "decimal", "json")
print(rc, *(name in sys.modules for name in names), file=sys.stderr)
"""
_EXPRESSION = "(x^(1/6)+y^(1/6))*(x^(1/3)+y^(1/3))"


@pytest.mark.parametrize("argv", [
    ["rule", "--points", "5"],
    ["table3", "--max-points", "21"],
    *([command, "--kernel", _EXPRESSION, "--max-points", "21"]
      for command in ("converge", "report", "check")),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("fmt, json_loaded", [("csv", False), ("json", True)])
def test_each_command_imports_only_what_it_runs(argv, fmt, json_loaded):
    # the rules build the recurrence themselves (avgkernel.laguerre is an
    # alias kept for the benchmark tracer), an expression kernel is sampled
    # without numpy.random, the exact slope fit needs neither fractions nor
    # decimal, and only a JSON run loads json
    code = _FOOTPRINT_IN_CHILD.format(argv=argv, fmt=fmt)
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert cp.stderr == f"0 False False False False {json_loaded}\n"


_OPENSSL_IN_CHILD = """\
import sys
preloaded = "_hashlib" in sys.modules
from avgkernel import cli
# the first run writes the cache files' checksums, the second checks them
rcs = [cli.main(["table3", "--max-points", "21", "--cache-dir", {cache!r}]) for _ in range(2)]
print(*rcs, "_hashlib" in sys.modules and not preloaded, file=sys.stderr)
"""


def test_table3_does_not_load_openssl(tmp_path):
    # the cache is hashed with CPython's own SHA-256, not hashlib's OpenSSL
    code = _OPENSSL_IN_CHILD.format(cache=str(tmp_path / "cache"))
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert cp.stderr == "0 0 False\n"


@pytest.mark.parametrize("argv", [
    ["report", "--kernel", "FM", "--max-points", "40"],
    ["converge", "--kernel", "SC", "--max-points", "40", "--fit-window", "10:30"],
    ["check", "--kernel", "CR", "--max-points", "40"],
], ids=lambda argv: argv[0])
def test_fit_runs_without_lapack(argv, cache_dir, monkeypatch, capsys):
    # the remainder fit is plain Python: a command that fits a slope gives
    # the same output with numpy's least-squares solvers unusable
    argv = [*argv, "--cache-dir", cache_dir]
    expected = (cli.main(argv), capsys.readouterr().out)
    fits = []
    fit_slope = extrapolate.fit_slope

    def counted(*args):
        fits.append(args)
        return fit_slope(*args)

    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK least squares called")

    monkeypatch.setattr(extrapolate, "fit_slope", counted)
    monkeypatch.setattr(np, "polyfit", no_lapack)
    monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
    assert (cli.main(argv), capsys.readouterr().out) == expected
    assert fits


@pytest.mark.parametrize("argv", [
    ["converge", "--kernel", "SC", "--max-points", "60", "--fit-window", "20:5"],
    ["report", "--kernel", "x y"],
    ["check", "--kernel", "x + y + 1"],
    pytest.param(["converge", "--kernel", "SC", "--max-points", "60", "--fit-window", "5"],
                 id="fit-window-without-colon"),
    pytest.param(["converge", "--kernel", "SC", "--max-points", "60", "--fit-window", "a:b"],
                 id="fit-window-not-integers"),
    pytest.param(["converge", "--kernel", "SC", "--max-points", "60", "--fit-window", ""],
                 id="fit-window-empty"),
], ids=lambda argv: argv[0])
def test_rejected_arguments_write_no_cache(argv, tmp_path, capsys):
    # arguments are checked before any rule is built or written
    cache = tmp_path / "cache"
    assert cli.main([*argv, "--cache-dir", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not cache.exists()
    window = argv[-1]
    if window in ("5", ""):
        assert captured.err == f"avgkernel: fit window must be A:B, got {window!r}\n"
    elif window == "a:b":
        assert captured.err == "avgkernel: fit window must be two integers A:B, got 'a:b'\n"


def test_unresolvable_cache_dir_exits_3(monkeypatch, capsys):
    # no cache directory named, and no home directory to put one under
    monkeypatch.delenv("AVGKERNEL_CACHE_DIR", raising=False)
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)

    def no_home(path):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(Path, "expanduser", no_home)
    assert cli.main(["rule", "--points", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "avgkernel: Could not determine home directory.\n"


def test_check_constant_kernel_passes(cache_dir):
    cp = run_cli("check", "--kernel", "q=0; 2", "--max-points", "21", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    assert lines[0] == "# columns: u,beta_bar,oracle,delta,tol"
    assert [line.split(",")[0] for line in lines[1:4]] == ["0.5", "1", "2"]
    for line in lines[1:4]:
        assert float(line.split(",")[3]) < 1e-6
    assert lines[4] == "# check passed"


def test_check_detects_wrong_degree(cache_dir):
    # a constant kernel with a forced wrong exponent cannot match the
    # population average away from u = 1
    cp = run_cli("check", "--kernel", "q=0.5; 2", "--max-points", "21", cache=cache_dir)
    assert cp.returncode == 1
    assert cp.stdout.splitlines()[-1] == "# check FAILED"


def test_check_json(cache_dir):
    cp = run_cli("check", "--kernel", "q=0; 2", "--max-points", "21",
                 "--format", "json", cache=cache_dir)
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["passed"] is True
    assert payload["u"] == [0.5, 1.0, 2.0]
    assert len(payload["delta"]) == 3


def test_check_rejects_non_homogeneous():
    cp = run_cli("check", "--kernel", "x + y + 1")
    assert cp.returncode == 2
    assert "homogeneity" in cp.stderr


@pytest.mark.parametrize("command", ["report", "check"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_degree_exits_2(command, fmt, cache_dir, capsys):
    # an overflowing number in the q= prefix or in the expression body
    for kernel in ("q=1e400; x*y/(x+y)", "1e400*x*y/(x+y)"):
        argv = [command, "--kernel", kernel, "--max-points", "30",
                "--format", fmt, "--cache-dir", cache_dir]
        assert cli.main(argv) == 2, kernel
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a finite number" in captured.err


NESTED_TOO_DEEPLY = ("avgkernel: kernel expression nested too deeply"
                     f" (Python's recursion limit is {sys.getrecursionlimit()})\n")


@pytest.mark.parametrize("kernel", ["(" * 1000 + "x+y" + ")" * 1000, "+".join(["x"] * 1000)],
                         ids=["1000 parentheses", "1000-term sum"])
def test_deeply_nested_kernel_exits_2(kernel, capsys):
    # the parentheses overflow the parser, the sum the evaluator
    argv = ["report", "--kernel", kernel, "--max-points", "21", "--cache-dir", ""]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", NESTED_TOO_DEEPLY)


def test_400_parentheses_parse(capsys):
    # the parser takes two frames per level of parentheses
    argv = ["report", "--max-points", "21", "--format", "json", "--cache-dir", ""]
    assert cli.main([*argv, "--kernel", "(" * 400 + "x+y" + ")" * 400]) == 0
    deep = json.loads(capsys.readouterr().out)
    assert cli.main([*argv, "--kernel", "x+y"]) == 0
    assert {**deep, "kernel": "x+y"} == json.loads(capsys.readouterr().out)


def test_kernel_starting_with_minus_needs_the_equals_form(capsys):
    # argparse reads a separate value that starts with '-' as an option
    argv = ["report", "--max-points", "21", "--cache-dir", ""]
    assert cli.main([*argv, "--kernel=-x*y+2*x*y"]) == 0
    minus = capsys.readouterr()
    assert cli.main([*argv, "--kernel", "x*y"]) == 0
    assert minus == (capsys.readouterr().out.replace("\nx*y,", "\n-x*y+2*x*y,"), "")
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--kernel", "-x*y"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: avgkernel report")
    assert err.endswith("error: argument --kernel: expected one argument\n")


def test_line_break_in_a_kernel_stays_in_its_csv_row(capsys):
    argv = ["report", "--kernel", "x*y\n*(x+y)", "--max-points", "30", "--cache-dir", ""]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("x*y *(x+y),")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kernel, q", [("q=40; 1e300*(x+y)", "40"), ("q=2000; x+y", "2000")],
                         ids=["beta_bar overflows", "u^q overflows"])
def test_check_overflowing_beta_bar_exits_3(kernel, q, fmt, capsys):
    # no infe0 row, no Infinity in the json and no bare errno text: the
    # u = 2 row stops the command before anything is written; the kernel's
    # sampled degree is 1, not the declared q, which a warning says first
    argv = ["check", "--kernel", kernel, "--max-points", "20", "--format", fmt,
            "--cache-dir", ""]
    assert cli.main(argv) == 3
    assert capsys.readouterr() == (
        "", f"avgkernel: warning: kernel {kernel!r} declares q = {q}, but its sampled degree is 1\n"
            f"avgkernel: beta_bar = p*u^q or R*u^q is not finite at u = 2, q = {q}.0\n")


@pytest.mark.parametrize("kernel, warning", [
    ("q=3; x*y", "avgkernel: warning: kernel 'q=3; x*y' declares q = 3, but its sampled degree is 2\n"),
    ("q=2; x*y", ""),
    ("q=1; x + y + x*y", ""),
], ids=["wrong q", "right q", "not homogeneous"])
def test_report_warns_of_a_declared_q_that_is_not_the_sampled_degree(kernel, warning, capsys):
    # the warning leaves the exit code at 0 and stdout written; a kernel
    # with no single degree, which q= exists for, gets none
    argv = ["report", "--kernel", kernel, "--max-points", "30", "--cache-dir", ""]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("# columns:")
    assert err == warning


def test_oracle_overflow_writes_one_line_to_stderr(cache_dir):
    cp = run_cli("check", "--kernel", "1e300*(x^-0.99*y + x*y^-0.99)", "--max-points", "120",
                 cache=cache_dir)
    assert (cp.returncode, cp.stderr) == (3, "avgkernel: oracle produced non-finite value inf\n")


@pytest.mark.parametrize("kernel, builtin", [
    ("(1/x^(1/3)+1/y^(1/3))*(x^(1/3)+y^(1/3))", "cr"),
    ("(x^(1/3)+y^(1/3))^3", "sc"),
], ids=["q near 0", "q near 1"])
def test_beta_bar_follows_the_printed_degree(kernel, builtin, capsys):
    # an estimated q a few ulps off 0 or 1 prints as the exact one does
    argv = ["report", "--max-points", "21", "--format", "json", "--cache-dir", ""]
    assert cli.main([*argv, "--kernel", kernel]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] not in (0.0, 1.0)
    assert cli.main([*argv, "--kernel", builtin]) == 0
    assert payload["beta_bar"] == json.loads(capsys.readouterr().out)["beta_bar"]


def test_beta_display_takes_the_printed_fraction():
    assert cli._beta_display(2.0, -5e-18) == "2.0000"
    assert cli._beta_display(2.0, 1.0 - 2.0 ** -52) == "2.0000*u"
    # no fraction with a denominator up to 48 is within 1e-12: q to 12
    # significant digits, so the rounding noise of an estimated q goes
    assert cli._beta_display(2.0, 0.0123) == "2.0000*u^(0.0123)"
    assert cli._beta_display(4.1789, 0.010000000000000005) == "4.1789*u^(0.01)"


def test_numeric_failure_exits_3(cache_dir):
    cp = run_cli("converge", "--kernel", "q=0; x/(x-y)", "--max-points", "5",
                 cache=cache_dir)
    assert cp.returncode == 3
    assert "order 1" in cp.stderr


def test_asymmetric_kernel_warns_on_stderr(cache_dir):
    cp = run_cli("converge", "--kernel", "q=1; x", "--max-points", "21", cache=cache_dir)
    assert cp.returncode == 0
    assert "asymmetric" in cp.stderr


def test_cache_dir_flag_writes_rules(tmp_path):
    cp = run_cli("rule", "--points", "7", "--cache-dir", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "glq_7.csv").is_file()


def test_env_cache_dir_honored(tmp_path):
    cp = run_cli("rule", "--points", "5", cache=str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "glq_5.csv").is_file()


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()],
                         ids=["no-library", "no-mallopt"])
def test_main_runs_without_mallopt(cdll, monkeypatch, capsys):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setenv("AVGKERNEL_CACHE_DIR", "")
    assert cli.main(["rule", "--points", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize("argv", [
    ["rule", "--points"],
    ["converge", "--kernel", "sc", "--max-points"],
    ["report", "--kernel", "sc", "--max-points"],
    ["table3", "--max-points"],
    ["check", "--kernel", "sc", "--max-points"],
], ids=lambda argv: argv[0])
def test_orders_above_the_limit_are_rejected(argv, monkeypatch, capsys):
    monkeypatch.setenv("AVGKERNEL_CACHE_DIR", "")
    assert cli.main([*argv, str(cli.MAX_ORDER + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"must be <= {cli.MAX_ORDER}" in captured.err


_IMPORT_IN_CHILD = """\
import json, os, sys
env_calls = []
sys.addaudithook(lambda event, args: event in ("os.putenv", "os.unsetenv")
                 and args[0] == b"OPENBLAS_NUM_THREADS" and env_calls.append(event))
{preamble}
import avgkernel
print(json.dumps({{"threads": len(os.listdir("/proc/self/task")),
                  "variable": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "env_calls": env_calls}}))
"""


def _import_in_child(preamble="", **variables):
    """Thread count, OPENBLAS_NUM_THREADS and the writes to it after
    `import avgkernel` in a fresh interpreter with these variables."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(variables)
    cp = subprocess.run([sys.executable, "-c", _IMPORT_IN_CHILD.format(preamble=preamble)],
                        capture_output=True, text=True, env=env, check=True)
    return json.loads(cp.stdout)


_needs_task_list = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                      reason="no /proc/self/task to count threads")


@_needs_task_list
def test_import_runs_on_one_blas_thread():
    # OpenBLAS starts a busy-waiting helper per extra CPU unless told otherwise
    seen = _import_in_child()
    assert seen["threads"] == 1
    assert seen["variable"] is None


@_needs_task_list
def test_import_keeps_the_users_blas_thread_count():
    seen = _import_in_child(OPENBLAS_NUM_THREADS="2")
    assert seen["variable"] == "2"
    assert seen["env_calls"] == []


@_needs_task_list
def test_import_after_numpy_leaves_the_environment_alone():
    seen = _import_in_child("import numpy")
    assert seen["variable"] is None
    assert seen["env_calls"] == []
