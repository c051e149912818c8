"""The CLI corpus of tests/stdout_corpus.py, run in-process, against the
golden that `python3 tests/stdout_corpus.py --freeze SRC` wrote.

Exit codes, standard error and the text of standard output (every number
replaced by 0) must match exactly, and so must every non-numeric field.
Numbers must match within a tolerance per field.  The tolerances cover
how far printed numbers move between BLAS builds and CPU kernels, which
sum the 2D quadrature in different orders: with OPENBLAS_CORETYPE=Prescott
the corpus's Q, p, series values and beta_bar moved by at most 4.4e-16
relative, C by 1.3e-12, and eps, R and tol by 1.9e-11.  Differences of
series values (the errors of an exactly integrated kernel, check's delta)
move without bound on their own scale, so they are also allowed a change
on the scale of their series.  Each tolerance is about ten times its drift.
"""

import contextlib
import io
import json
import re

import pytest

from avgkernel import cli
from compare_stdout import _NUMBER, fields, skeleton
from stdout_corpus import GOLDEN, SAMPLE, golden_fields, invocations, shown

VALUE_RTOL = 5e-15
SLOPE_RTOL = 2e-11
ERROR_RTOL = 2e-10
# on the scale of the largest series value of the invocation
DIFFERENCE_RTOL = 5e-15
SLOPES = {"C", "# C"}
ERRORS = {"errors", "eps", "eps_n", "R", "# R", "tol", "delta"}
SERIES = {"values", "Q", "p", "rows.p", "beta_bar", "oracle"}
# names of the csv columns that have no "# columns:" header
CSV_COLUMNS = {"rule": ("i", "nodes", "weights"),
               "converge": ("orders", "values", "errors")}
# the json fields that hold, in order, the numbers of a csv field that json
# names otherwise; every other csv field's twin is the json field of its name
JSON_TWINS = {"report": {"eps_n": ("eps",), "# II": ("II",)},
              "converge": {"# C": ("C", "fit_window"), "# R": ("R",),
                           "# converged exactly, R": ("R",), "# II": ("II",)},
              "table3": {name: ("rows." + name,) for name in ("type", "p", "q", "beta_bar")}}

GOLDEN_ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))
CORPUS = list(invocations())
# how Python's format and json write a number that is not finite
NON_FINITE = re.compile(r"\b(?:inf|nan)", re.IGNORECASE)


def run_in_process(args, cache):
    """Exit code, stdout and stderr of one CLI invocation in this process."""
    cache_args = [] if "--cache-dir" in args else ["--cache-dir", cache]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([*args, *cache_args])
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def number(value):
    """value as a float, or None when it is not a number."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def named(command, values):
    """fields() with a headerless csv column renamed for what it holds."""
    names = CSV_COLUMNS.get(command, ())
    return {names[int(key.split()[1]) - 1] if key.startswith("column ") and names else key: items
            for key, items in values.items()}


def mismatches(command, golden_fields, got_fields):
    """Each field of got_fields that differs from golden_fields beyond its
    tolerance, with the first value that does."""
    golden, got = named(command, golden_fields), named(command, got_fields)
    if golden.keys() != got.keys():
        return [f"fields {sorted(golden)} -> {sorted(got)}"]
    scale = max((abs(x) for name in SERIES & golden.keys()
                 for x in map(number, golden[name]) if x is not None), default=0.0)
    found = []
    for name, old in golden.items():
        new = got[name]
        if len(old) != len(new):
            found.append(f"{name}: {len(old)} values -> {len(new)}")
            continue
        rtol = SLOPE_RTOL if name in SLOPES else ERROR_RTOL if name in ERRORS else VALUE_RTOL
        atol = DIFFERENCE_RTOL * scale if name in ERRORS else 0.0
        for a, b in zip(old, new):
            x, y = number(a), number(b)
            if a != b and (x is None or y is None or not abs(y - x) <= rtol * abs(x) + atol):
                found.append(f"{name}: {a!r} -> {b!r}")
                break
    return found


def compare(entry, rc, stdout, stderr):
    """Every way one run differs from its golden entry beyond tolerance."""
    found = [] if rc == entry["rc"] else [f"exit code {entry['rc']} -> {rc}"]
    if stderr != entry["stderr"]:
        found.append(f"stderr {entry['stderr']!r} -> {stderr!r}")
    if skeleton(stdout) != entry["text"]:
        found.append("stdout text")
    return found + mismatches(entry["args"][0], entry["fields"],
                              golden_fields(entry["args"], stdout))


@pytest.fixture(scope="module")
def corpus_cache(tmp_path_factory):
    """One rule cache for the whole corpus, as stdout_corpus.py uses."""
    return str(tmp_path_factory.mktemp("corpus-cache"))


def test_golden_covers_the_corpus():
    assert [entry["args"] for entry in GOLDEN_ENTRIES] == CORPUS


def test_golden_holds_no_non_finite_number():
    # the skeleton keeps every non-numeric token, inf and nan among them
    for entry in GOLDEN_ENTRIES:
        assert not NON_FINITE.search(entry["text"]), shown(entry["args"])
        assert not NON_FINITE.search(json.dumps(entry["fields"])), shown(entry["args"])


def test_every_invocation_shows_on_one_line():
    texts = [shown(args) for args in CORPUS]
    assert all("\n" not in text for text in texts)
    assert len(set(texts)) == len(CORPUS)
    assert shown(["report", "--kernel", "x*y\n*(x+y)", "--cache-dir", ""]) == (
        "report --kernel 'x*y\\n*(x+y)' --cache-dir ''")


@pytest.mark.parametrize("index", range(len(CORPUS)),
                         ids=[shown(args) for args in CORPUS])
def test_corpus_matches_golden(index, corpus_cache):
    entry = GOLDEN_ENTRIES[index]
    assert compare(entry, *run_in_process(CORPUS[index], corpus_cache)) == []


def test_golden_comparison_catches_changes(corpus_cache):
    args = ["converge", "--kernel", "SC", "--max-points", "60", "--format", "csv"]
    entry = GOLDEN_ENTRIES[CORPUS.index(args)]
    rc, stdout, stderr = run_in_process(args, corpus_cache)
    slope = fields(stdout.encode("utf-8"))["# C"][0]
    nudged = stdout.replace(slope, repr(float(slope) * (1 + 1e-12)))
    assert compare(entry, rc, nudged, stderr) == []
    moved = stdout.replace(slope, repr(float(slope) * (1 + 1e-9)))
    assert [m.split(":")[0] for m in compare(entry, rc, moved, stderr)] == ["# C"]
    reworded = stdout.replace("fit window", "window")
    assert compare(entry, rc, reworded, stderr) == ["stdout text"]
    assert compare(entry, 3, stdout, "avgkernel: failed\n") == [
        "exit code 0 -> 3", "stderr '' -> 'avgkernel: failed\\n'"]


def numbers(values):
    """The numbers a field's values hold, in order, as floats: a text holds
    those written in it, and json's null and an empty csv cell none."""
    found = []
    for value in values:
        if isinstance(value, str):
            found.extend(map(float, _NUMBER.findall(value)))
        elif value is not None:
            found.append(float(value))
    return found


def csv_json_pairs():
    """The golden's (csv, json) entry pairs of one invocation each."""
    by_args = {}
    for entry in GOLDEN_ENTRIES:
        args = entry["args"]
        at = args.index("--format")
        by_args.setdefault((*args[:at], *args[at + 2:]), {})[args[at + 1]] = entry
    return [(pair["csv"], pair["json"]) for pair in by_args.values()]


def test_json_samples_match_csv_twin():
    # the csv and json runs of one invocation print the same numbers: json
    # keeps every SAMPLE-th value and the last of a long field, as the
    # golden does, so its csv twin is sampled alike
    compared = set()
    for csv_entry, json_entry in csv_json_pairs():
        command = csv_entry["args"][0]
        csv, payload = named(command, csv_entry["fields"]), json_entry["fields"]
        for name, values in csv.items():
            twins = JSON_TWINS.get(command, {}).get(name, (name,))
            if not all(twin in payload for twin in twins):
                continue
            if name == "# R" and payload["R"] == [None]:
                continue  # "# R = no estimate (C >= -1)": its number bounds C
            if len(values) > SAMPLE:
                values = values[::SAMPLE] + values[-1:]
            expected = numbers(value for twin in twins for value in payload[twin])
            assert numbers(values) == expected, (shown(csv_entry["args"]), name)
            compared.add((command, name))
    assert {command for command, _ in compared} == {
        "rule", "converge", "report", "table3", "check"}
    assert {("rule", "nodes"), ("converge", "# C"), ("converge", "# R"), ("report", "eps_n"),
            ("table3", "p"), ("table3", "q"), ("check", "tol")} <= compared
