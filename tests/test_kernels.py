import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgkernel import kernels
from avgkernel.kernels import (
    KernelDomainError,
    KernelNestingError,
    KernelSpec,
    KernelSyntaxError,
    NonHomogeneousError,
    builtin_kernel,
    eval_kernel,
    _verify_symmetry,
    homogeneity_degree,
    parse_kernel,
)
from support import euler_identity_residual, homogeneity_degree_loop, symmetry_warning_loop

BUILTIN_DEGREES = {"SC": 1.0, "SD": 4.0 / 3.0, "FM": 1.0 / 6.0, "CR": 0.0}


def sample_pairs(count, seed=7):
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-1.5, 1.5, (count, 2))


def test_builtin_spot_values():
    sc = builtin_kernel("SC")
    assert eval_kernel(sc, 1.0, 1.0) == pytest.approx(8.0, rel=1e-15)
    assert eval_kernel(sc, 8.0, 1.0) == pytest.approx(27.0, rel=1e-14)
    sd = builtin_kernel("SD")
    assert eval_kernel(sd, 1.0, 1.0) == 0.0
    assert eval_kernel(sd, 8.0, 1.0) == pytest.approx(27.0, rel=1e-14)
    cr = builtin_kernel("CR")
    assert eval_kernel(cr, 1.0, 1.0) == pytest.approx(4.0, rel=1e-15)
    assert eval_kernel(cr, 8.0, 1.0) == pytest.approx(4.5, rel=1e-14)
    fm = builtin_kernel("FM")
    assert eval_kernel(fm, 1.0, 1.0) == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-14)


def test_builtin_degrees_and_labels():
    for kid, q in BUILTIN_DEGREES.items():
        spec = builtin_kernel(kid)
        assert spec.degree_q == q
        assert spec.label == kid
        assert spec.symmetry_warning is None


def test_builtin_lookup_case_insensitive():
    assert builtin_kernel("sc").label == "SC"
    assert builtin_kernel(" fm ").label == "FM"
    with pytest.raises(ValueError):
        builtin_kernel("nope")


def test_parse_kernel_returns_builtins():
    # --kernel takes a builtin id or an expression; parse_kernel tells them apart
    assert parse_kernel(" fm ") == builtin_kernel("FM")
    assert parse_kernel("Sd") == builtin_kernel("SD")
    with pytest.raises(KernelSyntaxError):
        parse_kernel("fmx")


def test_builtin_array_eval_matches_scalar():
    pts = sample_pairs(40)
    for kid in BUILTIN_DEGREES:
        spec = builtin_kernel(kid)
        arr = eval_kernel(spec, pts[:, 0], pts[:, 1])
        scal = np.array([eval_kernel(spec, float(x), float(y)) for x, y in pts])
        assert np.array_equal(arr, scal)


def test_builtin_symmetry_sampled():
    pts = sample_pairs(100, seed=11)
    for kid in BUILTIN_DEGREES:
        spec = builtin_kernel(kid)
        for x, y in pts:
            a = eval_kernel(spec, float(x), float(y))
            b = eval_kernel(spec, float(y), float(x))
            assert abs(a - b) <= 1e-14 * max(abs(a), abs(b), 1e-300)


def test_builtin_homogeneity_sampled():
    rng = np.random.default_rng(3)
    for kid, q in BUILTIN_DEGREES.items():
        spec = builtin_kernel(kid)
        for _ in range(20):
            x, y = 10.0 ** rng.uniform(-1.0, 1.0, 2)
            base = eval_kernel(spec, float(x), float(y))
            if base == 0.0:
                continue
            for alpha in (0.5, 2.0, 10.0):
                scaled = eval_kernel(spec, float(alpha * x), float(alpha * y))
                assert scaled == pytest.approx(alpha**q * base, rel=1e-12)


def test_homogeneity_degree_estimates_builtins():
    for kid, q in BUILTIN_DEGREES.items():
        assert homogeneity_degree(builtin_kernel(kid)) == pytest.approx(q, abs=1e-12)


def test_euler_identity_residuals_small():
    for kid in ("SC", "CR", "FM"):
        spec = builtin_kernel(kid)
        assert abs(euler_identity_residual(spec, 1.3, 0.7, 1e-5)) < 1e-8
    sd = builtin_kernel("SD")
    assert abs(euler_identity_residual(sd, 3.0, 0.5, 1e-5)) < 1e-8
    # near the non-smooth diagonal the difference quotients degrade
    assert abs(euler_identity_residual(sd, 2.0, 2.0001, 1e-5)) < 1e-6


def test_euler_identity_requires_degree():
    import dataclasses

    spec = dataclasses.replace(builtin_kernel("SC"), degree_q=None)
    with pytest.raises(ValueError):
        euler_identity_residual(spec, 1.0, 2.0, 1e-5)


def test_parse_matches_builtin_transcriptions():
    texts = {
        "SC": "(x^(1/3)+y^(1/3))^3",
        "SD": "(x^(1/3)+y^(1/3))^3*abs(x^(1/3)-y^(1/3))",
        "FM": "(x^(-1)+y^(-1))^(1/2)*(x^(1/3)+y^(1/3))^2",
        "CR": "(x^(-1/3)+y^(-1/3))*(x^(1/3)+y^(1/3))",
    }
    pts = sample_pairs(25, seed=5)
    for kid, text in texts.items():
        parsed = parse_kernel(text)
        ref = builtin_kernel(kid)
        assert parsed.degree_q == pytest.approx(BUILTIN_DEGREES[kid], abs=1e-9)
        assert parsed.symmetry_warning is None
        for x, y in pts:
            a = eval_kernel(parsed, float(x), float(y))
            b = eval_kernel(ref, float(x), float(y))
            assert a == pytest.approx(b, rel=1e-13)


def test_parse_eta_aliases():
    a = parse_kernel("eta + eta1")
    b = parse_kernel("x + y")
    assert eval_kernel(a, 2.0, 5.0) == eval_kernel(b, 2.0, 5.0) == 7.0


def test_parse_power_is_right_associative():
    spec = parse_kernel("x^2^3")
    assert eval_kernel(spec, 2.0, 1.0) == 256.0
    assert spec.degree_q == pytest.approx(8.0, abs=1e-9)


@pytest.mark.parametrize("text, value", [
    ("1+2*3", 7.0),
    ("1+2*3^2", 19.0),
    ("-2^2", 4.0),  # unary minus binds tighter than '^': (-2)^2
    ("2^3^2", 512.0),  # '^' groups to the right: 2^(3^2)
    ("2^-1^2", 2.0),  # 2^((-1)^2)
    ("2-3-4", -5.0),  # '-' and '/' group to the left
    ("8/2/2", 2.0),
    ("2*-3", -6.0),
])
def test_precedence_table(text, value):
    assert eval_kernel(parse_kernel(f"q=0; {text}"), 1.0, 1.0) == value


def test_unary_minus_binds_tighter_than_product():
    tree = kernels._Parser(kernels._tokenize("-x*y")).parse_expr()
    assert tree == ("*", ("neg", ("var", "x")), ("var", "y"))


def _binary(op, left, right):
    return f"({left[0]}{op}{right[0]})", (op, left[1], right[1])


def _unary(op, operand):
    return (f"(-{operand[0]})" if op == "neg" else f"abs({operand[0]})"), (op, operand[1])


# (text, tree) pairs: the text of a tree with every operator parenthesized
_OPERANDS = (st.sampled_from([("x", ("var", "x")), ("eta", ("var", "x")),
                              ("y", ("var", "y")), ("eta1", ("var", "y"))])
             | st.floats(min_value=0.0, allow_infinity=False).map(lambda v: (repr(v), ("num", v))))
_EXPRESSIONS = st.recursive(
    _OPERANDS, lambda children: st.builds(_binary, st.sampled_from("+-*/^"), children, children)
    | st.builds(_unary, st.sampled_from(["neg", "abs"]), children), max_leaves=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_EXPRESSIONS)
def test_parenthesized_text_parses_back_to_its_tree(case):
    text, tree = case
    parser = kernels._Parser(kernels._tokenize(text))
    assert parser.parse_expr() == tree
    assert parser.take("end")


def test_parse_abs():
    spec = parse_kernel("q=0; abs(x/y - y/x)")
    assert eval_kernel(spec, 1.0, 2.0) == pytest.approx(1.5, rel=1e-15)
    assert eval_kernel(spec, 2.0, 1.0) == pytest.approx(1.5, rel=1e-15)


def test_parse_error_reports_offset():
    with pytest.raises(KernelSyntaxError) as info:
        parse_kernel("x +")
    assert info.value.offset == 3
    assert info.value.found == "end of input"
    assert "expected" in str(info.value)

    with pytest.raises(KernelSyntaxError) as info:
        parse_kernel("(x")
    assert info.value.offset == 2
    assert info.value.expected == ("')'",)

    with pytest.raises(KernelSyntaxError) as info:
        parse_kernel("x $ y")
    assert info.value.offset == 2
    assert info.value.found == "'$'"

    with pytest.raises(KernelSyntaxError) as info:
        parse_kernel("q=;x")
    assert info.value.offset == 2
    assert info.value.expected == ("a number",)


def test_missing_operand_names_every_operand():
    # the error lists exactly the variables and functions parse_unary takes
    with pytest.raises(KernelSyntaxError) as info:
        parse_kernel("x + ")
    assert info.value.expected == kernels._OPERAND_EXPECTED == (
        "a number", "'x'", "'y'", "'eta'", "'eta1'", "'abs'", "'('", "'-'")
    for name in (*kernels._VARIABLES, *kernels._FUNCTIONS):
        text = f"{name}(x)" if name in kernels._FUNCTIONS else name
        assert kernels._Parser(kernels._tokenize(text)).parse_unary()


def test_explicit_degree_must_be_finite():
    # in the q= prefix and in the expression alike; 1e-400 underflows to 0.0
    for text, offset in (("q=1e400; x*y/(x+y)", 2), ("q=-1e400; x*y", 3),
                         ("1e400*x", 0), ("q=1; x*1e400", 7)):
        with pytest.raises(KernelSyntaxError) as info:
            parse_kernel(text)
        assert info.value.offset == offset
        assert info.value.expected == ("a finite number",)
    assert parse_kernel("1e-400 + x*y").source == ("+", ("num", 0.0), ("*", ("var", "x"), ("var", "y")))


# homogeneous, asymmetric, non-homogeneous, not positive, and not finite at
# the samples, at their scaled pairs or at one orientation only
SAMPLED_KERNELS = (
    "x*y/(x+y)", "(x^(-1/3)+y^(-1/3))*(x^(2/3)+y^(2/3))", "2", "abs(x-2*y)",
    "x^3/y^2", "x^2+y", "x - y", "(x+y-0.3)", "1/(x-x)", "(x+y-0.1)^0.5",
    "(x-0.1)^0.5*(y-0.1)^0.5", "(x-2*y)^0.5",
)


@pytest.mark.parametrize("text", SAMPLED_KERNELS)
def test_sampling_matches_the_scalar_loops(text):
    # parse_kernel samples the kernel itself, so build the spec unsampled
    tree = kernels._Parser(kernels._tokenize(text)).parse_expr()
    spec = KernelSpec(tree, 1.0, text)

    def outcome(f):
        try:
            value = f(spec)
        except (ArithmeticError, ValueError) as exc:
            return type(exc), str(exc)
        return value.hex() if isinstance(value, float) else value

    assert outcome(_verify_symmetry) == outcome(symmetry_warning_loop)
    assert outcome(homogeneity_degree) == outcome(homogeneity_degree_loop)


def _parse_outcomes(texts):
    """repr of each parse_kernel result, or its exception's type and text."""
    outcomes = []
    for text in texts:
        try:
            outcomes.append(repr(parse_kernel(text)))
        except (ArithmeticError, ValueError) as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


_PARSE_WITHOUT_NUMPY_RANDOM = """\
import sys
sys.modules["numpy.random"] = None
sys.path.insert(0, {tests!r})
from test_kernels import SAMPLED_KERNELS, _parse_outcomes
print(repr(_parse_outcomes(SAMPLED_KERNELS)))
"""


def test_parse_kernel_needs_no_numpy_random():
    # the sample pairs are computed, not drawn, so parse_kernel gives the
    # same specs, warnings and errors where numpy.random cannot be imported
    child = _PARSE_WITHOUT_NUMPY_RANDOM.format(tests=str(Path(__file__).parent))
    cp = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                        timeout=60)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == repr(_parse_outcomes(SAMPLED_KERNELS)) + "\n"


def test_nesting_within_the_recursion_limit_parses_and_beyond_it_fails_to_evaluate():
    assert parse_kernel("(" * 100 + "x+y" + ")" * 100).source == parse_kernel("x+y").source
    # a tree too deep to evaluate fails wherever it is evaluated, not only
    # in parse_kernel's sampling
    tree = ("var", "x")
    for _ in range(sys.getrecursionlimit()):
        tree = ("+", tree, ("var", "y"))
    with pytest.raises(KernelNestingError, match="nested too deeply"):
        eval_kernel(KernelSpec(tree, 1.0, "deep"), np.ones(3), np.ones(3))


def test_parse_rejects_trailing_tokens():
    with pytest.raises(KernelSyntaxError):
        parse_kernel("x y")


def test_parse_rejects_non_homogeneous():
    with pytest.raises(NonHomogeneousError):
        parse_kernel("x + y + 1")


def test_explicit_degree_prefix():
    spec = parse_kernel("q=0; 2")
    assert spec.degree_q == 0.0
    assert eval_kernel(spec, 3.0, 4.0) == 2.0
    assert parse_kernel("q=-2; 1/(x*y)").degree_q == -2.0
    assert parse_kernel("q=0.25; (x*y)^(1/8)").degree_q == 0.25


def test_explicit_degree_skips_estimation():
    # the prefix is trusted even when sampling would disagree
    spec = parse_kernel("q=0.5; 2")
    assert spec.degree_q == 0.5


def test_asymmetric_kernel_carries_warning():
    spec = parse_kernel("q=1; x")
    assert spec.symmetry_warning is not None
    assert "asymmetric" in spec.symmetry_warning
    sym = parse_kernel("x*y")
    assert sym.symmetry_warning is None


def test_eval_rejects_non_positive_arguments():
    spec = builtin_kernel("SC")
    with pytest.raises(ValueError):
        eval_kernel(spec, -1.0, 1.0)
    with pytest.raises(ValueError):
        eval_kernel(spec, 1.0, 0.0)


def test_scalar_domain_failure_raises():
    spec = parse_kernel("q=0; x/(x-y)")
    with pytest.raises(KernelDomainError) as info:
        eval_kernel(spec, 1.0, 1.0)
    assert info.value.x == 1.0
    assert info.value.y == 1.0


def test_array_eval_passes_non_finite_through():
    spec = parse_kernel("q=0; x/(x-y)")
    x = np.array([1.0, 2.0])
    y = np.array([1.0, 1.0])
    vals = eval_kernel(spec, x, y)
    assert np.isinf(vals[0]) or np.isnan(vals[0])
    assert vals[1] == pytest.approx(2.0)


def test_array_eval_has_the_broadcast_shape():
    # a kernel that ignores y, or both arguments, still gives one value per pair
    nodes = np.linspace(0.5, 4.0, 5)
    x, y = nodes[:, None], nodes[None, :]
    for text, want in (("q=0; 2", np.full((5, 5), 2.0)), ("q=1; x", np.repeat(x, 5, axis=1))):
        vals = eval_kernel(parse_kernel(text), x, y)
        assert vals.dtype == np.float64
        assert vals.shape == (5, 5)
        assert np.array_equal(vals, want)
