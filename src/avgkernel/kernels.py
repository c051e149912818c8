"""Collision kernels: four builtins, a small expression language, and
homogeneity tooling.

All kernels are dimensionless functions of the scaled volumes x = v/u and
y = v1/u.  Physical prefactors are intentionally omitted; callers scale the
averaged result externally.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import numpy as np


class KernelSyntaxError(ValueError):
    """Kernel expression failed to parse; carries offset and expected set."""

    def __init__(self, offset, expected, found):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected "
            f"{', '.join(self.expected)}; found {found}"
        )


class KernelNestingError(ValueError):
    """Kernel expression nested deeper than Python's recursion limit lets
    the parser or the evaluator go."""

    def __init__(self):
        super().__init__("kernel expression nested too deeply"
                         f" (Python's recursion limit is {sys.getrecursionlimit()})")


class NonHomogeneousError(ValueError):
    """Sampled homogeneity estimates disagree: no single degree q exists."""


class KernelDomainError(ArithmeticError):
    """Kernel evaluation hit a domain error; the message names the x, y pair."""


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric homogeneous collision kernel ready for quadrature.

    source is a builtin id (FM | CR | SC | SD) or a parsed expression tree;
    symmetry_warning is None unless sampling found the kernel asymmetric,
    and degree_warning None unless it found a degree other than the
    declared q.
    """

    source: object
    degree_q: float | None
    label: str
    symmetry_warning: str | None = None
    degree_warning: str | None = None


def _beta_sc(x, y):
    s = np.cbrt(x) + np.cbrt(y)
    return s * s * s


def _beta_sd(x, y):
    cx = np.cbrt(x)
    cy = np.cbrt(y)
    s = cx + cy
    return s * s * s * np.abs(cx - cy)


def _beta_fm(x, y):
    s = np.cbrt(x) + np.cbrt(y)
    return np.sqrt(1.0 / x + 1.0 / y) * s * s


def _beta_cr(x, y):
    cx = np.cbrt(x)
    cy = np.cbrt(y)
    return (1.0 / cx + 1.0 / cy) * (cx + cy)


# The builtins stay numpy functions.  The kernel language with cbrt and sqrt
# added gives bitwise their values, but recomputes the shared cbrt(x) and
# cbrt(y): series 1..361 of SD took 112 ms instead of 76, of FM 102 instead
# of 87 (best of 5, in-process, 2 vCPUs).
_BUILTINS = {
    "FM": (_beta_fm, 1.0 / 6.0),
    "CR": (_beta_cr, 0.0),
    "SC": (_beta_sc, 1.0),
    "SD": (_beta_sd, 4.0 / 3.0),
}
# the builtin ids, in the order table3 prints them
BUILTIN_IDS = tuple(_BUILTINS)


def builtin_kernel(kernel_id: str) -> KernelSpec:
    key = kernel_id.strip().upper()
    if key not in _BUILTINS:
        raise ValueError(
            f"unknown kernel id {kernel_id!r}: expected one of {', '.join(BUILTIN_IDS)}"
        )
    _, q = _BUILTINS[key]
    return KernelSpec(source=key, degree_q=q, label=key)


# ---------------------------------------------------------------------------
# expression language

_TOKEN_RE = re.compile(
    r"""(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()=;])
      | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

# The binary operators, loosest first, each with its left and right
# binding power and its ufunc.  parse_expr(least) takes an operator while
# its left power is at least `least`, and parses its right operand with
# `least` set to the right power.  So an operator whose right power is
# above its left one groups to the left, and '^', whose right power is
# below it, to the right.  Unary '-' and abs bind tighter than any of them.
_BINARY = {"+": (1, 2, np.add), "-": (1, 2, np.subtract), "*": (3, 4, np.multiply),
           "/": (3, 4, np.divide), "^": (6, 5, np.power)}
_FUNCTIONS = {"abs": np.abs}
_UNARY = {"neg": np.negative, **_FUNCTIONS}
_VARIABLES = {"x": "x", "y": "y", "eta": "x", "eta1": "y"}
_OPERAND_EXPECTED = ("a number", *(f"'{name}'" for name in (*_VARIABLES, *_FUNCTIONS)),
                     "'('", "'-'")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise KernelSyntaxError(pos, ("a token",), repr(text[pos]))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def take(self, kind, *values):
        """The next token, consumed, if it is of this kind and (when values
        are given) one of them; else None."""
        token = self.tokens[self.i]
        if token[0] == kind and (not values or token[1] in values):
            self.i += 1
            return token
        return None

    def fail(self, expected, token=None):
        kind, value, offset = token or self.tokens[self.i]
        raise KernelSyntaxError(offset, expected, "end of input" if kind == "end" else repr(value))

    def expect(self, symbol):
        self.take("op", symbol) or self.fail((f"'{symbol}'",))

    def parse_expr(self, least=0):
        node = self.parse_unary()
        while (op := self.tokens[self.i][1]) in _BINARY and _BINARY[op][0] >= least:
            self.i += 1
            node = (op, node, self.parse_expr(_BINARY[op][1]))
        return node

    def parse_unary(self):
        """A unary '-' or an operand: a variable, a number, abs(...) or a
        parenthesized expression."""
        if self.take("op", "-"):
            return ("neg", self.parse_unary())
        if var := self.take("name", *_VARIABLES):
            return ("var", _VARIABLES[var[1]])
        if self.tokens[self.i][0] == "num":
            # an overflowing literal fails here as in the q= prefix
            return ("num", self.parse_number())
        if function := self.take("name", *_FUNCTIONS):
            self.expect("(")
            node = (function[1], self.parse_expr())
        elif self.take("op", "("):
            node = self.parse_expr()
        else:
            self.fail(_OPERAND_EXPECTED)
        self.expect(")")
        return node

    def parse_number(self):
        negate = False
        while self.take("op", "-"):
            negate = not negate
        token = self.take("num") or self.fail(("a number",))
        v = float(token[1])
        if not math.isfinite(v):
            self.fail(("a finite number",), token)
        return -v if negate else v


def _eval_tree(node, x, y):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return x if node[1] == "x" else y
    if len(node) == 2:
        return _UNARY[kind](_eval_tree(node[1], x, y))
    return _BINARY[kind][2](_eval_tree(node[1], x, y), _eval_tree(node[2], x, y))


def eval_kernel(spec: KernelSpec, x, y):
    """beta(x, y) for scalars or numpy arrays.

    Scalars give a float, and a domain failure raises KernelDomainError.
    An expression too deeply nested to evaluate raises KernelNestingError.
    Arrays give a float64 array of the shape x and y broadcast to, even for
    a kernel that ignores one or both; it may carry NaN through.
    """
    scalar = np.isscalar(x) and np.isscalar(y)
    if scalar and (x <= 0 or y <= 0):
        raise ValueError(f"kernel arguments must be positive, got ({x}, {y})")
    with np.errstate(all="ignore"):
        if isinstance(spec.source, str):
            val = _BUILTINS[spec.source][0](x, y)
        else:
            try:
                val = _eval_tree(spec.source, x, y)
            except RecursionError:
                raise KernelNestingError() from None
    if scalar:
        v = float(val)
        if not math.isfinite(v):
            raise KernelDomainError(f"kernel undefined at (x = {x}, y = {y}): value {v}")
        return v
    return np.broadcast_to(np.asarray(val, dtype=float), np.broadcast(x, y).shape)


_ALPHAS = (2.0, 0.5)
# The pairs (x, y) the probes below sample a kernel at, as rows x and y:
# the R2 low-discrepancy sequence u_i = frac(0.5 + i (1/rho, 1/rho^2)),
# i = 1..64, with rho the plastic number (the real root of rho^3 = rho + 1),
# mapped to 10^(3u - 1.5), so both lie in [10^-1.5, 10^1.5].  Computed,
# not drawn from a seeded generator, whose stream numpy does not promise
# to keep across releases.
_PLASTIC = 1.324717957244746
_SAMPLES = 10.0 ** (3.0 * ((0.5 + np.array([[1.0 / _PLASTIC], [1.0 / _PLASTIC**2]])
                            * np.arange(1.0, 65.0)) % 1.0) - 1.5)


def homogeneity_degree(spec: KernelSpec) -> float:
    """Numerical estimate of q from beta(a x, a y) = a^q beta(x, y).

    Averages ln-ratio estimates over the first 32 sample pairs and a in
    {2, 1/2}; a spread beyond 1e-6 means no single degree fits.  A kernel
    value that is not finite and positive raises as the scalar path does,
    at the first such pair in sample order.
    """
    x, y = _SAMPLES[:, :32]
    base = eval_kernel(spec, x, y)
    scaled = [eval_kernel(spec, alpha * x, alpha * y) for alpha in _ALPHAS]
    good = np.logical_and.reduce([np.isfinite(v) & (v > 0.0) for v in (base, *scaled)])
    if not good.all():
        x, y = x[np.argmin(good)], y[np.argmin(good)]
        at_xy = eval_kernel(spec, float(x), float(y))
        for alpha in _ALPHAS:
            if min(at_xy, eval_kernel(spec, float(alpha * x), float(alpha * y))) <= 0.0:
                raise NonHomogeneousError(f"kernel not positive at sample (x = {x}, y = {y})")
    # per sample, a = 2 then a = 1/2, as a loop over the samples takes them
    estimates = [math.log(r) / math.log(alpha) for ratios in zip(*(v / base for v in scaled))
                 for alpha, r in zip(_ALPHAS, ratios)]
    spread = max(estimates) - min(estimates)
    if spread > 1e-6:
        raise NonHomogeneousError(
            f"homogeneity estimates spread {spread:.3e} over "
            f"{len(estimates)} samples (range {min(estimates):.6f}"
            f" to {max(estimates):.6f})"
        )
    return float(np.mean(estimates))


def _verify_symmetry(spec: KernelSpec):
    x, y = _SAMPLES
    a, b = eval_kernel(spec, x, y), eval_kernel(spec, y, x)
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        # the scalar path raises KernelDomainError at the first such value
        i = np.argmin(finite)
        eval_kernel(spec, float(x[i]), float(y[i]))
        eval_kernel(spec, float(y[i]), float(x[i]))
    rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    i = np.argmax(rel)
    if rel[i] > 1e-10:
        where = (float(x[i]), float(y[i]))
        return f"asymmetric: relative difference {rel[i]:.3e} at {where}"
    return None


def parse_kernel(text: str) -> KernelSpec:
    """The builtin kernel when text is a builtin id, in any case and
    spacing; otherwise parse an expression kernel (see the grammar in the
    package docs).

    An optional "q=<number>;" prefix fixes the homogeneity degree, which is
    otherwise estimated numerically (and must exist).  Symmetry is checked
    by sampling; an asymmetric kernel parses but carries a warning.  So
    does a declared q more than 1e-6 from the degree the samples give,
    when they give one.
    """
    if text.strip().upper() in _BUILTINS:
        return builtin_kernel(text)
    parser = _Parser(_tokenize(text))
    q = None
    # the end token follows a name, so tokens[1] is there
    if parser.tokens[0][:2] == ("name", "q") and parser.tokens[1][:2] == ("op", "="):
        parser.i = 2
        q = parser.parse_number()
        parser.expect(";")
    try:
        tree = parser.parse_expr()
    except RecursionError:
        raise KernelNestingError() from None
    parser.take("end") or parser.fail((*(f"'{op}'" for op in _BINARY), "end of input"))
    # the label keeps a line break in the text out of a csv row
    label = " ".join(text.split())
    unsampled = KernelSpec(tree, q, label)
    warning = _verify_symmetry(unsampled)
    if q is None:
        return KernelSpec(tree, homogeneity_degree(unsampled), label, warning)
    try:
        sampled = homogeneity_degree(unsampled)
    except (NonHomogeneousError, KernelDomainError):
        sampled = q  # no single degree to check: the case q= exists for
    degree_warning = f"declares q = {q:.6g}, but its sampled degree is {sampled:.6g}"
    return KernelSpec(tree, q, label, warning,
                      degree_warning if abs(sampled - q) > 1e-6 else None)
