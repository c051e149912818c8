"""Gauss-Laguerre rules: nodes are zeros of L_k, weights from L_{k+1}.

Asymptotic formulas seed all k zeros, and Newton steps on the scaled
recurrence polish them together.  compute_rules builds many orders at
once: their nodes share one array, so each Newton pass, the sign-change
test and the weight pass run the recurrence once over the whole group,
each node stopping at its own order; compute_rule is a group of one.  A
node that the vectorized pass cannot confirm, by residual or by sign
change, is found by a scalar sign-change bracket search instead.  One more
vectorized pass, at order k+1, gives the weights.  Rules are cached on disk
as one checksummed CSV per order.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .laguerre import _recurrence_scaled

_MAX_STEPS = 200
_RESIDUAL_TOL = 1e-13
_MIN_NORMAL = sys.float_info.min

_FORMAT_VERSION = 2
_HEADER_RE = re.compile(
    rf"# gauss-laguerre order=(\d+) flushed=(\d+) version={_FORMAT_VERSION}$")
_CHECKSUM_MARKER = "# sha256="


class ConvergenceError(RuntimeError):
    """A Newton root search failed to converge within the step budget."""


class _CorruptCache(Exception):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    """Order-k rule for the weight e^{-x} on [0, inf).

    The rules built here have read-only arrays: one rule object may be
    shared by every caller in the process.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _read_only_rule(order: int, nodes: np.ndarray, weights: np.ndarray) -> QuadratureRule:
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(order, nodes, weights)


def _invariant_problem(order: int, nodes: np.ndarray, weights: np.ndarray) -> str | None:
    if len(nodes) != order or len(weights) != order:
        return "wrong number of nodes or weights"
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        return "non-finite entries"
    if nodes[0] <= 0.0:
        return "first node not positive"
    if np.any(np.diff(nodes) <= 0.0):
        return "nodes not strictly increasing"
    if nodes[-1] >= 4.0 * order + 2.0:
        return "last node beyond 4k+2"
    if np.any(weights < 0.0):
        return "negative weight"
    tol = 1e-12 if order <= 50 else 1e-9
    if abs(float(weights.sum()) - 1.0) > tol:
        return "weights do not sum to 1"
    return None


def _locate_root(k: int, i: int, seed: float, lo: float, hi: float) -> float:
    """Find the i-th zero of L_k in (lo, hi), lo being the previous zero.

    L_k is positive just right of lo when i is odd counting from 1 (it
    starts at L_k(0) = 1 and flips sign at every zero), so the sign tells
    which side of the target we are on.  A sign-change bracket is
    established around the seed first, then Newton runs with bisection as
    the fallback whenever a step would leave the bracket.
    """
    s_left = 1.0 if i % 2 == 1 else -1.0
    budget = _MAX_STEPS

    def evaluate(x):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise ConvergenceError(f"root {i} of L_{k} did not converge in {_MAX_STEPS} steps")
        prev, cur, _, step = _recurrence_scaled(k, x)
        return prev, cur, step

    z = min(max(seed, lo + (hi - lo) * 1e-12), hi)
    prev, cur, step = evaluate(z)
    if abs(cur) <= _RESIDUAL_TOL * step:
        return z

    if cur * s_left > 0.0:
        # left of the root: march right with a growing step
        a = z
        d = 0.25 * max(z - lo, 1e-6)
        b = min(z + d, hi)
        while True:
            _, cur_b, step_b = evaluate(b)
            if abs(cur_b) <= _RESIDUAL_TOL * step_b:
                return b
            if cur_b * s_left < 0.0:
                break
            a = b
            d *= 2.0
            if b >= hi:
                raise ConvergenceError(f"no sign change found for root {i} of L_{k}")
            b = min(b + d, hi)
    else:
        # overshot: halve back toward the previous root
        b = z
        while True:
            cand = lo + 0.5 * (b - lo)
            _, cur_c, step_c = evaluate(cand)
            if abs(cur_c) <= _RESIDUAL_TOL * step_c:
                return cand
            if cur_c * s_left > 0.0:
                a = cand
                break
            b = cand

    # safeguarded Newton inside (a, b)
    z = 0.5 * (a + b)
    while True:
        prev, cur, step = evaluate(z)
        if abs(cur) <= _RESIDUAL_TOL * step:
            return z
        if cur * s_left > 0.0:
            a = z
        else:
            b = z
        denom = k * (cur - prev)
        znew = z - cur * z / denom if denom != 0.0 else 0.5 * (a + b)
        if not a < znew < b:
            znew = 0.5 * (a + b)
        if znew == z:
            return z
        z = znew


# first zeros of the Bessel function J_0, for Gatteschi's small-node seeds
_J0_ZEROS = (2.4048255576957724, 5.520078110286311, 8.653727912911013,
             11.791534439014281, 14.930917708487787, 18.071063967910924)
_NEWTON_PASSES = 8
# relative half-width of the sign-change acceptance test
_SIGN_WIDTH = 1024 * 2.0**-52
# most nodes built together by compute_rules (one order above it is built
# alone).  The group's recurrence arrays, a dozen or so of 8 bytes per
# node, then stay near 200 kB: a cold table3 at order 120 peaks at the same
# RSS as with one order at a time, where 2**13 nodes added 0.7 MB.
_BATCH_NODES = 2**11


def _seeds(k: int) -> np.ndarray:
    """Asymptotic estimates of the k zeros of L_k, in increasing order.

    Gatteschi's Bessel-function form for the smallest few, Tricomi's
    formula for the rest (Gatteschi, J. Comput. Appl. Math. 2002); both are
    within 1% of the node spacing for every k.
    """
    nu = 4.0 * k + 2.0
    seeds = []
    for i in range(1, k + 1):
        if i <= min(len(_J0_ZEROS), k // 3):
            j2 = _J0_ZEROS[i - 1] ** 2
            seeds.append(j2 / nu * (1.0 + (j2 + 2.0) / (3.0 * nu * nu)))
            continue
        # theta - sin(theta) = t, by Newton from below (convex, increasing)
        t = math.pi * (4 * k - 4 * i + 3) / nu
        theta = (6.0 * t) ** (1.0 / 3.0)
        for _ in range(_MAX_STEPS):
            d = (theta - math.sin(theta) - t) / (1.0 - math.cos(theta))
            theta -= d
            if abs(d) <= 1e-16 * theta:
                break
        s = math.cos(0.5 * theta) ** 2
        seeds.append(nu * s - (1.25 / (1.0 - s) ** 2 - 1.0 / (1.0 - s) - 1.0) / (3.0 * nu))
    return np.array(seeds)


def _polish(degree: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton-polish zeros of Laguerre polynomials at once; returns (z, accepted mask).

    z[i] is a zero of L_{degree[i]}; one array may hold the zeros of many
    orders.  A node is accepted by the residual test |L_k| <= tol * step,
    or, once its Newton steps have shrunk below the rounding noise, by a
    sign change of L_k across z * (1 +- _SIGN_WIDTH).  Every node keeps the
    Newton correction computed from its last evaluation.
    """
    z = z.copy()
    passed = np.zeros(len(z), dtype=bool)
    todo = np.arange(len(z))
    for _ in range(_NEWTON_PASSES):
        if len(todo) == 0:
            break
        k = degree[todo]
        x = z[todo]
        prev, cur, _, step = _recurrence_scaled(int(k.max()), x, k)
        dz = cur * x / (k * (cur - prev))
        z[todo] = x - dz
        passed[todo] = np.abs(cur) <= _RESIDUAL_TOL * step
        # written so that a NaN step keeps the node in the loop
        todo = todo[~passed[todo] & ~(np.abs(dz) <= _SIGN_WIDTH * np.abs(x))]
    accepted = passed.copy()
    rest = np.flatnonzero(~passed)
    if len(rest):
        x = z[rest]
        d = _SIGN_WIDTH * x
        k = np.tile(degree[rest], 2)
        _, cur, _, _ = _recurrence_scaled(int(k.max()), np.concatenate((x - d, x + d)), k)
        below, above = np.split(cur, 2)
        accepted[rest] = below * above < 0.0
    return z, accepted


def compute_rules(orders) -> list[QuadratureRule]:
    """Construct the rules of the given orders from scratch (no caching).

    The nodes of up to _BATCH_NODES nodes' worth of orders share one array,
    so each Newton pass and the weight pass run the recurrence once for
    the whole group; every rule is bitwise the one built on its own.
    """
    orders = [int(k) for k in orders]
    if any(k < 1 for k in orders):
        raise ValueError("order must be >= 1")
    rules, group = [], []
    for k in orders:
        if group and sum(group) + k > _BATCH_NODES:
            rules += _build_group(group)
            group = []
        group.append(k)
    return rules + _build_group(group) if group else rules


def _build_group(orders: list[int]) -> list[QuadratureRule]:
    """compute_rules for one group, whose nodes share one array."""
    seeds = [_seeds(k) for k in orders]
    degree = np.repeat(orders, orders)
    nodes, accepted = _polish(degree, np.concatenate(seeds))
    bounds = np.cumsum(orders)[:-1]
    for k, own, confirmed, seed in zip(orders, np.split(nodes, bounds),
                                       np.split(accepted, bounds), seeds):
        for i in np.flatnonzero(~confirmed):
            lo = own[i - 1] if i > 0 else 0.0
            own[i] = _locate_root(k, i + 1, seed[i], lo, 4.0 * k + 2.0)
    # weights 1 / (x L_k'(x)^2) = x / ((k+1) L_{k+1}(x))^2 at the zeros
    _, cur, shift, _ = _recurrence_scaled(max(orders) + 1, nodes, degree + 1)
    mant, exp = np.frexp(cur)
    weights = np.ldexp(nodes / ((degree + 1.0) ** 2 * mant * mant), -2 * (exp + shift))
    # below the smallest normal double the tail contribution is noise
    weights[weights < _MIN_NORMAL] = 0.0
    rules = []
    for k, own_nodes, own_weights in zip(orders, np.split(nodes, bounds),
                                         np.split(weights, bounds)):
        problem = _invariant_problem(k, own_nodes, own_weights)
        if problem is not None:
            raise ConvergenceError(f"rule of order {k} failed validation: {problem}")
        # each rule owns its arrays, allocated as a one-order build's are
        rules.append(_read_only_rule(k, own_nodes.copy(), own_weights.copy()))
    return rules


def compute_rule(k: int) -> QuadratureRule:
    """Construct the k-point rule from scratch (no caching)."""
    return compute_rules([k])[0]


def format_float(v: float) -> str:
    """17 significant digits, lowercase scientific, compact exponent."""
    mant, _, exp = f"{v:.16e}".partition("e")
    sign = "-" if exp.startswith("-") else ""
    digits = exp.lstrip("+-").lstrip("0") or "0"
    return f"{mant}e{sign}{digits}"


def _serialize_rule(rule: QuadratureRule) -> str:
    flushed = int(np.count_nonzero(rule.weights == 0.0))
    lines = [f"# gauss-laguerre order={rule.order} flushed={flushed} version={_FORMAT_VERSION}"]
    for x, a in zip(rule.nodes, rule.weights):
        lines.append(f"{format_float(x)},{format_float(a)}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    return f"{body}{_CHECKSUM_MARKER}{digest}\n"


def _parse_cache_text(text: str, k: int) -> QuadratureRule:
    pos = text.rfind(_CHECKSUM_MARKER)
    if pos < 0:
        raise _CorruptCache("missing checksum line")
    body = text[:pos]
    claimed = text[pos + len(_CHECKSUM_MARKER):].strip()
    if hashlib.sha256(body.encode("ascii", "replace")).hexdigest() != claimed:
        raise _CorruptCache("checksum mismatch")
    lines = body.splitlines()
    if not lines:
        raise _CorruptCache("empty body")
    m = _HEADER_RE.match(lines[0])
    if m is None or int(m.group(1)) != k:
        raise _CorruptCache("bad header")
    if len(lines) != k + 1:
        raise _CorruptCache("wrong row count")
    try:
        # one C-level conversion of every row; no line is a comment
        rows = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise _CorruptCache(f"bad row: {exc}") from exc
    # loadtxt skips blank lines
    if rows.shape != (k, 2):
        raise _CorruptCache("bad row: not two fields per line")
    # each column in an array of its own, allocated as a one-order build's are
    nodes, weights = rows[:, 0].copy(), rows[:, 1].copy()
    if int(m.group(2)) != int(np.count_nonzero(weights == 0.0)):
        raise _CorruptCache("flushed count mismatch")
    problem = _invariant_problem(k, nodes, weights)
    if problem is not None:
        raise _CorruptCache(problem)
    return _read_only_rule(k, nodes, weights)


def default_cache_dir() -> str:
    """Cache location; AVGKERNEL_CACHE_DIR overrides, empty disables."""
    env = os.environ.get("AVGKERNEL_CACHE_DIR")
    if env is not None:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    base = Path(xdg).expanduser() if xdg else Path("~/.cache").expanduser()
    return str(base / "avgkernel")


def cache_path(k: int, cache_dir: str | os.PathLike | None) -> Path | None:
    """The cache file of order k, or None when cache_dir disables caching."""
    if cache_dir is None or str(cache_dir) == "":
        return None
    return Path(cache_dir) / f"glq_{k}.csv"


def load_or_compute_rule(k: int, cache_dir: str | os.PathLike | None,
                         built: QuadratureRule | None = None) -> QuadratureRule:
    """compute_rule with a read-through disk cache.

    Corrupt or stale cache files are recomputed and replaced.  An empty
    cache_dir (or None) disables caching entirely.  Writes go through a
    temp file and os.replace, so concurrent readers never see partials.
    built, a rule of order k the caller has already constructed, stands in
    for compute_rule.
    """
    path = cache_path(k, cache_dir)
    if path is not None and path.is_file():
        try:
            return _parse_cache_text(path.read_text(encoding="ascii", errors="replace"), k)
        except _CorruptCache:
            pass
    rule = built if built is not None else compute_rule(k)
    if path is None:
        return rule
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".glq_{k}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(_serialize_rule(rule))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return rule
