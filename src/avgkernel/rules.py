"""Gauss-Laguerre rules: nodes are zeros of L_k, weights from L_k'.

Asymptotic formulas seed all k zeros, and Newton steps on the scaled
recurrence polish them together.  L_k(x) grows roughly like exp(x/2) *
x^(-k/2-1/4) * k! near the end of the oscillatory region, so the plain
recurrence overflows native doubles once k and x are both large (k around
400 for x near 4k): _recurrence_scaled keeps its running terms as value *
2**shift and, at regular checks, renormalizes every element by a power of
two, which is exact.  compute_rules builds many orders at once: their
nodes share one array, so the seeds are one numpy expression, and each
Newton pass and the weight pass run the recurrence once over the whole
group, each node stopping at its own order; compute_rule is a group of
one.  A node stops when its Newton step reaches the rounding noise or
stalls; a group whose nodes are not all converged, or not spaced like
their seeds, raises ConvergenceError.  The weights come from L_k' at the
same degree.  Rules are cached on disk as one checksummed file per order:
a text header, then each node and its weight as little-endian IEEE-754
doubles, then a text line with the SHA-256 of all before it.
"""

from __future__ import annotations

import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# CPython's own SHA-256, so that no process loads OpenSSL's libcrypto (about
# 3.6 MB of RSS) for the cache checksums; hashlib's where the build lacks it
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

_MIN_NORMAL = sys.float_info.min

_FORMAT_VERSION = 5
_HEADER_RE = re.compile(
    rf"# gauss-laguerre order=(\d+) flushed=(\d+) version={_FORMAT_VERSION}$".encode("ascii"))
_CHECKSUM_MARKER = b"# sha256="
# the last line of a cache file: the marker, 64 hex digits and a newline
_TRAILER_LEN = len(_CHECKSUM_MARKER) + 64 + 1
# the most bytes an order-k file holds besides its 16 k: the trailer and a
# header line (51 bytes at order 2000)
_FRAME_MAX = _TRAILER_LEN + 128


class ConvergenceError(RuntimeError):
    """Rule construction failed: a node did not converge, or a rule failed its checks."""


class _CorruptCache(Exception):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    """Order-k rule for the weight e^{-x} on [0, inf).

    The rules built here have read-only arrays: one rule object may be
    shared by every series run over it.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _read_only_rule(order: int, nodes: np.ndarray, weights: np.ndarray) -> QuadratureRule:
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(order, nodes, weights)


def _invariant_problem(order: int, nodes: np.ndarray, weights: np.ndarray) -> str | None:
    # both callers pass order nodes and weights: the group split by order,
    # or a cache body already checked to be 16 bytes per node
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
        return "non-finite entries"
    if nodes[0] <= 0.0:
        return "first node not positive"
    if not (nodes[1:] > nodes[:-1]).all():
        return "nodes not strictly increasing"
    if nodes[-1] >= 4.0 * order + 2.0:
        return "last node beyond 4k+2"
    if (weights < 0.0).any():
        return "negative weight"
    # every rule of order 1..2000 the builder makes sums to 1 within 6.6e-13
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        return "weights do not sum to 1"
    return None


# first zeros of the Bessel function J_0, for Gatteschi's small-node seeds
_J0_ZEROS = np.array([2.4048255576957724, 5.520078110286311, 8.653727912911013,
                      11.791534439014281, 14.930917708487787, 18.071063967910924])
# Newton steps on theta - sin(theta) = t; 6 reach the converged value
_SEED_STEPS = 6
_NEWTON_PASSES = 8
# a Newton step below this relative width is rounding noise
_NOISE_WIDTH = 1024 * 2.0**-52
# most nodes built together by compute_rules (one order above it is built
# alone).  The group's arrays, the recurrence terms and the seeds'
# temporaries, about twenty of 8 bytes per node, then stay near 300 kB: a
# cold table3 at order 120 peaks at the same RSS as with groups of 2**9 or
# 2**10 nodes, where 2**13 nodes added 0.7 MB.
_BATCH_NODES = 2**11


def _seeds(orders: list[int]) -> np.ndarray:
    """Asymptotic estimates of the zeros of L_k for each k in orders.

    Each order's k estimates come in increasing order, the orders one after
    another.  Gatteschi's Bessel-function form for the smallest few,
    Tricomi's formula for the rest (Gatteschi, J. Comput. Appl. Math.
    2002); both are within 1% of the node spacing for every k.
    """
    k = np.repeat(orders, orders)
    i = np.arange(1, len(k) + 1) - np.repeat(np.cumsum(orders) - orders, orders)
    nu = 4.0 * k + 2.0
    # theta - sin(theta) = t, by Newton from below (convex, increasing)
    t = np.pi * (4 * k - 4 * i + 3) / nu
    theta = np.cbrt(6.0 * t)
    for _ in range(_SEED_STEPS):
        theta -= (theta - np.sin(theta) - t) / (1.0 - np.cos(theta))
    s = np.cos(0.5 * theta) ** 2
    seeds = nu * s - (1.25 / (1.0 - s) ** 2 - 1.0 / (1.0 - s) - 1.0) / (3.0 * nu)
    small = i <= np.minimum(len(_J0_ZEROS), k // 3)
    j2 = _J0_ZEROS[i[small] - 1] ** 2
    nu = nu[small]
    seeds[small] = j2 / nu * (1.0 + (j2 + 2.0) / (3.0 * nu * nu))
    return seeds


def _recurrence_scaled(k: int, x, degree):
    """Run the recurrence with joint power-of-two renormalization, elementwise.

    x is an array of floats and degree an integer array of the same length,
    each entry in 1..k, largest first.  Returns (prev, cur, shift), arrays
    of x's length, where L_{d-1}(x) = prev * 2**shift and L_d(x) = cur *
    2**shift for the element's degree d.  k - 1 steps run; an element stops
    taking them once it reaches its degree.
    """
    # largest degree first, so the elements still running are a prefix:
    # live[n] of them take step n.  L_n is terms[n % 2], and step n writes
    # L_{n+1} over L_{n-1}, so a finished element keeps its terms in place
    descending = -np.asarray(degree)
    live = np.searchsorted(descending, -np.arange(k)).tolist()
    terms = (np.ones(len(x)), 1.0 - x)
    shift = np.zeros(len(x), dtype=np.int64)
    # Renormalizing by a power of two is exact, so how often it happens
    # does not change the result.  A check brings max(|prev|, |cur|) of
    # every element into [1/2, 1).  One step multiplies it by at most
    # 3 + |x| and divides it by at most 3k, so with a check every `every`
    # steps, g**every <= 2**256, the terms stay within [2**-257, 2**256].
    g = 3.0 * k + 3.0 + float(np.max(abs(x), initial=0.0))
    every = max(1, int(256.0 / math.log2(g))) if g < math.inf else 1
    for n in range(1, k):
        a = live[n]
        prev, cur = terms[(n - 1) % 2][:a], terms[n % 2][:a]
        if n % every == 0:
            e = np.frexp(np.maximum(abs(prev), abs(cur)))[1]
            prev[...], cur[...] = np.ldexp(prev, -e), np.ldexp(cur, -e)
            shift[:a] += e
        prev[...] = ((2 * n + 1 - x[:a]) * cur - n * prev) / (n + 1)
    even = descending % 2 == 0
    terms[0][even], terms[1][even] = terms[1][even], terms[0][even]
    return (*terms, shift)


def _polish(degree: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Newton-polish zeros of Laguerre polynomials at once.

    z[i] is a zero of L_{degree[i]}; one array may hold the zeros of many
    orders, largest order first, and the nodes a pass hands the recurrence
    keep that order.  A node stops when its Newton step falls below the
    rounding noise or stops shrinking (at least half the one before): a
    converged iterate only wanders within the noise of L_k's evaluation.
    Every node keeps the Newton correction computed from its last evaluation.
    """
    z = z.copy()
    last = np.full(len(z), np.inf)
    todo = np.arange(len(z))
    for _ in range(_NEWTON_PASSES):
        if len(todo) == 0:
            break
        k = degree[todo]
        x = z[todo]
        prev, cur, _ = _recurrence_scaled(int(k.max()), x, k)
        dz = cur * x / (k * (cur - prev))
        z[todo] = x - dz
        size = np.abs(dz)
        # written so that a NaN step keeps the node in the loop
        stopped = (size <= _NOISE_WIDTH * np.abs(x)) | (size >= 0.5 * last[todo])
        last[todo] = size
        todo = todo[~stopped]
    if len(todo):
        orders = ", ".join(map(str, np.unique(degree[todo])))
        raise ConvergenceError(
            f"{len(todo)} zeros of order(s) {orders} still moving after {_NEWTON_PASSES} Newton passes")
    return z


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
    """compute_rules for one group, whose nodes share one array: each order
    once, largest first, as the recurrence takes them; rules in orders' order."""
    layout = sorted(set(orders), reverse=True)
    degree = np.repeat(layout, layout)
    seeds = _seeds(layout)
    nodes = _polish(degree, seeds)
    # weights 1 / (x L_k'(x)^2) = x / (k (L_k(x) - L_{k-1}(x)))^2 at the
    # zeros: a node error reaches the weight about 1:1 through L_k'
    prev, cur, shift = _recurrence_scaled(layout[0], nodes, degree)
    mant, exp = np.frexp(degree * (cur - prev))
    weights = np.ldexp(nodes / (mant * mant), -2 * (exp + shift))
    # below the smallest normal double the tail contribution is noise
    weights[weights < _MIN_NORMAL] = 0.0
    bounds = np.cumsum(layout)[:-1]
    rules = {}
    for k, own_seeds, own_nodes, own_weights in zip(
            layout, *(np.split(a, bounds) for a in (seeds, nodes, weights))):
        # L_k has exactly k zeros: k converged nodes spaced like their
        # seeds are all of them, none found twice
        spacing = np.diff(own_nodes) / np.diff(own_seeds)
        if not np.all((spacing >= 0.5) & (spacing <= 2.0)):
            raise ConvergenceError(f"rule of order {k}: zeros not spaced like their seeds")
        problem = _invariant_problem(k, own_nodes, own_weights)
        if problem is not None:
            raise ConvergenceError(f"rule of order {k} failed validation: {problem}")
        # each rule owns its arrays, allocated as a one-order build's are
        rules[k] = _read_only_rule(k, own_nodes.copy(), own_weights.copy())
    return [rules[k] for k in orders]


def compute_rule(k: int) -> QuadratureRule:
    """Construct the k-point rule from scratch (no caching)."""
    return compute_rules([k])[0]


def _trailer(body: bytes) -> bytes:
    return _CHECKSUM_MARKER + sha256(body).hexdigest().encode("ascii") + b"\n"


def _serialize_rule(rule: QuadratureRule) -> bytes:
    flushed = int(np.count_nonzero(rule.weights == 0.0))
    body = (f"# gauss-laguerre order={rule.order} flushed={flushed} version={_FORMAT_VERSION}\n"
            .encode("ascii") + np.column_stack([rule.nodes, rule.weights]).astype("<f8").tobytes())
    return body + _trailer(body)


def _parse_cache_bytes(data: bytes, k: int) -> QuadratureRule:
    if len(data) > 16 * k + _FRAME_MAX:
        raise _CorruptCache("longer than an order-k file")
    body = data[:-_TRAILER_LEN]
    # a file shorter than the trailer leaves an empty body and a short trailer
    if data[len(body):] != _trailer(body):
        raise _CorruptCache("checksum mismatch")
    header, _, pairs = body.partition(b"\n")
    m = _HEADER_RE.match(header)
    if m is None or int(m.group(1)) != k:
        raise _CorruptCache("bad header")
    if len(pairs) != 16 * k:
        raise _CorruptCache("body is not 16 bytes per node")
    pairs = np.frombuffer(pairs, "<f8").reshape(k, 2)
    # each column in a native array of its own, allocated as a one-order build's are
    nodes, weights = pairs[:, 0].astype(np.float64), pairs[:, 1].astype(np.float64)
    if int(m.group(2)) != int(np.count_nonzero(weights == 0.0)):
        raise _CorruptCache("flushed count mismatch")
    problem = _invariant_problem(k, nodes, weights)
    if problem is not None:
        raise _CorruptCache(problem)
    return _read_only_rule(k, nodes, weights)


def default_cache_dir() -> str:
    """Cache location; AVGKERNEL_CACHE_DIR overrides, empty disables.

    Otherwise $XDG_CACHE_HOME/avgkernel, or ~/.cache/avgkernel where
    XDG_CACHE_HOME is unset, empty or relative: the XDG Base Directory
    specification makes a relative path invalid, to be ignored.
    """
    env = os.environ.get("AVGKERNEL_CACHE_DIR")
    if env is not None:
        return env
    xdg = Path(os.environ.get("XDG_CACHE_HOME", "")).expanduser()
    base = xdg if xdg.is_absolute() else Path("~/.cache").expanduser()
    return str(base / "avgkernel")


def _caching(cache_dir: str | os.PathLike | None) -> bool:
    return cache_dir is not None and str(cache_dir) != ""


def _cache_name(k: int) -> str:
    return f"glq_{k}.csv"


def uncached_orders(orders, cache_dir: str | os.PathLike | None) -> list[int]:
    """The orders for which cache_dir holds no regular file, valid or not,
    in their order: every order when cache_dir disables caching or does not
    exist.  One directory listing serves all orders."""
    if not _caching(cache_dir):
        return list(orders)
    try:
        with os.scandir(cache_dir) as entries:
            names = {entry.name for entry in entries if entry.is_file()}
    except (FileNotFoundError, NotADirectoryError):
        names = set()
    return [k for k in orders if _cache_name(k) not in names]


def _nonblocking(path: str, flags: int) -> int:
    """Opener for cache reads: a named pipe where a cache file belongs reads
    as empty, and is rebuilt and replaced, instead of blocking the load."""
    return os.open(path, flags | getattr(os, "O_NONBLOCK", 0))


def load_or_compute_rule(k: int, cache_dir: str | os.PathLike | None,
                         built: QuadratureRule | None = None) -> QuadratureRule:
    """compute_rule with a read-through disk cache.

    A missing cache file is a miss; corrupt or stale ones are recomputed
    and replaced.  An empty cache_dir (or None) disables caching entirely.
    Writes go through a temp file and os.replace, so concurrent readers
    never see partials.  built, a rule of order k the caller has already
    constructed for an order uncached_orders listed, stands in for
    compute_rule, and the file is written without being read.  A read
    takes at most one byte more than the longest order-k file.
    """
    if _caching(cache_dir) and built is None:
        try:
            with open(os.path.join(cache_dir, _cache_name(k)), "rb", opener=_nonblocking) as fh:
                return _parse_cache_bytes(fh.read(16 * k + _FRAME_MAX + 1), k)
        except (FileNotFoundError, NotADirectoryError, IsADirectoryError, _CorruptCache):
            pass
    rule = built if built is not None else compute_rule(k)
    if not _caching(cache_dir):
        return rule
    path = Path(cache_dir) / _cache_name(k)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".glq_{k}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_serialize_rule(rule))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return rule
