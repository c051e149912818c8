import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avgkernel import rules
from avgkernel.cli import format_float
from avgkernel.rules import (
    ConvergenceError,
    QuadratureRule,
    compute_rule,
    compute_rules,
    default_cache_dir,
    load_or_compute_rule,
)
from support import version_4_file

# sha256 of the little-endian bytes of the nodes and of the weights that
# compute_rules built for these orders when its weights were first taken
# from L_k' (the rules of cache format version 3, bitwise unchanged since)
FROZEN_RULE_SHA256 = {
    10: ("f693c427b0aea5626f2fd54e90d9374af31bada14888d32da921e5e919f83907",
         "e98256ead14d21edb5a16ae9d005c10784ccf119fd82a88095d16bccc8ad5acf"),
    120: ("3162b865bfca4a44d2286857c560e3865c078701f222ce7de992430290350c70",
          "55c374f1d77d90c268f68e4d865bcd21e92e9581c0cb1d2d3075f72c650ae619"),
    361: ("66ab6b2f5df66b5e140ce79cec4b5f787d66729441c7431a066f69216c6b89c2",
          "f4ca01d85ef42488ff0de3dfa85c0d1610127a4675ff4e9f0e65ece2bc7d2d84"),
}
# sha256 of the cache files (format version 5) of the same rules
FROZEN_FILE_SHA256 = {
    10: "37e9d3a8e59a466f09c28b4fe8286f625708ac24072c8c73eb7c433f30644c5b",
    120: "cbd0f6389dfc2e84736594b791f945499213e767982801aff63227453a3f8dc8",
    361: "9e72194a39a3cb631dd9508327105180a5b739947102a4ec73adf914a1ae934c",
}
# sha256 of the nodes and of the weights of two orders whose builds
# renormalize the recurrence's terms at many checks, as compute_rule built
# them when a check renormalized only the terms outside [2**-512, 2**512]
HIGH_ORDER_RULE_SHA256 = {
    1000: ("0fe3e5cc08af519dbc101ffc7fcd0a1595953c25868df27e5203d89bb6089df2",
           "799bc0bc09adbb339896962f17e53ab17ecefcccf08799bb37e13a3353ab70b0"),
    2000: ("c3243469d8dade7f1d3d230e43fd0358694771b1010e9ead78d04325da9c27f9",
           "fbf3e62cc6973b7d072ce73a655f92677f3123261c9fdc4aa33957e05337d722"),
}
# the order-2 cache file as format version 3 wrote it, in decimal
VERSION_3_ORDER_2 = (
    "# gauss-laguerre order=2 flushed=0 version=3\n"
    "5.8578643762690497e-1,8.5355339059327362e-1\n"
    "3.4142135623730949e0,1.4644660940672624e-1\n"
    "# sha256=c125dd6f6213f083205fc8a2e46619c9a98547f134422dbe9d65c2c567789e2b\n"
)
# the order-2 cache file as format version 4 wrote it, in hex
VERSION_4_ORDER_2 = (
    "# gauss-laguerre order=2 flushed=0 version=4\n"
    "3fe2bec333018867,3feb504f333f9de5\n"
    "400b504f333f9de6,3fc2bec333018867\n"
    "# sha256=20ae15ba8a37f7209927710d234abf209277ae02a6e608d50a8feeb6239cb887\n"
)
# a cache file ends in "# sha256=", 64 hex digits and a newline
TRAILER_LEN = 74

# ten-point reference values, nodes and leading weights truncated to four
# decimals, trailing weights to two significant figures
TEN_POINT_NODES = [0.1377, 0.7294, 1.8083, 3.4014, 5.5524,
                   8.3301, 11.8437, 16.2792, 21.9965, 29.9206]
TEN_POINT_WEIGHTS = [0.3084, 0.4011, 0.2180, 0.0620, 0.0095,
                     0.0007, 2.8e-05, 4.2e-07, 1.8e-09, 9.9e-13]


def test_one_point_rule_is_exact():
    rule = compute_rule(1)
    assert rule.nodes.tolist() == [1.0]
    assert rule.weights.tolist() == [1.0]


def test_two_point_rule_closed_form():
    rule = compute_rule(2)
    s = math.sqrt(2.0)
    assert rule.nodes == pytest.approx([2.0 - s, 2.0 + s], abs=1e-14)
    assert rule.weights == pytest.approx([(2.0 + s) / 4.0, (2.0 - s) / 4.0], abs=1e-14)


def test_ten_point_rule_reference_values():
    rule = compute_rule(10)
    for x, ref in zip(rule.nodes, TEN_POINT_NODES):
        assert abs(x - ref) <= 1e-4
    for w, ref in zip(rule.weights[:8], TEN_POINT_WEIGHTS[:8]):
        assert abs(w - ref) <= 1e-4
    for w, ref in zip(rule.weights[8:], TEN_POINT_WEIGHTS[8:]):
        assert abs(w - ref) <= 0.05 * ref


def test_polynomial_exactness_low_orders(cache_dir):
    # the k-point rule integrates x^m exactly (to m!) for m <= 2k-1
    for k in range(1, 21):
        rule = load_or_compute_rule(k, cache_dir)
        for m in range(2 * k):
            got = float(np.dot(rule.weights, rule.nodes**m))
            assert got == pytest.approx(math.factorial(m), rel=1e-10)


def test_polynomial_exactness_high_orders(cache_dir):
    for k in (50, 100):
        rule = load_or_compute_rule(k, cache_dir)
        for m in range(0, 41, 5):
            got = float(np.dot(rule.weights, rule.nodes**m))
            assert got == pytest.approx(math.factorial(m), rel=1e-7)


def test_weights_sum_to_one(cache_dir):
    for k in range(1, 51):
        rule = load_or_compute_rule(k, cache_dir)
        assert abs(float(rule.weights.sum()) - 1.0) <= 1e-12
    for k in (100, 200):
        rule = load_or_compute_rule(k, cache_dir)
        assert abs(float(rule.weights.sum()) - 1.0) <= 1e-9


def test_nodes_interlace(cache_dir):
    prev = load_or_compute_rule(1, cache_dir)
    for k in range(2, 101):
        rule = load_or_compute_rule(k, cache_dir)
        assert np.all(rule.nodes[:-1] < prev.nodes)
        assert np.all(prev.nodes < rule.nodes[1:])
        prev = rule


def test_nodes_inside_support(cache_dir):
    for k in (1, 10, 100, 200):
        rule = load_or_compute_rule(k, cache_dir)
        assert rule.nodes[0] > 0.0
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert rule.nodes[-1] < 4.0 * k + 2.0


def test_nodes_interlace_up_to_order_361(cache_dir):
    prev = load_or_compute_rule(1, cache_dir)
    for k in range(2, 362):
        rule = load_or_compute_rule(k, cache_dir)
        assert np.all(rule.nodes[:-1] < prev.nodes), k
        assert np.all(prev.nodes < rule.nodes[1:]), k
        prev = rule


def test_recomputation_is_bitwise_deterministic():
    a = compute_rule(17)
    b = compute_rule(17)
    assert a.nodes.tobytes() == b.nodes.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


def test_matches_scipy(cache_dir):
    roots_laguerre = pytest.importorskip("scipy.special").roots_laguerre
    for k in (5, 20, 100):
        rule = load_or_compute_rule(k, cache_dir)
        x_ref, w_ref = roots_laguerre(k)
        assert np.max(np.abs(rule.nodes - x_ref)) <= 1e-10
        nz = w_ref > 0
        assert np.max(np.abs(rule.weights[nz] / w_ref[nz] - 1.0)) <= 1e-9


def test_matches_scipy_at_high_order(cache_dir):
    roots_laguerre = pytest.importorskip("scipy.special").roots_laguerre
    for k in (200, 361):
        rule = load_or_compute_rule(k, cache_dir)
        x_ref, w_ref = roots_laguerre(k)
        assert np.max(np.abs(rule.nodes / x_ref - 1.0)) <= 2e-12
        both = (w_ref > 1e-250) & (rule.weights > 1e-250)
        assert np.max(np.abs(rule.weights[both] / w_ref[both] - 1.0)) <= 1e-9


def test_batch_matches_scipy():
    roots_laguerre = pytest.importorskip("scipy.special").roots_laguerre
    for rule in compute_rules([10, 120]):
        assert np.max(np.abs(rule.nodes / roots_laguerre(rule.order)[0] - 1.0)) <= 2e-12


def test_rules_match_40_digit_references():
    # tests/gen_rule_refs.py writes these from an mpmath build at 40 digits
    refs = json.loads((Path(__file__).parent / "rule_refs.json").read_text())
    bounds = {10: (4e-15, 1e-14), 100: (1e-13, 1e-12), 361: (2e-12, 5e-12)}
    for rule in compute_rules(bounds):
        ref = refs[str(rule.order)]
        nodes = np.array([float(v) for v in ref["nodes"]])
        weights = np.array([float(v) for v in ref["weights"]])
        node_bound, weight_bound = bounds[rule.order]
        assert np.max(np.abs(rule.nodes / nodes - 1.0)) <= node_bound, rule.order
        # the weights below the smallest normal double, and only those, are flushed
        normal = weights >= sys.float_info.min
        assert np.array_equal(rule.weights == 0.0, ~normal), rule.order
        assert np.max(np.abs(rule.weights[normal] / weights[normal] - 1.0)) <= weight_bound, rule.order


def test_every_node_converges_up_to_the_order_limit():
    # a node that does not converge, or a zero found twice, raises
    orders = [*range(1, 401), *range(401, 1001, 37), 1500, 1999, 2000]
    for rule in compute_rules(orders):
        assert abs(float(rule.weights.sum()) - 1.0) <= 1e-12, rule.order


def test_unconverged_or_doubled_zeros_raise(monkeypatch):
    seeds = rules._seeds

    def doubled(orders):
        z = seeds(orders)
        # of orders [5, 12], order 12's second seed next to its first: both
        # reach its first zero
        z[6] = z[5] * 1.001
        return z

    monkeypatch.setattr(rules, "_seeds", doubled)
    with pytest.raises(ConvergenceError, match="order 12"):
        compute_rules([5, 12])
    monkeypatch.undo()
    monkeypatch.setattr(rules, "_NEWTON_PASSES", 1)
    with pytest.raises(ConvergenceError, match=r"order\(s\) 30 "):
        compute_rule(30)


def _pairs(nodes, weights) -> bytes:
    """A cache file's body: each node and its weight as little-endian doubles."""
    return b"".join(struct.pack("<2d", x, w) for x, w in zip(nodes, weights))


def _signed(body: bytes) -> bytes:
    """body followed by the checksum line of a valid cache file."""
    return body + f"# sha256={hashlib.sha256(body).hexdigest()}\n".encode("ascii")


def _same_rule(a, b):
    return (a.order == b.order and a.nodes.tobytes() == b.nodes.tobytes()
            and a.weights.tobytes() == b.weights.tobytes())


def test_batched_build_matches_single_builds(monkeypatch):
    for rule in compute_rules(range(1, 401)):
        assert _same_rule(rule, compute_rule(rule.order)), rule.order
    # the two largest orders the CLI accepts, built as one group
    monkeypatch.setattr(rules, "_BATCH_NODES", 3999)
    for rule in compute_rules([1999, 2000]):
        assert _same_rule(rule, compute_rule(rule.order)), rule.order


def test_batches_stay_within_the_node_bound(monkeypatch):
    monkeypatch.setattr(rules, "_BATCH_NODES", 40)
    calls = []
    recurrence = rules._recurrence_scaled

    def counted(k, x, degree):
        calls.append((k, np.size(x), bool(np.all(np.diff(degree) <= 0))))
        return recurrence(k, x, degree)

    monkeypatch.setattr(rules, "_recurrence_scaled", counted)
    built = compute_rules([3, 30, 9, 50, 12])
    assert [rule.order for rule in built] == [3, 30, 9, 50, 12]
    # the groups are {3, 30}, {9}, {50} and {12}: each weight pass runs
    # to the group's largest order over all its nodes, and every call gets
    # its degrees largest first
    assert {(30, 33), (9, 9), (50, 50), (12, 12)} <= {(k, size) for k, size, _ in calls}
    assert all(size <= 40 for k, size, _ in calls if k < 50)
    assert all(descending for _, _, descending in calls)
    monkeypatch.undo()
    for rule in built:
        assert _same_rule(rule, compute_rule(rule.order)), rule.order


def test_repeated_orders_are_built_once(monkeypatch):
    sizes = []
    recurrence = rules._recurrence_scaled

    def counted(k, x, degree):
        sizes.append(np.size(x))
        return recurrence(k, x, degree)

    monkeypatch.setattr(rules, "_recurrence_scaled", counted)
    built = compute_rules([7, 7, 3])
    assert [rule.order for rule in built] == [7, 7, 3]
    # one group of 7 + 3 nodes: its first Newton pass and its weight pass
    assert sizes[0] == sizes[-1] == 10
    monkeypatch.undo()
    for rule in built:
        assert _same_rule(rule, compute_rule(rule.order)), rule.order


def test_cache_files_match_frozen_digests(tmp_path):
    for rule in compute_rules(FROZEN_FILE_SHA256):
        k = rule.order
        digests = tuple(hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
                        for values in (rule.nodes, rule.weights))
        assert digests == FROZEN_RULE_SHA256[k], k
        load_or_compute_rule(k, tmp_path, rule)
        data = (tmp_path / f"glq_{k}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == FROZEN_FILE_SHA256[k], k
        assert _same_rule(load_or_compute_rule(k, tmp_path), rule)


def test_high_order_rules_match_frozen_digests(monkeypatch):
    # one at a time, and both orders in one group
    built = [compute_rule(k) for k in HIGH_ORDER_RULE_SHA256]
    monkeypatch.setattr(rules, "_BATCH_NODES", 3000)
    for rule in built + compute_rules(HIGH_ORDER_RULE_SHA256):
        digests = tuple(hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
                        for values in (rule.nodes, rule.weights))
        assert digests == HIGH_ORDER_RULE_SHA256[rule.order], rule.order


def test_checksum_line_is_the_sha256_of_the_body():
    # the cache hashes with CPython's own SHA-256, which must give hashlib's digest
    data = rules._serialize_rule(compute_rule(37))
    pos = data.rindex(b"# sha256=")
    assert data[pos:] == f"# sha256={hashlib.sha256(data[:pos]).hexdigest()}\n".encode("ascii")


def test_high_order_tail_weights_flush_to_zero():
    rule = compute_rule(400)
    zero = np.flatnonzero(rule.weights == 0.0)
    assert len(zero) > 0
    # flushing hits the largest nodes only, contiguously at the top
    assert zero[0] == 400 - len(zero)
    assert np.all(rule.weights[: zero[0]] > 0.0)


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        compute_rule(0)


def test_format_float_layout():
    assert format_float(1.0) == "1.0000000000000000e0"
    assert format_float(0.5) == "5.0000000000000000e-1"
    assert format_float(-(2.0**-11)) == "-4.8828125000000000e-4"
    # 17 significant digits round-trip doubles exactly
    v = 0.1377934705439809
    assert float(format_float(v)) == v


def test_cache_round_trip_is_bitwise_up_to_order_400(tmp_path):
    built = compute_rules(range(1, 401))
    # the flushed zero weights are written and read back too
    assert any(np.any(rule.weights == 0.0) for rule in built)
    for rule in built:
        load_or_compute_rule(rule.order, tmp_path, rule)
    for rule in built:
        loaded = load_or_compute_rule(rule.order, tmp_path)
        assert _same_rule(loaded, rule), rule.order
        assert loaded.nodes.dtype == loaded.weights.dtype == np.float64


def test_cache_round_trip(tmp_path):
    first = load_or_compute_rule(12, tmp_path)
    path = tmp_path / "glq_12.csv"
    assert path.is_file()
    second = load_or_compute_rule(12, tmp_path)
    assert first.nodes.tobytes() == second.nodes.tobytes()
    assert first.weights.tobytes() == second.weights.tobytes()


def test_rules_are_read_only(tmp_path):
    built = load_or_compute_rule(7, tmp_path)
    loaded = load_or_compute_rule(7, tmp_path)
    for rule in (built, loaded):
        for values in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                values[0] = 1.0


def test_cache_file_layout(tmp_path):
    rule = load_or_compute_rule(3, tmp_path)
    data = (tmp_path / "glq_3.csv").read_bytes()
    header = b"# gauss-laguerre order=3 flushed=0 version=5\n"
    assert data.startswith(header)
    body = data[len(header):-TRAILER_LEN]
    # 16 bytes per node: the little-endian IEEE-754 node, then its weight
    assert len(body) == 16 * 3
    assert body == _pairs(rule.nodes, rule.weights)
    assert data == _signed(data[:-TRAILER_LEN])


def test_version_1_cache_file_is_rebuilt(tmp_path, monkeypatch):
    load_or_compute_rule(5, tmp_path)
    path = tmp_path / "glq_5.csv"
    current = path.read_bytes()

    builds = []
    compute = rules.compute_rule

    def counted(k):
        builds.append(k)
        return compute(k)

    monkeypatch.setattr(rules, "compute_rule", counted)
    # versions 1 and 2 hold the rules of older builders, off in the last
    # digits; versions 1 to 3 hold decimal rows and version 4 hex ones.
    # Each is rebuilt once, and the rebuilt file is then read.
    for old in (1, 2, 3, 4):
        body = current[:-TRAILER_LEN].replace(b"version=5", f"version={old}".encode("ascii"), 1)
        path.write_bytes(_signed(body))
        builds.clear()
        load_or_compute_rule(5, tmp_path)
        assert builds == [5], old
        assert path.read_bytes() == current
        load_or_compute_rule(5, tmp_path)
        assert builds == [5], old

    # real version 3 and 4 files, valid in their own formats; the version 4
    # writer that other tests fill whole caches with writes the same file
    assert version_4_file(compute(2)) == VERSION_4_ORDER_2
    path = tmp_path / "glq_2.csv"
    for old, text in ((3, VERSION_3_ORDER_2), (4, VERSION_4_ORDER_2)):
        path.write_text(text)
        builds.clear()
        rule = load_or_compute_rule(2, tmp_path)
        assert builds == [2], old
        assert _same_rule(rule, compute(2))
        assert path.read_bytes().startswith(b"# gauss-laguerre order=2 flushed=0 version=5\n")
        assert _same_rule(load_or_compute_rule(2, tmp_path), rule)
        assert builds == [2], old


def test_cache_hit_skips_recompute(tmp_path, monkeypatch):
    load_or_compute_rule(9, tmp_path)

    def boom(k):
        raise AssertionError("cache should have been used")

    monkeypatch.setattr(rules, "compute_rule", boom)
    rule = load_or_compute_rule(9, tmp_path)
    assert rule.order == 9


def test_cache_corruption_recovers(tmp_path):
    good = load_or_compute_rule(6, tmp_path)
    path = tmp_path / "glq_6.csv"
    data = path.read_bytes()
    header_len = data.index(b"\n") + 1
    # the lowest bit of the second node's double
    flipped = bytearray(data)
    flipped[header_len + 16] ^= 1

    for broken in (
        bytes(flipped),                            # checksum mismatch
        data.replace(b"order=6", b"order=7", 1),  # header tamper
        data[: header_len + 16 * 4],               # truncated
        b"",
    ):
        path.write_bytes(broken)
        rule = load_or_compute_rule(6, tmp_path)
        assert rule.nodes.tobytes() == good.nodes.tobytes()
        # the bad file was replaced with a clean one
        assert path.read_bytes() == data


def test_malformed_body_behind_a_valid_checksum_is_rebuilt(tmp_path):
    good = load_or_compute_rule(4, tmp_path)
    path = tmp_path / "glq_4.csv"
    data = path.read_bytes()
    header, _, pairs = data[:-TRAILER_LEN].partition(b"\n")
    header += b"\n"
    assert len(pairs) == 16 * 4
    broken = [_signed(body) for body in (
        header + pairs[:-1],           # one byte short
        header + pairs + b"\0",        # one byte extra
        header + pairs[:-16],          # three nodes under an order=4 header
        header + pairs + pairs[:16],   # five nodes under it
        header + np.frombuffer(pairs, "<f8").astype(">f8").tobytes(),  # big-endian pairs
        header + version_4_file(good).encode("ascii").split(b"\n", 1)[1][:-TRAILER_LEN],  # hex rows
        pairs,                         # no header
        b"",                           # the checksum line alone
    )]
    # a file shorter than its trailer
    broken.append(broken[-1][1:])
    for body in broken:
        path.write_bytes(body)
        with pytest.raises(rules._CorruptCache):
            rules._parse_cache_bytes(body, 4)
        rule = load_or_compute_rule(4, tmp_path)
        assert _same_rule(rule, good), repr(body)
        assert path.read_bytes() == data


def test_wrong_flushed_count_behind_a_valid_checksum_is_rebuilt(tmp_path):
    # order 400 has weights flushed to zero, order 4 none
    for k in (4, 400):
        good = load_or_compute_rule(k, tmp_path)
        flushed = int(np.count_nonzero(good.weights == 0.0))
        assert (flushed > 0) == (k == 400)
        path = tmp_path / f"glq_{k}.csv"
        data = path.read_bytes()
        for wrong in {flushed - 1, flushed + 1} - {-1}:
            header = f"# gauss-laguerre order={k} flushed={wrong} version=5\n".encode("ascii")
            path.write_bytes(_signed(header + _pairs(good.nodes, good.weights)))
            with pytest.raises(rules._CorruptCache, match="flushed count mismatch"):
                rules._parse_cache_bytes(path.read_bytes(), k)
            assert _same_rule(load_or_compute_rule(k, tmp_path), good)
            assert path.read_bytes() == data


@pytest.mark.parametrize("problem, column, index, value", [
    ("non-finite entries", 1, 5, lambda values: np.nan),
    ("first node not positive", 0, 0, lambda values: 0.0),
    ("nodes not strictly increasing", 0, 2, lambda values: values[1]),
    ("last node beyond 4k+2", 0, -1, lambda values: 4.0 * 60 + 2.0),
    ("negative weight", 1, 3, lambda values: -values[3]),
    ("weights do not sum to 1", 1, 0, lambda values: values[0] + 1e-10),
], ids=["non-finite", "first-node", "increasing", "last-node", "negative-weight", "weight-sum"])
def test_invariant_failures_behind_a_valid_checksum_are_rebuilt(
        tmp_path, problem, column, index, value):
    # one entry of an order-60 rule changed so that the rule fails one
    # check of _invariant_problem, written as a valid version 5 file
    good = load_or_compute_rule(60, tmp_path)
    path = tmp_path / "glq_60.csv"
    data = path.read_bytes()
    columns = [good.nodes.copy(), good.weights.copy()]
    columns[column][index] = value(columns[column])
    assert rules._invariant_problem(60, *columns) == problem
    header = data[: data.index(b"\n") + 1]
    path.write_bytes(_signed(header + _pairs(*columns)))
    with pytest.raises(rules._CorruptCache) as excinfo:
        rules._parse_cache_bytes(path.read_bytes(), 60)
    assert str(excinfo.value) == problem
    rule = load_or_compute_rule(60, tmp_path)
    assert _same_rule(rule, good)
    assert path.read_bytes() == data


def test_cache_file_longer_than_its_order_is_rebuilt(tmp_path):
    # a read stops one byte past the longest order-k file, and that many
    # bytes fail as corrupt whatever they hold
    good = load_or_compute_rule(4, tmp_path)
    path = tmp_path / "glq_4.csv"
    data = path.read_bytes()
    limit = 16 * 4 + rules._FRAME_MAX
    assert len(data) < limit
    with pytest.raises(rules._CorruptCache, match="checksum mismatch"):
        rules._parse_cache_bytes(data + b"\0" * (limit - len(data)), 4)
    with pytest.raises(rules._CorruptCache, match="longer than an order-k file"):
        rules._parse_cache_bytes(data + b"\0" * (limit + 1 - len(data)), 4)
    path.write_bytes(data + b"\0" * (1 << 20))
    assert _same_rule(load_or_compute_rule(4, tmp_path), good)
    assert path.read_bytes() == data


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_named_pipe_read_directly_is_replaced(tmp_path):
    # the CLI never opens a pipe (uncached_orders lists it as missing), but
    # a direct load does: it reads as empty instead of waiting for a writer
    os.mkfifo(tmp_path / "glq_3.csv")
    code = "import sys; from avgkernel import rules; print(rules.load_or_compute_rule(3, sys.argv[1]).order)"
    cp = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                        capture_output=True, text=True, timeout=60)
    assert (cp.returncode, cp.stdout, cp.stderr) == (0, "3\n", "")
    assert (tmp_path / "glq_3.csv").is_file()
    assert _same_rule(load_or_compute_rule(3, tmp_path), compute_rule(3))


def test_cache_disabled_writes_nothing(tmp_path):
    rule = load_or_compute_rule(4, None)
    assert rule.order == 4
    load_or_compute_rule(4, "")
    assert list(tmp_path.iterdir()) == []


def test_default_cache_dir_env(monkeypatch):
    monkeypatch.setenv("AVGKERNEL_CACHE_DIR", "/tmp/somewhere")
    assert default_cache_dir() == "/tmp/somewhere"
    monkeypatch.setenv("AVGKERNEL_CACHE_DIR", "")
    assert default_cache_dir() == ""
    monkeypatch.delenv("AVGKERNEL_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
    assert default_cache_dir() == os.path.join("/tmp/xdg", "avgkernel")
    monkeypatch.delenv("XDG_CACHE_HOME")
    home = default_cache_dir()
    assert home == os.path.join(os.path.expanduser("~"), ".cache", "avgkernel")
    # the XDG Base Directory spec makes a relative path invalid: it is ignored
    for relative in ("xdg", "./xdg", ""):
        monkeypatch.setenv("XDG_CACHE_HOME", relative)
        assert default_cache_dir() == home


def test_rule_dataclass_fields():
    rule = compute_rule(2)
    assert isinstance(rule, QuadratureRule)
    assert rule.order == 2
    assert rule.nodes.shape == rule.weights.shape == (2,)
