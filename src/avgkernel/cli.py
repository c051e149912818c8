"""Command-line surface: rule, converge, report, table3, check.

Exit codes: 0 success, 1 check failed, 2 usage/validation, 3 numeric, I/O
or internal failure.  Standard output is byte-deterministic for identical
invocations; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import os
import signal
import sys

from .average import ORACLE_RTOL, at_u, population_average_oracle, pre_exponential_factor
from .extrapolate import FIT_ORDERS, fit_orders, fit_window
from .kernels import BUILTIN_IDS, builtin_kernel, parse_kernel
from .rules import default_cache_dir
from .tensor_quad import load_rules

# The oracle evaluates the kernel at x and y scaled by u, so for a kernel of
# the declared degree q its values at these u agree up to u^q.  They are
# not one computation repeated: the u = 0.5 and u = 2 rows are what catch a
# kernel whose declared q is wrong (test_check_detects_wrong_degree).
_CHECK_U = (0.5, 1.0, 2.0)
_CHECK_COLUMNS = ("u", "beta_bar", "oracle", "delta", "tol")
# The largest --points/--max-points accepted.  report and check at k = 2000
# build or read 16 rules and take 1.3-1.4 s uncached (SD, 2 CPUs).  converge
# is the one command that sums a full series: to k = 2000 that reads 2M
# nodes and weights (32 MB) and sums 2.7 billion kernel values, 18 to 24 s.
MAX_ORDER = 2000
# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Have glibc keep the 2D sum's freed row-block temporaries for reuse by
    the next block and the next order.

    By default an array above the mmap threshold is mapped on allocation
    and unmapped on free, and free memory at the heap top is trimmed, so
    each block faults its temporaries in afresh.  That costs most where a
    command sums many orders: converge, the one command that sums a full
    series, takes 0.24-0.38 s in-process without this and 0.11-0.13 s with
    it on SD to order 361, and smaller sum blocks do not take its place.
    32 MiB is glibc's largest mmap threshold on 64-bit; the trim threshold
    lies above it.  Does nothing where the C library cannot be opened this
    way or has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _kernel(args):
    """The --kernel spec; an asymmetric kernel, or one whose declared q is
    not its sampled degree, gets a warning on stderr."""
    spec = parse_kernel(args.kernel)
    for warning in (spec.symmetry_warning, spec.degree_warning):
        if warning is not None:
            print(f"avgkernel: warning: kernel {spec.label!r} {warning}", file=sys.stderr)
    return spec


def _order(value: int, flag: str, least: int, suffix: str = "") -> int:
    """The value of an order flag, rejected (exit code 2) below the
    command's least order or above MAX_ORDER."""
    if value < least:
        raise ValueError(f"{flag} must be >= {least}{suffix}")
    if value > MAX_ORDER:
        raise ValueError(f"{flag} must be <= {MAX_ORDER}")
    return value


def _fit_window(args, k_max: int) -> tuple[int, int] | None:
    """--fit-window A:B, checked against a series of k_max orders before
    the series runs; None when it is not given."""
    text = args.fit_window
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"fit window must be A:B, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"fit window must be two integers A:B, got {text!r}") from None
    fit_window(k_max, (a, b))
    if k_max < FIT_ORDERS:
        raise ValueError(f"--fit-window needs --max-points >= {FIT_ORDERS}"
                         " (a remainder fit takes at least that many orders)")
    return (a, b)


def format_float(v: float) -> str:
    """17 significant digits, lowercase scientific, compact exponent."""
    mant, _, exp = f"{v:.16e}".partition("e")
    sign = "-" if exp.startswith("-") else ""
    digits = exp.lstrip("+-").lstrip("0") or "0"
    return f"{mant}e{sign}{digits}"


def _emit(*cells) -> None:
    """Write one line of standard output: the cells joined by commas, a
    float by format_float, None as an empty cell and anything else as text."""
    sys.stdout.write(",".join("" if c is None else format_float(c) if isinstance(c, float)
                              else str(c) for c in cells) + "\n")


def _q_fraction(q: float) -> str:
    """q as n/d when within 1e-12 of one with d <= 48, else to 12 significant digits.

    Two such fractions lie at least 1/(48*47) apart, so the smallest d that
    fits gives the closest fraction, in lowest terms."""
    for d in range(1, 49):
        n = round(q * d)
        if abs(n / d - q) < 1e-12:
            return f"{n}/{d}" if d != 1 else str(n)
    return f"{q:.12g}"


def _beta_display(p: float, q: float) -> str:
    """p*u^q to four decimals, q as _q_fraction writes it: p alone when
    that is 0, and p*u when it is 1."""
    q_text = _q_fraction(q)
    return f"{p:.4f}" + {"0": "", "1": "*u"}.get(q_text, f"*u^({q_text})")


def _ii(q: float, fit) -> str:
    """The II text of a fit: Q ± R to four decimals, or no estimate."""
    return "no estimate" if fit.remainder is None else f"{q:.4f} ± {fit.remainder:.4f}"


# Each command writes its csv lines through emit, which main makes _emit
# for csv and a no-op for json, and returns its exit code and JSON payload.


def cmd_rule(args, cache_dir, emit):
    rule = load_rules([_order(args.points, "--points", 1)], cache_dir)[0]
    for i, (x, w) in enumerate(zip(rule.nodes, rule.weights), start=1):
        emit(i, x, w)
    return 0, {
        "order": rule.order,
        "nodes": rule.nodes.tolist(),
        "weights": rule.weights.tolist(),
    }


def cmd_converge(args, cache_dir, emit):
    k_max = _order(args.max_points, "--max-points", 2)
    spec = _kernel(args)
    window = _fit_window(args, k_max)
    result = pre_exponential_factor(spec, load_rules(range(1, k_max + 1), cache_dir), window)
    values, fit = result.values, result.fit
    eps = [abs(b - a) for a, b in zip(values, values[1:])]
    payload = {
        "kernel": spec.label,
        "k_max": k_max,
        "orders": list(range(1, k_max + 1)),
        "values": values,
        "errors": eps,
        "status": fit.status,
    }

    for k, (value, e) in enumerate(zip(values, [*eps, None]), start=1):
        emit(k, value, e)
    if fit.status == "short":
        emit(f"# series too short for a remainder fit (need >= {FIT_ORDERS} orders)")
        return 0, payload
    ii = _ii(values[-1], fit)
    payload.update({"C": fit.slope, "R": fit.remainder, "Q": values[-1],
                    "fit_window": list(fit.window), "II": ii})
    if fit.status == "exact":
        emit("# converged exactly, R = 0")
    else:
        emit(f"# C = {format_float(fit.slope)} (fit window {fit.window[0]}:{fit.window[1]})")
        emit("# R = no estimate (C >= -1)" if fit.remainder is None
             else f"# R = {format_float(fit.remainder)}")
    emit(f"# II = {ii}")
    return 0, payload


def cmd_report(args, cache_dir, emit):
    k_max = _order(args.max_points, "--max-points", FIT_ORDERS, " for report")
    spec = _kernel(args)
    window = _fit_window(args, k_max)
    result = pre_exponential_factor(spec, load_rules(fit_orders(k_max, window), cache_dir),
                                    window)
    fit, q_k = result.fit, result.values[-1]
    beta, ii = _beta_display(result.p, result.q), _ii(q_k, fit)

    emit("# columns: kernel,Q,eps_n,C,R,p,q,beta_bar")
    emit(spec.label, q_k, fit.anchor_error, fit.slope, fit.remainder, result.p, result.q, beta)
    emit(f"# II = {ii}")
    return 0, {
        "kernel": spec.label,
        "k_max": k_max,
        "Q": q_k,
        "eps": fit.anchor_error,
        "C": fit.slope,
        "R": fit.remainder,
        "p": result.p,
        "q": result.q,
        "beta_bar": beta,
        "status": fit.status,
        "fit_window": list(fit.window),
        "II": ii,
    }


def cmd_table3(args, cache_dir, emit):
    k_max = _order(args.max_points, "--max-points", FIT_ORDERS, " for table3")
    rows = []
    emit("# columns: type,p,q,beta_bar")
    # p = Q_k/2 needs rule k alone; 1..k still load, to check and fill the cache
    rules = load_rules(range(1, k_max + 1), cache_dir)[-1:]
    for kernel_id in BUILTIN_IDS:
        result = pre_exponential_factor(builtin_kernel(kernel_id), rules)
        beta = _beta_display(result.p, result.q)
        emit(kernel_id, result.p, result.q, beta)
        rows.append({"type": kernel_id, "p": result.p, "q": result.q, "beta_bar": beta})
    return 0, {"k_max": k_max, "rows": rows}


def cmd_check(args, cache_dir, emit):
    k_max = _order(args.max_points, "--max-points", FIT_ORDERS, " for check")
    spec = _kernel(args)
    result = pre_exponential_factor(spec, load_rules(fit_orders(k_max), cache_dir))
    rows = []
    for u in _CHECK_U:
        beta, rem = at_u(result, u)
        oracle = population_average_oracle(spec, u)
        tol = ORACLE_RTOL * max(1.0, abs(oracle))
        if rem is not None:
            tol = max(tol, rem)
        rows.append((u, beta, oracle, abs(oracle - beta), tol))
    passed = all(delta <= tol for *_, delta, tol in rows)

    emit("# columns: " + ",".join(_CHECK_COLUMNS))
    for u, *values in rows:
        emit(f"{u:g}", *values)
    emit("# check passed" if passed else "# check FAILED")
    return (0 if passed else 1), {"kernel": spec.label, "k_max": k_max,
                                  **dict(zip(_CHECK_COLUMNS, zip(*rows))), "passed": passed}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgkernel",
        description="Average coagulation kernels via Gauss-Laguerre quadrature",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, kernel=False, max_points=None):
        if kernel:
            sp.add_argument("--kernel", required=True,
                            help="builtin id (fm|cr|sc|sd) or expression")
        if max_points is not None:
            sp.add_argument("--max-points", type=int, default=max_points,
                            help=f"largest rule order (default {max_points},"
                                 f" at most {MAX_ORDER})")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--cache-dir", default=None,
                        help="rule cache directory ('' disables;"
                             " default honors AVGKERNEL_CACHE_DIR)")

    p_rule = sub.add_parser("rule", help="print one k-point rule")
    p_rule.add_argument("--points", type=int, required=True,
                        help=f"rule order, 1..{MAX_ORDER}")
    common(p_rule)
    p_rule.set_defaults(func=cmd_rule)

    p_conv = sub.add_parser("converge", help="Q_{k,k} series with remainder trailer")
    common(p_conv, kernel=True, max_points=100)
    p_conv.add_argument("--fit-window", default=None, metavar="A:B")
    p_conv.set_defaults(func=cmd_converge)

    p_rep = sub.add_parser("report", help="one-kernel summary (Q, C, R, p, q)")
    common(p_rep, kernel=True, max_points=361)
    p_rep.add_argument("--fit-window", default=None, metavar="A:B")
    p_rep.set_defaults(func=cmd_report)

    p_t3 = sub.add_parser("table3", help="p and beta_bar for the four builtins")
    common(p_t3, max_points=361)
    p_t3.set_defaults(func=cmd_table3)

    p_chk = sub.add_parser("check", help="compare against the population average")
    common(p_chk, kernel=True, max_points=361)
    p_chk.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8", newline="\n")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if sys.stdout is None:  # started with fd 1 closed: no write can succeed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
        csv = args.format == "csv"
        try:
            rc, payload = args.func(args, cache_dir, _emit if csv else lambda *cells: None)
            if not csv:  # one line of JSON, and only a JSON run loads json
                import json

                _emit(json.dumps(payload))
            return rc
        finally:  # so a failed last write ends as any failed write does
            sys.stdout.flush()
    except ValueError as exc:
        print(f"avgkernel: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, OSError) as exc:
        print(f"avgkernel: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Process entry: main(), which leaves no output buffered, then exit
    without interpreter teardown (the package registers no atexit handler).
    A reader that closes the pipe early ends the process by SIGPIPE, as cat.
    """
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    os._exit(main())
