#!/usr/bin/env python3
"""Run avgkernel.cli.main(argv) in this process, optionally traced.

    python3 perfbench/tracer.py OUT.json [--off] -- CLI-ARGS...

Tracing wraps the public function of each layer at the module attribute its
caller looks up, so spans follow the real call graph without editing the
package; the wrapped attributes are the ones the table3 and check commands
reach.  Spans stay in memory; the per-layer metrics computed from them,
the captured stdout, the exit code and the wall time of main() are written
to OUT.json.  With --off nothing is wrapped, which gives the untraced
in-process time the tracing overhead is measured against.  run.py starts
one process per run, so no state carries over from one run to the next.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "info")

    def __init__(self, name, parent, info):
        self.name = name
        self.parent = parent
        self.info = info
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans at layer boundaries plus the counts recorded with them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, module, attr, name, before=None, after=None):
        """Replace module.attr by a span-recording wrapper.

        before(args, kwargs) returns the span's info dict; after(info,
        args, result) completes it once the call has returned.
        """
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            info = before(args, kwargs) if before else {}
            span = Span(name, self._stack[-1] if self._stack else None, info)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
            if after:
                after(info, args, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def named(self, name):
        return [s for s in self.spans if s.name == name]


def _cache_before(args, kwargs):
    k, cache_dir = args[0], args[1] if len(args) > 1 else kwargs.get("cache_dir")
    path = Path(cache_dir) / f"glq_{k}.csv" if cache_dir not in (None, "") else None
    existed = path is not None and path.is_file()
    return {"path": path, "existed": existed,
            "size_before": path.stat().st_size if existed else 0}


def _cache_after(info, args, result):
    path = info["path"]
    info["size_after"] = path.stat().st_size if path is not None and path.is_file() else 0


def _oracle_before(signature):
    def before(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        n = bound.arguments["points"]
        # three midpoint grids (n/2, n, 2n per axis), the y axis one cell longer
        return {"points": sum(m * (m + 1) for m in (n // 2, n, 2 * n))}
    return before


def _eval_before(args, kwargs):
    x = args[1]
    return {"points": int(np.size(x)), "scalar": bool(np.isscalar(x))}


def _result_after(info, args, result):
    info["label"] = result.kernel_id
    info["p"] = result.p
    info["R"] = result.remainder_value


def install(tracer: Tracer) -> None:
    from avgkernel import average, cli, laguerre, rules, tensor_quad

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "parse_kernel", "kernels.parse_kernel")
    tracer.wrap(cli, "pre_exponential_factor", "average.pre_exponential_factor",
                after=_result_after)
    tracer.wrap(cli, "population_average_oracle", "average.population_average_oracle",
                before=_oracle_before(inspect.signature(average.population_average_oracle)))
    tracer.wrap(average, "full_report", "extrapolate.full_report")
    tracer.wrap(average, "eval_kernel", "kernels.eval_kernel", before=_eval_before)
    tracer.wrap(tensor_quad, "load_or_compute_rule", "rules.load_or_compute_rule",
                before=_cache_before, after=_cache_after)
    tracer.wrap(rules, "compute_rule", "rules.compute_rule",
                before=lambda args, kwargs: {"k": args[0]})
    for module in (rules, laguerre):
        tracer.wrap(module, "_recurrence_scaled", "laguerre.recurrence",
                    before=lambda args, kwargs: {"k": args[0]})
    tracer.wrap(tensor_quad, "integrate_2d", "tensor_quad.integrate_2d",
                before=lambda args, kwargs: {"k": args[0].order})


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times; names match BENCHMARK.json's per_layer."""
    builds = tracer.named("rules.compute_rule")
    recurrences = tracer.named("laguerre.recurrence")
    loads = tracer.named("rules.load_or_compute_rule")
    sums = tracer.named("tensor_quad.integrate_2d")
    evals = [s for s in tracer.named("kernels.eval_kernel")
             if s.parent is not None and s.parent.name == "tensor_quad.integrate_2d"]
    oracles = tracer.named("average.population_average_oracle")
    factors = tracer.named("average.pre_exponential_factor")
    fits = tracer.named("extrapolate.full_report")

    built = {id(s.parent) for s in builds}
    hits = [s for s in loads if s.info["existed"] and id(s) not in built]
    misses = [s for s in loads if not s.info["existed"]]
    corrupt = [s for s in loads if s.info["existed"] and id(s) in built]
    writers = misses + corrupt
    nodes = sum(s.info["k"] for s in builds)
    return {
        "rules.build_calls": len(builds),
        "rules.build_s": sum(s.duration for s in builds),
        "rules.nodes_built": nodes,
        "laguerre.recurrence_calls": len(recurrences),
        "laguerre.recurrence_steps": sum(s.info["k"] for s in recurrences),
        "laguerre.s": sum(s.duration for s in recurrences),
        "laguerre.evals_per_node": len(recurrences) / nodes if nodes else 0.0,
        "rules.cache_hits": len(hits),
        "rules.cache_misses": len(misses),
        "rules.cache_corrupt": len(corrupt),
        "rules.cache_hit_ratio": len(hits) / len(loads) if loads else 0.0,
        "rules.cache_read_s": sum(s.self_s for s in hits),
        "rules.cache_write_s": sum(s.self_s for s in writers),
        "rules.cache_bytes_read": sum(s.info["size_before"] for s in hits + corrupt),
        "rules.cache_bytes_written": sum(s.info["size_after"] for s in writers),
        "kernels.eval_calls": len(evals),
        "kernels.points": sum(s.info["points"] for s in evals),
        "kernels.s": sum(s.duration for s in evals),
        "kernels.scalar_calls": sum(s.info["scalar"] for s in evals),
        "tensor_quad.calls": len(sums),
        "tensor_quad.points": sum(s.info["k"] ** 2 for s in sums),
        "tensor_quad.self_s": sum(s.self_s for s in sums),
        # computed from array sizes: the k*k float64 values, outer product
        # of the weights and their product, plus the k*k isfinite mask
        "tensor_quad.bytes_computed": sum(25 * s.info["k"] ** 2 for s in sums),
        "average.oracle_calls": len(oracles),
        "average.oracle_points": sum(s.info["points"] for s in oracles),
        "average.oracle_s": sum(s.duration for s in oracles),
        "kernels.parse_s": sum(s.duration for s in tracer.named("kernels.parse_kernel")),
        "average.p_calls": len(factors),
        "average.p_self_s": sum(s.self_s for s in factors),
        "extrapolate.calls": len(fits),
        "extrapolate.s": sum(s.duration for s in fits),
        "cli.self_s": sum(s.self_s for s in tracer.named("cli.main")),
    }


def main() -> int:
    out_path, rest = sys.argv[1], sys.argv[2:]
    off = rest[:1] == ["--off"]
    argv = rest[rest.index("--") + 1:]
    from avgkernel import cli

    tracer = Tracer()
    if not off:
        install(tracer)
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    results = [{k: s.info[k] for k in ("label", "p", "R")}
               for s in tracer.named("average.pre_exponential_factor")]
    Path(out_path).write_text(json.dumps({
        "rc": rc,
        "stdout": stdout.getvalue(),
        "wall_s": wall,
        "layers": {} if off else layer_metrics(tracer),
        "results": results,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
