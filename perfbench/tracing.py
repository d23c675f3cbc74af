"""In-process runner for one rankbench CLI invocation, traced or plain.

Run as a child process from the work directory of a benchmark run:

    python3 perfbench/tracing.py --mode traced --out spans.json --invocation 3 -- coeff ...

``--mode traced`` wraps every public function of the pipeline layers in
every ``rankbench`` module namespace that binds it, then calls
``rankbench.cli.main(argv)`` as the root span. ``--mode plain`` makes the
same call with nothing wrapped, so the two modes give the tracing
overhead. Spans are kept in memory and written to ``--out`` as JSON when
the invocation ends. ``summarize`` turns them into per-layer self times;
it does not import rankbench.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import resource
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("results", "ranking", "concordance", "wasserstein", "resampling", "comparison", "plotting")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans are (name, start, end, parent index, invocation id); -1 is no parent."""

    def __init__(self, invocation: int) -> None:
        self.invocation = invocation
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counters: Counter = Counter()
        self.maxrss: dict[str, float] = {}

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.invocation)

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        span_name = _SPAN_NAMES.get(name, lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(span_name(args, kwargs), fn, args, kwargs)
            if count is not None:
                count(self, args, result)
            return result

        return traced


def _count_ingest(tracer, args, table):
    tracer.counters["results.ingest.rows"] += len(table.records)
    tracer.maxrss["results.ingest.maxrss_mb"] = _maxrss_mb()


def _count_resolve(tracer, args, table):
    tracer.counters["results.failed_cells"] += sum(r.status.value != "ok" for r in args[0].records)
    tracer.maxrss["results.resolve_failures.maxrss_mb"] = _maxrss_mb()


def _count_build(tracer, args, matrices):
    tracer.counters["ranking.rank_rows"] += sum(m.n_seeds for m in matrices)
    tracer.maxrss["ranking.build_rank_matrices.maxrss_mb"] = _maxrss_mb()


def _count_ww_test(tracer, args, stats):
    a = args[0].n_algorithms
    tracer.counters["wasserstein.pairs"] += a * (a - 1) // 2


def _count_convergence(tracer, args, report):
    tracer.counters["resampling.draws"] += len(report.sizes) * report.repeats


_COUNTERS = {
    "results.ingest": _count_ingest,
    "results.resolve_failures": _count_resolve,
    "ranking.build_rank_matrices": _count_build,
    "ranking.count_ties": lambda t, args, n: t.counters.update({"ranking.tie_groups": n}),
    "wasserstein.ww_test": _count_ww_test,
    "resampling.subsample_convergence": _count_convergence,
    "comparison.fcr": lambda t, args, r: t.counters.update({"comparison.units": r.units}),
}

# w_randomness serves both W and W_t; the span name tells them apart.
_SPAN_NAMES = {
    "concordance.w_randomness": lambda args, kwargs: (
        "concordance.w_randomness_tied"
        if kwargs.get("tied", args[1] if len(args) > 1 else False)
        else "concordance.w_randomness"
    ),
}


def install(tracer: Tracer) -> int:
    """Wrap the layers' public functions wherever a rankbench module binds them."""
    importlib.import_module("rankbench.cli")
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"rankbench.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__:
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
    bindings = 0
    for module_name, module in list(sys.modules.items()):
        if module_name != "rankbench" and not module_name.startswith("rankbench."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
                bindings += 1
    return bindings


def summarize(spans: list) -> dict:
    """Per-name call counts and layer self times.

    A span's layer is the part of its name before the first dot. Calls
    within one layer are folded into the outermost of them, so a layer's
    self time is the duration of its outermost spans minus the time of
    the spans of other layers nested in them.
    """

    def layer(name: str) -> str:
        return name.split(".", 1)[0]

    other = [0.0] * len(spans)  # time covered by nested spans of other layers
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            crossing = layer(name) != layer(spans[parent][0])
            other[parent] += (end - start) if crossing else other[i]
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        if parent < 0 or layer(spans[parent][0]) != layer(name):
            self_s[name] += (end - start) - other[i]
    return {"self_s": dict(self_s), "calls": dict(calls)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["traced", "plain"], required=True)
    parser.add_argument("--out", required=True, help="JSON file for the spans and timings")
    parser.add_argument("--invocation", type=int, default=0, help="id recorded in every span")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER, help="-- then the rankbench arguments")
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    import rankbench.cli

    tracer = Tracer(args.invocation)
    bindings = install(tracer) if args.mode == "traced" else 0
    main_fn = rankbench.cli.main
    start = time.perf_counter()
    if args.mode == "traced":
        rc = tracer.call("cli.main", main_fn, (cli_argv,), {})
    else:
        rc = main_fn(cli_argv)
    main_s = time.perf_counter() - start
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "rc": rc,
                "mode": args.mode,
                "main_s": main_s,
                "bindings": bindings,
                "module": rankbench.cli.__file__,
                "counters": dict(tracer.counters),
                "maxrss_mb": tracer.maxrss,
                "spans": tracer.spans,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
