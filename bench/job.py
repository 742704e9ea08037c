"""One benchmark operation, run in a fresh interpreter: a CLI invocation or one
library call into cutpoly.

    python3 bench/job.py '{"cli": ["gb", "6", "verify", "--json"]}'
    python3 bench/job.py '{"call": ["grobner", "squarefree_standard_counts", [7]], "trace": true}'

The last line of standard output is a JSON object: the exit code, the result
(the CLI's standard output, or the call's return value) and, when "trace" is
set, the spans recorded around cutpoly's public functions.  Tracing replaces
module attributes from here; nothing under src/cutpoly is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
import tracemalloc

MODULES = ("cli", "graph", "lattice", "ehrhart", "polynomial", "grobner")

# span name -> (module, public function)
LAYERS = {
    "cli.main": ("cli", "main"),
    "graph.configuration": ("graph", "configuration"),
    "lattice.dimension": ("lattice", "polytope_dimension"),
    "lattice.basis": ("lattice", "lattice_basis"),
    "ehrhart.hstar": ("ehrhart", "hstar_polynomial"),
    "ehrhart.semigroup": ("ehrhart", "semigroup_counts"),
    "ehrhart.lp": ("ehrhart", "lattice_point_counts"),
    "ehrhart.lp.dilate": ("ehrhart", "count_lattice_points"),
    "ehrhart.transform": ("ehrhart", "hstar_from_counts"),
    "grobner.generate_gb": ("grobner", "generate_gb"),
    "grobner.buchberger": ("grobner", "buchberger_check"),
    "grobner.squarefree_counts": ("grobner", "squarefree_standard_counts"),
    "grobner.enumerate": ("grobner", "enumerate_squarefree_standard"),
    "grobner.standard_by_degree": ("grobner", "count_standard_by_degree"),
    "grobner.f_vector": ("grobner", "f_vector"),
    "polynomial.closed_form": ("polynomial", "hstar_closed_form_k2m"),
    "polynomial.eulerian": ("polynomial", "eulerian"),
    "polynomial.f_to_h": ("polynomial", "f_to_h"),
}


class Tracer:
    """Spans (name, id, parent id, start, end) kept in memory for one job.

    Time spent in memory probes is added to `paused` and subtracted from the
    clock, so no span includes it.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.paused = 0.0
        self.muted = False

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.muted:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "name": name,
                    "parent": self.stack[-1]["id"] if self.stack else None}
            self.spans.append(span)
            self.stack.append(span)
            span["start"] = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.now()
                self.stack.pop()
            if note is not None:
                span.update(note(self, fn, args, kwargs, result))
            return result
        return traced

    def wrap_hot(self, name, fn):
        """For functions called per candidate point: no span per call, only
        [calls, seconds] accumulated on the enclosing span, which the traced
        callers (count_lattice_points) always provide."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.muted:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally = self.stack[-1].setdefault("hot", {}).setdefault(name, [0, 0.0])
                tally[0] += 1
                tally[1] += time.perf_counter() - start
        return traced


def _semigroup_note(tracer, fn, args, kwargs, cs):
    # sums formed: each layer m < M is added to every column once.
    cfg = args[0] if args else kwargs["cfg"]
    sums = sum(cs.counts[:-1]) * len(cfg.columns)
    # tracemalloc slows allocation about fourfold, so the peak comes from a
    # second, untimed call rather than from the timed one.
    started = time.perf_counter()
    tracer.muted = True
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        tracer.muted = False
        probe = time.perf_counter() - started
        tracer.paused += probe
    return {"sums": sums, "peak_traced_bytes": peak, "probe_s": probe}


def _lp_note(tracer, fn, args, kwargs, cs):
    cfg = args[0] if args else kwargs["cfg"]
    r = len(cfg.columns[0]) - 1
    return {"candidates": sum((m + 1) ** r for m in range(len(cs.counts)))}


def _dilate_note(tracer, fn, args, kwargs, total):
    return {"m": args[2] if len(args) > 2 else kwargs["m"]}


def _buchberger_note(tracer, fn, args, kwargs, result):
    return {"pairs_reduced": result[1]["pairs_reduced"]}


def _squarefree_note(tracer, fn, args, kwargs, counts):
    return {"nodes": sum(counts)}


NOTES = {
    "ehrhart.semigroup": _semigroup_note,
    "ehrhart.lp": _lp_note,
    "ehrhart.lp.dilate": _dilate_note,
    "grobner.buchberger": _buchberger_note,
    "grobner.squarefree_counts": _squarefree_note,
}


def install(tracer, modules) -> None:
    """Replace every module-level reference to each layer function, including
    the names other cutpoly modules imported with `from .x import f`."""
    for name, (module, attr) in LAYERS.items():
        original = getattr(modules[module], attr)
        traced = tracer.wrap(name, original, NOTES.get(name))
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    basis_class = modules["lattice"].LatticeBasis
    basis_class.contains = tracer.wrap_hot("lattice.contains", basis_class.contains)


def _encode(value):
    """JSON form of a call's result; a list of monomials becomes a summary, so
    that serializing it adds little to the job's time and memory."""
    if isinstance(value, list) and value and hasattr(value[0], "ids"):
        return {"count": len(value),
                "distinct": len({m.ids for m in value}),
                "degrees": sorted({len(m.ids) for m in value}),
                "squarefree": all(len(set(m.ids)) == len(m.ids) for m in value)}
    return value


def main() -> int:
    spec = json.loads(sys.argv[1])
    modules = {name: importlib.import_module(f"cutpoly.{name}") for name in MODULES}
    modules["cutpoly"] = sys.modules["cutpoly"]
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        install(tracer, modules)
    if "cli" in spec:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = modules["cli"].main(spec["cli"])
        result = captured.getvalue()
    else:
        module, func, args = spec["call"]
        result = _encode(getattr(modules[module], func)(*args))
        code = 0
    out = {"exit": code, "result": result}
    if tracer is not None:
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
