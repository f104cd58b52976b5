"""Layer tracing from outside the package.

The tracer rebinds public functions of ``richtoric`` in every module that
holds them (``from .perms import bruhat_leq`` copies the function into the
importing module, so each copy is replaced).  Each wrapper records a span:
an id, the id of the span that caused it, the operation it belongs to,
start, end and self time.  Self time is the span's duration minus the time
its child spans cover.  Hot leaves are only aggregated, not stored span by
span.  lru caches stay intact; their statistics come from ``cache_info()``
on the original functions.

Nothing here runs unless a traced run asks for it.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import sys
import time
from collections import Counter

#: Stored spans per run at most; later spans are only aggregated.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = 0  # id of the current operation
        self.kind = "setup"  # what kind of operation it is, for the per-kind breakdown
        self.stack: list[list] = []  # frames: [span id, seconds covered by children]
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end, self)
        self.spans_dropped = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.kind_self_s: Counter = Counter()  # (kind, name) -> self seconds
        self._next_id = 1
        self._patches: list[tuple] = []
        self.cached: dict = {}  # lru-cached originals whose statistics are reported
        self.caches_at_start: dict = {}

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, args, kwargs, keep=True):
        """Run ``fn`` inside a span called ``name``; return its result."""
        span_id = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else 0
        frame = [span_id, 0.0]
        self.stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            duration = end - start
            own = duration - frame[1]
            if self.stack:
                self.stack[-1][1] += duration
            self.calls[name] += 1
            self.self_s[name] += own
            self.kind_self_s[self.kind, name] += own
            if keep:
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, self.op, name, start, end, own))
                else:
                    self.spans_dropped += 1

    def wrap(self, name, fn, keep=True, observe=None):
        """A stand-in for ``fn`` that records a span and then ``observe``s.

        ``observe(tracer, args, result)`` updates counters after a call
        that returned.
        """
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs, keep)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def patch_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every loaded richtoric module."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "richtoric" or mod_name.startswith("richtoric.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def patch_attribute(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        end = cache_stats(self.cached)
        caches = {
            k: [end[k][0] - self.caches_at_start[k][0], end[k][1] - self.caches_at_start[k][1]]
            for k in end
        }
        kinds: dict = {}
        for (kind, name), seconds in self.kind_self_s.items():
            kinds.setdefault(kind, {})[name] = seconds
        return {
            "caches": caches,
            "kinds": kinds,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }


def write_spans(path, spans) -> None:
    """One JSON array per line: process, id, parent id, op, name, start, end, self."""
    with gzip.open(path, "wt") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def merge(summaries) -> dict:
    """Sum the counters of several tracer summaries (one per process)."""
    out = {"calls": Counter(), "self_s": Counter(), "counts": Counter(), "spans": 0, "spans_dropped": 0}
    caches: dict = {}
    kinds: dict = {}
    for s in summaries:
        for kind, names in s["kinds"].items():
            total = kinds.setdefault(kind, Counter())
            total.update(names)
        for key in ("calls", "self_s", "counts"):
            out[key].update(s[key])
        for key, (hits, misses) in s["caches"].items():
            total = caches.setdefault(key, [0, 0])
            total[0] += hits
            total[1] += misses
        out["spans"] += s["spans"]
        out["spans_dropped"] += s["spans_dropped"]
    out["caches"] = caches
    out["kinds"] = kinds
    return out


# ---------------------------------------------------------------------------
# what is traced, per layer

#: Called so often that spans are aggregated rather than stored.
HOT = frozenset(
    {
        "bruhat_leq",
        "subset_leq_perm",
        "perm_leq_subset",
        "in_Tn",
        "is_compatible",
        "min_extension",
        "max_truncation",
        "is_standard",
    }
)


def _count(key, amount):
    def observe(tracer, args, result):
        tracer.counts[key] += amount(args, result)

    return observe


def _observe_restrict(tracer, args, result):
    tracer.counts["restrict.generators_scanned"] += len(args[0])
    tracer.counts["restrict.witnesses"] += len(result.witnesses)
    tracer.counts["restrict.vanished"] += result.vanished_count


def _observe_polytope(tracer, args, result):
    tracer.counts["polytope.columns"] += sum(len(g) for g in result.point_labels)
    tracer.counts["polytope.distinct_points"] += len(result.points)


def _box_points(poly) -> int:
    return math.prod(
        max(p[i] for p in poly.points) - min(p[i] for p in poly.points) + 1
        for i in range(len(poly.points[0]))
    )


def _observe_lattice(tracer, args, result):
    tracer.counts["lattice.box_points"] += _box_points(args[0])
    tracer.counts["lattice.points"] += len(result)


def install() -> "Tracer":
    """Trace the public functions of the already imported package."""
    # by module path: the package re-exports a function named ``polytope``
    compat, initial, perms, polytope, tableaux = (
        importlib.import_module(f"richtoric.{name}")
        for name in ("compat", "initial", "perms", "polytope", "tableaux")
    )

    tracer = Tracer()
    tracer.cached = {
        "kernel": initial.degree2_kernel_generators,
        "min_extension": tableaux.min_extension,
        "max_truncation": tableaux.max_truncation,
    }
    tracer.caches_at_start = cache_stats(tracer.cached)
    kernel = tracer.cached["kernel"]
    misses_seen = [kernel.cache_info().misses]

    def observe_kernel(tracer, args, result):
        misses = kernel.cache_info().misses
        if misses > misses_seen[0]:
            misses_seen[0] = misses
            tracer.counts["kernel.generators"] += len(result)

    targets = [
        (perms, "bruhat_leq", None),
        (perms, "subset_leq_perm", None),
        (perms, "perm_leq_subset", None),
        (perms, "enumerate_T", _count("enumerate_T.size", lambda a, r: len(r))),
        (initial, "degree2_kernel_generators", observe_kernel),
        (initial, "restrict", _observe_restrict),
        (initial, "is_monomial_free", None),
        (initial, "kernel_hilbert_dim", _count("hilbert.images", lambda a, r: r)),
        (compat, "in_Tn", None),
        (compat, "is_compatible", None),
        (tableaux, "enumerate_ssyt", _count("ssyt.tableaux", lambda a, r: len(r))),
        (tableaux, "min_extension", None),
        (tableaux, "max_truncation", None),
        (tableaux, "is_standard", _count("is_standard.true", lambda a, r: int(r))),
        (polytope, "restricted_map_matrix", None),
        (polytope, "segre_matrix", None),
        (polytope, "polytope", _observe_polytope),
        (polytope, "affine_rank", None),
        (polytope, "lattice_points", _observe_lattice),
    ]
    for module, name, observe in targets:
        original = getattr(module, name)
        tracer.patch_everywhere(original, tracer.wrap(name, original, name not in HOT, observe))
    for method in ("text", "csv"):
        original = getattr(polytope.IntMatrix, method)
        tracer.patch_attribute(
            polytope.IntMatrix,
            method,
            tracer.wrap("render", original, True, _count("render.bytes", lambda a, r: len(r))),
        )
    return tracer


def cache_stats(cached: dict) -> dict:
    """[hits, misses] of each lru-cached layer, read from the original functions."""
    return {key: list(fn.cache_info()[:2]) for key, fn in cached.items()}
