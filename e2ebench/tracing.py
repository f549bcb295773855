"""Span tracing of the program's layers, done from the benchmark's side.

`Tracer.install` replaces each public layer function listed in `LAYERS` at
every place it is bound: its home module, each arrdmod module that imported
it by name, and the class for the two `AffineSubspace` methods.  The wrapper
records one span per call (name, start, end, parent span, request id) into
flat arrays kept in memory; `uninstall` puts the originals back.  Private
helpers such as `poset._covers` are never wrapped, so their time counts as
self time of the public function that called them.

A name the program no longer has is skipped and reported as absent, so the
benchmark keeps running after a layer is deleted.
"""

from __future__ import annotations

import gzip
import json
import operator
import sys
import time
from array import array
from statistics import median

# span name -> (home module, attribute path)
LAYERS = {
    "kernel.rref_scaled": ("arrdmod._kernel", "rref_scaled"),
    "kernel.pivot_columns": ("arrdmod._kernel", "pivot_columns"),
    "exactla.intersect_rows": ("arrdmod.exactla", "AffineSubspace.intersect_rows"),
    "exactla.annihilates": ("arrdmod.exactla", "AffineSubspace.annihilates"),
    "arrangement.classify": ("arrdmod.arrangement", "classify"),
    "poset.enumerate_flats": ("arrdmod.poset", "enumerate_flats"),
    "poset.hasse_dot": ("arrdmod.poset", "hasse_dot"),
    "factors.decomposition_factors": ("arrdmod.factors", "decomposition_factors"),
    "resolution.plane_resolution": ("arrdmod.resolution", "plane_resolution"),
    "resolution.pullback_exponents": ("arrdmod.resolution", "pullback_exponents"),
    "resolution.pullback_factors": ("arrdmod.resolution", "pullback_factors"),
    "resolution.certificate": ("arrdmod.resolution", "certificate"),
    "resolution.irreducibility_verdict": ("arrdmod.resolution", "irreducibility_verdict"),
    "cli.parse_input": ("arrdmod.cli", "parse_input"),
    "cli.execute": ("arrdmod.cli", "execute"),
}

# per_layer metric -> unit, in BENCHMARK.json order
PER_LAYER = {
    "kernel.rref_scaled.calls": "count",
    "kernel.rref_scaled.self_s": "s",
    "kernel.pivot_columns.calls": "count",
    "kernel.pivot_columns.self_s": "s",
    "kernel.cells": "count",
    "kernel.max_bits": "bits",
    "exactla.intersect_rows.calls": "count",
    "exactla.intersect_rows.self_s": "s",
    "exactla.annihilates.calls": "count",
    "exactla.annihilates.self_s": "s",
    "exactla.annihilates.hit_ratio": "ratio",
    "poset.enumerate_flats.calls": "count",
    "poset.enumerate_flats.self_s": "s",
    "poset.flats": "count",
    "poset.cover_edges": "count",
    "poset.flat_yield": "ratio",
    "poset.hasse_dot.self_s": "s",
    "arrangement.classify.calls": "count",
    "arrangement.classify.self_s": "s",
    "factors.decomposition_factors.self_s": "s",
    "resolution.plane_resolution.calls": "count",
    "resolution.plane_resolution.self_s": "s",
    "resolution.pullback_factors.self_s": "s",
    "resolution.certificate.self_s": "s",
    "resolution.irreducibility_verdict.self_s": "s",
    "resolution.enumerations_per_request": "count/request",
    "cli.execute.self_s": "s",
    "cli.parse_input.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead": "ratio",
}


def _kernel_cells(counters, args, result):
    rows = args[0]
    counters["kernel.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    bits = max((abs(x).bit_length() for row in rows for x in row), default=0)
    counters["kernel.max_bits"] = max(counters["kernel.max_bits"], bits)


def _annihilates(counters, args, result):
    counters["exactla.annihilates.hits"] += result is True


def _flats(counters, args, result):
    counters["poset.flats"] += len(result.flats)
    counters["poset.cover_edges"] += len(result.cover_relations)


def _output(counters, args, result):
    counters["cli.output_bytes"] += len(result[1].encode("utf-8"))


# counters read from arguments or results, after the span has ended
OBSERVERS = {
    "kernel.rref_scaled": _kernel_cells,
    "kernel.pivot_columns": _kernel_cells,
    "exactla.annihilates": _annihilates,
    "poset.enumerate_flats": _flats,
    "cli.execute": _output,
}

COUNTERS = (
    "kernel.cells",
    "kernel.max_bits",
    "exactla.annihilates.hits",
    "poset.flats",
    "poset.cover_edges",
    "cli.output_bytes",
)


def _resolve(home: tuple[str, str]):
    """(owner, attribute, function) for a layer, or None when it is gone."""
    module_name, path = home
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


# per_layer metrics that are not a span's calls or self time -> the span
# name prefixes they are read from; each prefix must match a present span
_DERIVED = {
    "kernel.cells": ("kernel.",),
    "kernel.max_bits": ("kernel.",),
    "exactla.annihilates.hit_ratio": ("exactla.annihilates",),
    "poset.flats": ("poset.enumerate_flats",),
    "poset.cover_edges": ("poset.enumerate_flats",),
    "poset.flat_yield": ("poset.enumerate_flats", "exactla.intersect_rows"),
    "resolution.enumerations_per_request": ("poset.enumerate_flats",),
    "cli.output_bytes": ("cli.execute",),
    "trace.overhead": (),
}


class Tracer:
    """Records the spans of one round while installed; `finish_round`
    aggregates them into that round's per-layer figures."""

    def __init__(self):
        self.names = list(LAYERS)
        self.sites: dict[str, list[str]] = {}
        self.absent: list[str] = []
        self.request = -1
        self.rounds: list[dict[str, float]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._new_buffers()

    def _new_buffers(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("b")
        self.parent = array("i")
        self.req = array("i")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def _wrap(self, nid: int, fn, observer):
        start, end, name, parent, req = self.start, self.end, self.name, self.parent, self.req
        stack, counters, clock, tracer = self._stack, self.counters, time.perf_counter, self

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            req.append(tracer.request)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observer is not None:
                observer(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Start a round: fresh buffers, every layer wrapped where bound."""
        self._new_buffers()
        self.sites, self.absent = {}, []
        for nid, span in enumerate(self.names):
            found = _resolve(LAYERS[span])
            if found is None:
                self.absent.append(span)
                continue
            owner, attr, original = found
            sites = [owner]
            if not isinstance(owner, type):
                sites += [
                    mod
                    for key, mod in sorted(sys.modules.items())
                    if (key == "arrdmod" or key.startswith("arrdmod."))
                    and mod is not owner
                    and getattr(mod, attr, None) is original
                ]
            wrapper = self._wrap(nid, original, OBSERVERS.get(span))
            for site in sites:
                self._saved.append((site, attr, original))
                setattr(site, attr, wrapper)
            self.sites[span] = [getattr(s, "__module__", "") if isinstance(s, type) else s.__name__ for s in sites]

    def uninstall(self) -> None:
        while self._saved:
            site, attr, original = self._saved.pop()
            setattr(site, attr, original)

    def finish_round(self, requests: int) -> dict[str, float]:
        """Aggregate the spans of the round just run (tracer uninstalled)."""
        names = self.names
        idx = {span: i for i, span in enumerate(names)}
        enum_id = idx["poset.enumerate_flats"]
        inter_id = idx["exactla.intersect_rows"]
        res_ids = {i for span, i in idx.items() if span.startswith("resolution.")}
        n = len(self.start)
        dur = array("d", map(operator.sub, self.end, self.start))
        child = array("d", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        under_enum = bytearray(n)
        under_res = bytearray(n)
        intersections_in_enum = enumerations_in_res = 0
        for i in range(n):
            nid, p = self.name[i], self.parent[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            if p >= 0:
                under_enum[i] = under_enum[p] or self.name[p] == enum_id
                under_res[i] = under_res[p] or self.name[p] in res_ids
            if nid == inter_id and under_enum[i]:
                intersections_in_enum += 1
            elif nid == enum_id and under_res[i]:
                enumerations_in_res += 1
        c = self.counters
        figures: dict[str, float] = {}
        for span, i in idx.items():
            figures[f"{span}.calls"] = calls[i]
            figures[f"{span}.self_s"] = self_s[i]
        figures.update(
            {
                "kernel.cells": c["kernel.cells"],
                "kernel.max_bits": c["kernel.max_bits"],
                "exactla.annihilates.hit_ratio": c["exactla.annihilates.hits"]
                / max(calls[idx["exactla.annihilates"]], 1),
                "poset.flats": c["poset.flats"],
                "poset.cover_edges": c["poset.cover_edges"],
                "poset.flat_yield": c["poset.flats"] / max(intersections_in_enum, 1),
                "resolution.enumerations_per_request": enumerations_in_res / requests,
                "cli.output_bytes": c["cli.output_bytes"],
            }
        )
        self.rounds.append(figures)
        return figures

    def is_absent(self, metric: str) -> bool:
        present = [span for span in self.names if span not in self.absent]
        needs = _DERIVED.get(metric, (metric.rsplit(".", 1)[0],))
        return not all(any(span.startswith(p) for span in present) for p in needs)

    def per_layer(self) -> tuple[dict[str, float], bool]:
        """Counts from the first traced round, times as the median over
        traced rounds; the flag says whether every round counted the same."""
        first = self.rounds[0]
        out = {}
        repeat = True
        for key, value in first.items():
            if key.endswith("self_s"):
                out[key] = median(r[key] for r in self.rounds)
            else:
                out[key] = value
                repeat &= all(r[key] == value for r in self.rounds)
        return out, repeat

    def write_spans(self, path: str) -> int:
        """Write the spans of the last round as gzipped JSON lines (a header
        line, then one ``[name, start_s, end_s, parent, request]`` per span,
        times relative to the first span); return the span count."""
        t0 = self.start[0] if self.start else 0.0
        header = {"names": self.names, "fields": ["name", "start_s", "end_s", "parent", "request"]}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for lo in range(0, len(self.start), 65536):
                fh.write(
                    "".join(
                        f"[{self.name[i]},{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},"
                        f"{self.parent[i]},{self.req[i]}]\n"
                        for i in range(lo, min(lo + 65536, len(self.start)))
                    )
                )
        return len(self.start)
