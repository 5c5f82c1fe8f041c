"""In-memory spans around calls into cyclemod's public functions.

The traced run replaces public functions of the package's modules with
wrappers that open a span, call the original and close the span, then
puts the originals back. Nothing inside the package changes, so a span
covers exactly one call made through a module attribute: the package's
own per-record inversions (looked up in its private inverter table) are
not spanned, which keeps a request to a few dozen spans.

A span is ``(name, start_ns, end_ns, parent, request_id, n, nbytes)``:
``n`` is the work the call did (records, points, or 1) and ``nbytes``
the bytes it produced, where that is defined.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

NAME, START, END, PARENT, RID, N, NBYTES = range(7)


class Tracer:
    """Collects spans of one run; spans nest by call order on one thread."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.request_id = 0
        self.last_sequence = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, n: int = 1):
        """Span around a block; yields the span id for ``set_bytes``."""
        sid = self._begin()
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            self._end(sid, name, start, n, 0)

    def set_bytes(self, sid: int, nbytes: int) -> None:
        """Record the bytes a closed span produced, measured after it ended."""
        self.spans[sid] = self.spans[sid][:NBYTES] + (nbytes,)

    def wrap(self, name: str, fn, measure=None):
        """``fn`` with a span per call; ``measure(tracer, args, result)`` gives (n, nbytes)."""

        def traced(*args, **kwargs):
            sid = self._begin()
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end_ns = time.perf_counter_ns()
                n, nbytes = measure(self, args, result) if measure and result is not None else (1, 0)
                self._end(sid, name, start, n, nbytes, end_ns)

        traced.__wrapped__ = fn
        return traced

    def _begin(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._open.append(sid)
        return sid

    def _end(self, sid, name, start, n, nbytes, end_ns=None) -> None:
        end_ns = time.perf_counter_ns() if end_ns is None else end_ns
        self._open.pop()
        parent = self._open[-1] if self._open else -1
        self.spans[sid] = (name, start, end_ns, parent, self.request_id, n, nbytes)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the part of it its direct children cover."""
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        base = self.spans[0][START] if self.spans else 0
        self_times = self.self_ns()
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (s, own) in enumerate(zip(self.spans, self_times)):
                fh.write(json.dumps({
                    "id": sid, "name": s[NAME], "start_ns": s[START] - base,
                    "end_ns": s[END] - base, "self_ns": own, "parent": s[PARENT],
                    "request": s[RID], "n": s[N], "bytes": s[NBYTES],
                }) + "\n")


def _keep_sequence(tracer, args, seq):
    tracer.last_sequence = seq
    return len(seq), 0


def _scored(tracer, args, report):
    return report.k_range[1] - report.k_range[0] + 1, 0


def _rendered(tracer, args, svg):
    return len(args[0]), len(svg)


# (module, attribute, span name, measure). The cli module imported some
# functions by name, so they are patched in its namespace as well.
TARGETS = (
    ("seedgen", "generate_sequence", "seedgen.generate_sequence", _keep_sequence),
    ("cli", "generate_sequence", "seedgen.generate_sequence", _keep_sequence),
    ("seedgen", "compute_d", "seedgen.compute_d", None),
    ("cli", "compute_d", "seedgen.compute_d", None),
    ("seedgen", "decompose_identity", "seedgen.decompose_identity", None),
    ("cli", "decompose_identity", "seedgen.decompose_identity", None),
    ("seedgen", "verify_identity", "seedgen.verify_identity", None),
    ("cli", "verify_identity", "seedgen.verify_identity", None),
    ("modring", "inverse_ct", "modring.inverse_ct", None),
    ("modring", "inverse_euclid", "modring.inverse_euclid", None),
    ("modring", "make_modulus", "modring.make_modulus", None),
    ("cli", "make_modulus", "modring.make_modulus", None),
    ("ecs", "score", "ecs.score", _scored),
    ("ecs", "admit", "ecs.admit", None),
    ("svgplot", "render_residue_svg", "svgplot.render_residue_svg", _rendered),
    ("cli", "render_residue_svg", "svgplot.render_residue_svg", _rendered),
    ("hybrid", "mask_xor", "hybrid.mask_xor", None),
    ("cli", "mask_xor", "hybrid.mask_xor", None),
    ("hybrid", "unmask", "hybrid.unmask", None),
    ("cli", "token_from_hex", "hybrid.token_from_hex", None),
)


@contextmanager
def instrument(tracer: Tracer, modules: dict):
    """Patch every target in ``modules`` (short name -> module) for the block."""
    saved = []
    try:
        for mod_name, attr, span_name, measure in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, measure))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer medians from the spans of a traced run.

    Per-record figures are taken per span (``n`` records in one call).
    The cli figures are taken per request: the self time of the request's
    ``cli.main`` spans, and the bytes they wrote, over its records. Byte
    counts come from the first request that has them, whose input the seed
    fixes, so they repeat exactly for a seed however many requests ran.
    """
    self_times = tracer.self_ns()
    durations: dict[str, list[int]] = {}
    per_unit: dict[str, list[float]] = {}
    per_byte: dict[str, list[float]] = {}
    cli_requests: dict[int, list[int]] = {}
    for s, own in zip(tracer.spans, self_times):
        name, n = s[NAME], s[N]
        duration = s[END] - s[START]
        durations.setdefault(name, []).append(duration)
        per_unit.setdefault(name, []).append(duration / n)
        per_byte.setdefault(name, []).append(s[NBYTES] / n)
        if name == "cli.main":
            totals = cli_requests.setdefault(s[RID], [0, 0, n])
            totals[0] += own
            totals[1] += s[NBYTES]

    def median(table, name):
        if name not in table:
            raise RuntimeError(f"traced run recorded no {name} span")
        return float(statistics.median(table[name]))

    return {
        "modring.inverse_ct_ns": median(durations, "modring.inverse_ct"),
        "modring.inverse_euclid_ns": median(durations, "modring.inverse_euclid"),
        "seedgen.generate_ns_per_record": median(per_unit, "seedgen.generate_sequence"),
        "seedgen.compute_d_ns": median(durations, "seedgen.compute_d"),
        "seedgen.decompose_verify_ns": median(durations, "seedgen.decompose_verify"),
        "ecs.score_ns_per_record": median(per_unit, "ecs.score"),
        "svgplot.render_ns_per_point": median(per_unit, "svgplot.render_residue_svg"),
        "svgplot.bytes_per_point": per_byte["svgplot.render_residue_svg"][0],
        "hybrid.mask_ns": median(durations, "hybrid.mask_xor"),
        "cli.self_ns_per_record": float(statistics.median(
            own / n for own, _, n in cli_requests.values())),
        "cli.bytes_out_per_record": next(out / n for _, out, n in cli_requests.values()),
    }
