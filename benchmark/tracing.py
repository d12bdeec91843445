"""Spans around the program's layer boundaries, recorded from outside the program.

While installed, a :class:`Tracer` replaces each traced function at every
module attribute through which callers look it up (the defining module, the
``incompat`` package and any module that imported the name), plus
``numpy.linalg.svd``, which every rank decision calls. Each call records a
span (name, start, end, parent) in memory, with a block count and gathered
bytes for SVD calls and the unpruned search space for deficiency searches.
:func:`layer_metrics` reduces one pass's spans to the per-layer metrics.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from contextlib import contextmanager

# (span name, defining module, attribute). A target missing from the program
# is skipped, so the benchmark keeps working when a function is removed.
TARGETS = (
    ("cli.main", "incompat.cli", "main"),
    ("matrices.load_matrix", "incompat.matrices", "load_matrix"),
    ("matrices.from_array", "incompat.matrices", "from_array"),
    ("report.analyze_transition", "incompat.report", "analyze_transition"),
    ("report.extremal_checks", "incompat.report", "extremal_checks"),
    ("report.report_json_dict", "incompat.report", "report_json_dict"),
    ("deficiency.deficiency_profile", "incompat.deficiency", "deficiency_profile"),
    ("deficiency.tau_fast", "incompat.deficiency", "tau_fast"),
    ("deficiency.r_row", "incompat.deficiency", "r_row"),
    ("deficiency.r_col", "incompat.deficiency", "r_col"),
    ("support.min_support_uncertainty", "incompat.support", "min_support_uncertainty"),
    ("rank.svd", "numpy.linalg", "svd"),
)

# Which layer an SVD call is charged to: the nearest traced ancestor listed
# here, except that everything under the extremal checks is charged to them.
CATEGORY = {
    "report.extremal_checks": "checks",
    "support.min_support_uncertainty": "support",
    "deficiency.deficiency_profile": "deficiency",
    "deficiency.tau_fast": "deficiency",
    "deficiency.r_row": "deficiency",
    "deficiency.r_col": "deficiency",
}
DEFICIENCY_SPANS = ("deficiency.deficiency_profile", "deficiency.tau_fast",
                    "deficiency.r_row", "deficiency.r_col")
# Bytes per gathered complex128 entry.
ENTRY_BYTES = 16


class Span:
    __slots__ = ("name", "parent", "start", "end", "blocks", "bytes", "space")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.blocks = self.bytes = self.space = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def block_space(d: int, t_max: int) -> int:
    """Candidate blocks of an unpruned level search over t = 0..t_max, both
    sides: the sum of C(d, m) * C(d, m + t) over every t and m."""
    return 2 * sum(
        math.comb(d, m) * math.comb(d, m + t) for t in range(t_max + 1) for m in range(1, d - t + 1)
    )


def _svd_counts(span: Span, args) -> None:
    shape = args[0].shape
    span.blocks = math.prod(shape[:-2])
    span.bytes = span.blocks * shape[-2] * shape[-1] * ENTRY_BYTES


def _profile_space(span: Span, args) -> None:
    span.space = block_space(args[0].dim, args[0].dim - 1)


def _tau_space(span: Span, args) -> None:
    # tau_fast starts at t = d - 2: level d - 1 is zero for every unitary.
    span.space = block_space(args[0].dim, args[0].dim - 2)


COUNTERS = {
    "rank.svd": _svd_counts,
    "deficiency.deficiency_profile": _profile_space,
    "deficiency.tau_fast": _tau_space,
}


class Tracer:
    """Records spans of the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            if count is not None:
                count(span, args)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every lookup site of each target; restore them on exit."""
        patched = []
        try:
            for name, module_name, attr in TARGETS:
                module = sys.modules.get(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for site in _lookup_sites(module_name):
                    for key, value in list(vars(site).items()):
                        if value is original:
                            setattr(site, key, wrapper)
                            patched.append((site, key, original))
            yield self
        finally:
            for site, key, original in reversed(patched):
                setattr(site, key, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        # Copy and clear rather than rebind: the installed wrappers hold this list.
        spans = self.spans[:]
        self.spans.clear()
        return spans


def _lookup_sites(module_name: str):
    names = {module_name} | {n for n in sys.modules if n == "incompat" or n.startswith("incompat.")}
    return [sys.modules[n] for n in sorted(names) if sys.modules.get(n) is not None]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one pass.

    Self time is a span's duration minus the durations of its children; spans
    nest strictly because every op runs on one thread.
    """
    n = len(spans)
    category: list = [None] * n
    root = [0] * n
    child_time = [0.0] * n
    for i, span in enumerate(spans):
        p = span.parent
        if p < 0:
            category[i], root[i] = CATEGORY.get(span.name), i
            continue
        inherited = category[p]
        category[i] = inherited if inherited == "checks" else CATEGORY.get(span.name, inherited)
        root[i] = root[p]
        child_time[p] += span.duration

    def total(names) -> float:
        return sum(s.duration for s in spans if s.name in names)

    def self_time(names) -> float:
        return sum(s.duration - child_time[i] for i, s in enumerate(spans) if s.name in names)

    svd = [i for i, s in enumerate(spans) if s.name == "rank.svd"]
    svd_blocks = sum(spans[i].blocks for i in svd)

    def blocks_in(layer: str) -> int:
        return sum(spans[i].blocks for i in svd if category[i] == layer)

    tau_roots = [i for i, s in enumerate(spans) if s.parent < 0 and s.name == "deficiency.tau_fast"]
    tau_time = sum(spans[i].duration for i in tau_roots)
    svd_in_tau = sum(spans[i].duration for i in svd if spans[root[i]].name == "deficiency.tau_fast")
    space = sum(s.space for i, s in enumerate(spans) if category[i] == "deficiency")
    deficiency_blocks = blocks_in("deficiency")
    return {
        "rank.svd_s": sum(spans[i].duration for i in svd),
        "rank.svd_calls": len(svd),
        "rank.svd_blocks": svd_blocks,
        "rank.blocks_per_call": svd_blocks / len(svd) if svd else 0.0,
        "rank.gathered_mb": max((spans[i].bytes for i in svd), default=0) / 1e6,
        "rank.svd_share_of_tau": svd_in_tau / tau_time if tau_time else 0.0,
        "deficiency.self_s": self_time(DEFICIENCY_SPANS),
        "deficiency.blocks": deficiency_blocks,
        "deficiency.block_space": space,
        "deficiency.eval_ratio": deficiency_blocks / space if space else 0.0,
        "support.search_s": total(("support.min_support_uncertainty",)),
        "support.blocks": blocks_in("support"),
        "report.checks_s": total(("report.extremal_checks",)),
        "report.checks_blocks": blocks_in("checks"),
        "matrices.ingest_s": total(("matrices.load_matrix", "matrices.from_array")),
        "report.render_s": total(("report.report_json_dict",)),
        "cli.self_s": self_time(("cli.main",)),
    }
