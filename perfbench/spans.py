"""In-memory span tracer and the per-layer wrappers the traced run installs.

A span is one call into a layer's public function: its name, start and
end (``time.perf_counter`` seconds), the span that was open on the same
thread when it started (its parent), the benchmark step it belongs to,
the thread it ran on, and a layer-specific work count (bytes decoded,
planes applied, groups decompressed, ...). Spans are kept in a list and
written out once, when the run ends.

Wrappers are installed where callers look the names up — the names
imported into ``repro.core.reconstruct``/``repro.core.refactor``/
``repro.qoi.retrieval``, the ``repro.lossless.hybrid`` codec tables,
the ``MultilevelTransform`` methods — and removed again after each
traced pass, so untraced passes run the unmodified program. Stores are
traced through :class:`TracingStore`, a wrapper the benchmark puts
around the store it hands to the library.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Spans that wait for segment reads. On the caller thread their self
#: time is exposed fetch.
FETCH_SPANS = frozenset({"core.store.get", "core.faults.injected_wait"})

#: Span names that only orchestrate other layers (sessions, steps,
#: pipeline drivers). Their self time on the caller thread is either
#: waiting for off-thread fetch or untraced glue code.
FRAMES = frozenset({
    "step",
    "core.refactor.refactor",
    "core.store.store_field",
    "core.service.retrieve_qoi",
    "core.service.session_step",
    "core.tiling.reconstruct",
    "core.reconstruct.reconstruct",
    "core.reconstruct.decode_step",
    "core.reconstruct.fetch",
    "pipeline.run",
})


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    step: int | None
    thread: int
    work: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread while :attr:`enabled` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.step: int | None = None
        #: The client thread: steps run here, fetch stages elsewhere.
        self.caller = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._steps = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, int | None, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, self.step, time.perf_counter()

    def _close(self, name: str, opened, work: int = 0) -> None:
        end = time.perf_counter()
        self._stack().pop()
        sid, parent, step, start = opened
        self.spans.append(Span(sid, name, start, end, parent, step,
                               threading.get_ident(), work))

    @contextmanager
    def span(self, name: str, new_step: bool = False):
        """Record the ``with`` block as span *name*.

        ``new_step=True`` opens a benchmark step: spans started on any
        thread until the next step opens carry its step id.
        """
        if not self.enabled:
            yield
            return
        if new_step:
            self.step = next(self._steps)
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, opened)

    @contextmanager
    def paused(self):
        """No spans from the ``with`` block (checks between passes)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def wrap(self, name: str, fn, work=None):
        """*fn* recording a span *name* per call while enabled.

        ``work(result, args)`` gives the call's work count (bytes, planes).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            opened = tracer._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, opened)
                raise
            tracer._close(name, opened,
                          int(work(result, args)) if work is not None else 0)
            return result

        return traced


class TracingStore:
    """Segment-store wrapper recording ``core.store.get``/``put`` spans.

    Everything else (``batch``, ``size_of``, ``keys``, the latency
    attributes the service inspects) passes through to the inner store.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self.get = tracer.wrap(
            "core.store.get", inner.get, lambda blob, args: len(blob)
        )
        self.put = tracer.wrap(
            "core.store.put", inner.put, lambda _, args: len(args[1])
        )

    def __contains__(self, key: str) -> bool:
        return key in self._inner

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


def _nbytes(result, args) -> int:
    return result.nbytes


class Instrumentation:
    """Installs and removes the per-layer wrappers of one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object, bool]] = []

    def _targets(self):
        """(owner, attribute, span name, work) for every wrapped call."""
        import repro.core.reconstruct as reconstruct
        import repro.core.refactor as refactor
        import repro.lossless.hybrid as hybrid
        import repro.qoi.retrieval as qoi_retrieval
        from repro.core.service import RetrievalService, TiledServiceSession
        from repro.core.tiling import TiledReconstructor
        from repro.decompose import MultilevelTransform
        from repro.pipeline.retrieval import RetrievalPipeline

        return [
            # decompose: transform kernels and the error-weight solve.
            (refactor, "level_error_weights", "decompose.level_weights", None),
            (MultilevelTransform, "decompose", "decompose.decompose", None),
            (MultilevelTransform, "recompose", "decompose.recompose", None),
            (MultilevelTransform, "extract_levels", "decompose.extract", None),
            (MultilevelTransform, "assemble_levels", "decompose.assemble",
             None),
            (MultilevelTransform, "__init__", "decompose.geometry", None),
            # bitplane: encode on write; inject + finalize on read.
            (refactor, "encode_bitplanes", "bitplane.encode", None),
            (reconstruct, "apply_planes", "bitplane.apply_planes",
             lambda _, args: len(args[1])),
            (reconstruct, "finalize_decode", "bitplane.finalize", None),
            # lossless: Algorithm 2 on write; per-codec decode on read.
            (refactor, "compress_planes", "lossless.compress", None),
            (hybrid, "huffman_encode", "lossless.huffman_encode", None),
            (hybrid._ENCODERS, "huffman", "lossless.huffman_encode", None),
            (hybrid, "decompress_groups", "lossless.decompress", None),
            (reconstruct, "decompress_groups", "lossless.decompress", None),
            (hybrid._DECODERS, "huffman", "lossless.huffman_decode", _nbytes),
            (hybrid._DECODERS, "rle", "lossless.other_decode", _nbytes),
            (hybrid._DECODERS, "direct", "lossless.other_decode", _nbytes),
            # planner, reconstruct, tiling, service, pipeline.
            (reconstruct, "plan_greedy", "core.planner.plan", None),
            (reconstruct, "plan_full", "core.planner.plan", None),
            (reconstruct.Reconstructor, "reconstruct",
             "core.reconstruct.reconstruct", None),
            (reconstruct.Reconstructor, "decode_step",
             "core.reconstruct.decode_step", None),
            (reconstruct.Reconstructor, "fetch_step",
             "core.reconstruct.fetch", None),
            (refactor.Refactorer, "refactor", "core.refactor.refactor", None),
            (TiledReconstructor, "reconstruct", "core.tiling.reconstruct",
             None),
            (TiledServiceSession, "reconstruct", "core.service.session_step",
             None),
            (RetrievalService, "retrieve_qoi", "core.service.retrieve_qoi",
             None),
            (RetrievalPipeline, "run", "pipeline.run", None),
            # qoi: the error-estimation kernel and the bound update.
            (qoi_retrieval, "estimate_qoi_error", "qoi.estimate_error", None),
            (qoi_retrieval, "mape_update", "qoi.update_bounds", None),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        for owner, attr, name, work in self._targets():
            is_table = isinstance(owner, dict)
            original = owner[attr] if is_table else owner.__dict__[attr]
            wrapped = self.tracer.wrap(name, original, work)
            if is_table:
                owner[attr] = wrapped
            else:
                setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, original, is_table))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, is_table = self._saved.pop()
            if is_table:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    @contextmanager
    def active(self):
        """Wrappers installed and recording for the ``with`` block."""
        self.install()
        self.tracer.enabled = True
        try:
            yield self.tracer
        finally:
            self.tracer.enabled = False
            self.tracer.step = None
            self.uninstall()


def inject_delay(table: dict, key: str, seconds: float) -> None:
    """Make ``table[key]`` sleep *seconds* before every call.

    The seeded-slowdown self-test slows one codec from the benchmark side
    this way and checks that the comparison flags it. The delay lasts for
    the life of the process.
    """
    original = table[key]

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        time.sleep(seconds)
        return original(*args, **kwargs)

    table[key] = slowed


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _overlap(start: float, end: float, merged, starts) -> float:
    """Length of [start, end) covered by the sorted disjoint *merged*."""
    total = 0.0
    i = max(bisect.bisect_right(starts, start) - 1, 0)
    while i < len(merged) and merged[i][0] < end:
        lo, hi = max(start, merged[i][0]), min(end, merged[i][1])
        if hi > lo:
            total += hi - lo
        i += 1
    return total


@dataclass
class StepAccount:
    """Where the caller thread's step wall went, summed over steps.

    ``compute_s`` is the self time of work layers on the caller thread;
    ``exposed_fetch_s`` is its self time in fetch layers plus the time
    it sat in orchestration code while off-thread fetch work was
    running; ``unaccounted_s`` is the rest — orchestration code and
    anything no span covers. The three add up to ``wall_s``.
    """

    wall_s: float = 0.0
    compute_s: float = 0.0
    exposed_fetch_s: float = 0.0
    unaccounted_s: float = 0.0
    steps: int = 0


def account_steps(spans: list[Span], caller: int) -> StepAccount:
    """Split every ``step`` span's wall on the *caller* thread."""
    off_thread = _merge([(s.start, s.end) for s in spans
                         if s.thread != caller])
    off_starts = [s for s, _ in off_thread]
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.thread == caller and s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    account = StepAccount()
    pending = [s for s in spans if s.thread == caller and s.name == "step"]
    account.steps = len(pending)
    account.wall_s = sum(s.duration for s in pending)
    while pending:
        span = pending.pop()
        kids = sorted(children.get(span.id, ()), key=lambda c: c.start)
        pending.extend(kids)
        own = span.duration - sum(c.duration for c in kids)
        if span.name in FETCH_SPANS:
            account.exposed_fetch_s += own
        elif span.name not in FRAMES:
            account.compute_s += own
        else:
            gaps, cursor = [], span.start
            for c in kids:
                gaps.append((cursor, c.start))
                cursor = c.end
            gaps.append((cursor, span.end))
            waited = sum(_overlap(a, b, off_thread, off_starts)
                         for a, b in gaps)
            account.exposed_fetch_s += waited
            account.unaccounted_s += own - waited
    return account
