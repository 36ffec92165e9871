"""Store-backed retrieval service: many sessions, one segment cache.

The paper's progressive-retrieval economics assume each tolerance query
fetches only the bitplane increments it needs. A server answering many
tolerance queries over many variables additionally wants those fetches
*shared*: two analysts asking for the same variable at the same
tolerance should pay the backing store once. This module provides that
layer:

* :class:`SegmentCache` — a byte-budgeted, thread-safe LRU over raw
  segment blobs, fronting any :class:`~repro.core.store.SegmentReader`;
* :class:`RetrievalService` — multiplexes concurrent
  :class:`~repro.core.reconstruct.Reconstructor` sessions and
  :func:`~repro.qoi.retrieval.retrieve_qoi` calls over one shared cache,
  with optional background prefetch of each session's next planned plane
  group (reusing the :class:`~repro.core._pool.WorkerPoolMixin` pool);
* :class:`ServiceSession` — one client's stateful progressive session.

Everything decodes from zero-copy views of the cached blobs. The cache
budget bounds the bytes the *shared* cache itself keeps resident; each
live session additionally memoizes the segments it has touched (so its
own refinement steps never refetch), releasing them when the session's
field is dropped.
"""

from __future__ import annotations

import threading
import weakref
import zlib
from collections import OrderedDict
from concurrent.futures import CancelledError, Future

from collections.abc import Sequence

from repro.core._pool import WorkerPoolMixin
from repro.core.backends import current_process_backend
from repro.core.errors import SegmentCorruptionError
from repro.core.reconstruct import ReconstructionResult, Reconstructor
from repro.core.store import open_field, open_tiled_field
from repro.core.stream import LazyRefactoredField
from repro.core.tiling import (
    LazyTiledField,
    TiledReconstructionResult,
    TiledReconstructor,
)
from repro.core.planner import RetrievalPlan


class SegmentCache:
    """Byte-budgeted LRU cache of raw segment blobs.

    Parameters
    ----------
    reader:
        Backing :class:`~repro.core.store.SegmentReader`; misses read
        through it.
    max_bytes:
        Resident-byte budget. Inserting past it evicts least-recently-used
        entries until the budget holds again; a single blob larger than
        the whole budget is served but never cached (counted in
        ``oversize``).

    Cache state is guarded by an internal lock, but backing-store reads
    happen *outside* it: concurrent misses on different keys fetch in
    parallel, cache hits never wait on an in-flight disk read, and
    concurrent misses on the *same* key are deduplicated through a
    shared in-flight future (the store is read once; the followers count
    as hits because they cost no extra store read).
    """

    def __init__(self, reader, max_bytes: int = 256 << 20) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be > 0")
        self._reader = reader
        self.max_bytes = int(max_bytes)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._inflight: dict[str, Future] = {}
        self._checksums: dict[str, int] = {}
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0
        self.evictions = 0
        self.oversize = 0
        self.corruption_refetches = 0
        self.corruption_failures = 0

    def register_checksums(self, checksums: dict[str, int]) -> None:
        """Expect these CRC32s on cold fetches of the given keys.

        :func:`~repro.core.store.open_field` registers each field's
        per-segment checksums here, so every *cold* read through the
        cache is verified once before it is cached or handed to any
        waiter; cache hits reuse the already-verified bytes without
        re-hashing.
        """
        with self._lock:
            self._checksums.update(checksums)

    def resolve(self, key: str) -> tuple[bytes, bool]:
        """Return ``(blob, cold)``: the segment plus whether it was a miss.

        A hit refreshes the entry's recency; a miss reads through the
        backing store (without holding the cache lock) and inserts,
        evicting LRU entries past the budget.
        """
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self.hit_bytes += len(blob)
                return blob, False
            pending = self._inflight.get(key)
            if pending is None:
                pending = self._inflight[key] = Future()
                leader = True
            else:
                leader = False
        if not leader:
            blob = pending.result()  # piggyback on the in-flight read
            with self._lock:
                self.hits += 1
                self.hit_bytes += len(blob)
            return blob, False
        try:
            blob = self._fetch_checked(key)
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(key, None)
            pending.set_exception(exc)
            raise
        with self._lock:
            self.misses += 1
            self.miss_bytes += len(blob)
            self._insert(key, blob)
            self._inflight.pop(key, None)
        pending.set_result(blob)
        return blob, True

    def _fetch_checked(self, key: str) -> bytes:
        """Cold read of *key*, CRC-verified when a checksum is known.

        A mismatch is treated as a transient wire/storage flip first:
        the segment is re-fetched once (``corruption_refetches``); a
        second mismatch means the stored bytes themselves are bad and
        raises :class:`~repro.core.errors.SegmentCorruptionError`
        (``corruption_failures``), which propagates to every waiter
        piggybacking on this in-flight read.
        """
        with self._lock:
            expected = self._checksums.get(key)
        blob = self._reader.get(key)
        if expected is None:
            return blob
        if zlib.crc32(blob) & 0xFFFFFFFF == expected:
            return blob
        with self._lock:
            self.corruption_refetches += 1
        blob = self._reader.get(key)
        if zlib.crc32(blob) & 0xFFFFFFFF == expected:
            return blob
        with self._lock:
            self.corruption_failures += 1
        raise SegmentCorruptionError(
            f"segment {key!r} failed checksum verification after re-fetch "
            f"(expected crc32 {expected:#010x})"
        )

    def get(self, key: str) -> bytes:
        """The blob alone — :meth:`resolve` without the cold flag."""
        return self.resolve(key)[0]

    def warm(self, key: str) -> None:
        """Ensure *key* is resident (the prefetch entry point)."""
        self.resolve(key)

    def _insert(self, key: str, blob: bytes) -> None:
        if len(blob) > self.max_bytes:
            self.oversize += 1
            return
        self._entries[key] = blob
        self.current_bytes += len(blob)
        while self.current_bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.current_bytes -= len(evicted)
            self.evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of :meth:`resolve` calls served without a store read."""
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def stats(self) -> dict:
        """Counter snapshot, JSON-ready."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "current_bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_bytes": self.hit_bytes,
                "miss_bytes": self.miss_bytes,
                "hit_rate": self.hit_rate,
                "evictions": self.evictions,
                "oversize": self.oversize,
                "corruption_refetches": self.corruption_refetches,
                "corruption_failures": self.corruption_failures,
            }


class ServiceSession:
    """One client's progressive retrieval session over the service.

    Wraps a stateful :class:`~repro.core.reconstruct.Reconstructor` on a
    lazily-opened field whose fetches route through the service's shared
    :class:`SegmentCache`. After each step the service may prefetch the
    next planned plane group per level in the background, so a client
    walking a tolerance staircase finds its next increment already warm.

    ``pipelined=True`` (the service default over latency-bearing
    stores) runs each step's segment fetches one level ahead of decode
    through a bounded :class:`~repro.pipeline.retrieval
    .RetrievalPipeline` window — generalizing the service's
    fire-and-forget next-group prefetch into a scheduled window within
    the step. Results, counters, and fault semantics are bit-identical
    to the sequential path. Inert under the ``processes`` decode
    backend (level decodes must route through the worker pool whole).
    """

    def __init__(
        self,
        service: "RetrievalService",
        field: LazyRefactoredField,
        num_workers: int = 0,
        backend: str | None = None,
        pipelined: bool = False,
        pipeline_window: int = 4,
        fetch_workers: int = 2,
    ) -> None:
        if pipeline_window < 1:
            raise ValueError("pipeline_window must be >= 1")
        if fetch_workers < 1:
            raise ValueError("fetch_workers must be >= 1")
        self.service = service
        self.field = field
        self.reconstructor = Reconstructor(
            field, num_workers=num_workers, backend=backend
        )
        self.pipelined = bool(pipelined)
        self._pipeline_window = int(pipeline_window)
        self._fetch_workers = int(fetch_workers)
        self._pipeline = None

    def _reconstruct_pipelined(
        self, tolerance, relative, plan, on_fault
    ) -> ReconstructionResult:
        """One step with fetch running a level ahead of decode.

        Queued service prefetches for exactly the segments this step is
        about to fetch are cancelled first — the pipeline window
        supersedes them (already-landed prefetches still pay off as
        cache hits).
        """
        from repro.pipeline.retrieval import RetrievalPipeline

        if on_fault not in ("raise", "degrade"):
            raise ValueError(
                f"on_fault must be 'raise' or 'degrade', got {on_fault!r}"
            )
        if self._pipeline is None:
            self._pipeline = RetrievalPipeline(
                window=self._pipeline_window,
                fetch_workers=self._fetch_workers,
            )
        recon = self.reconstructor
        step = recon.plan_step(tolerance, relative=relative, plan=plan)
        self.service.cancel_stale_prefetches(recon.step_segment_keys(step))
        return recon.decode_step(
            step,
            on_fault=on_fault,
            level_runner=self._pipeline.level_runner(recon),
        )

    def reconstruct(
        self,
        tolerance: float | None = None,
        relative: bool = False,
        plan: RetrievalPlan | None = None,
        on_fault: str = "raise",
        pipelined: bool | None = None,
    ) -> ReconstructionResult:
        """One progressive step — see :meth:`Reconstructor.reconstruct`.

        ``on_fault="degrade"`` answers from the last committed
        refinement when the backing store faults mid-step (the result
        reports ``degraded=True`` and ``failed_groups``); a later call
        at the same tolerance resumes exactly the failed increment.

        ``pipelined`` overrides the session's setting for this call
        (``None`` keeps it).
        """
        use_pipeline = (
            self.pipelined if pipelined is None else bool(pipelined)
        )
        if use_pipeline and not self.reconstructor.uses_processes():
            result = self._reconstruct_pipelined(
                tolerance, relative, plan, on_fault
            )
        else:
            result = self.reconstructor.reconstruct(
                tolerance=tolerance, relative=relative, plan=plan,
                on_fault=on_fault,
            )
        self.service._schedule_prefetch(
            self.field, self.reconstructor.fetched_groups
        )
        return result

    def progressive(
        self,
        tolerances: list[float],
        relative: bool = False,
        on_fault: str = "raise",
    ) -> list[ReconstructionResult]:
        """Walk a decreasing tolerance schedule, one result per step."""
        return [
            self.reconstruct(tolerance=t, relative=relative,
                             on_fault=on_fault)
            for t in tolerances
        ]

    @property
    def fetched_bytes(self) -> int:
        """Cumulative payload bytes this session's plans required."""
        return self.reconstructor.fetched_bytes

    @property
    def fetched_groups(self) -> list[int]:
        """Cumulative per-level group counts fetched so far."""
        return self.reconstructor.fetched_groups

    @property
    def decode_state_bytes(self) -> int:
        """Resident bytes of this session's retained incremental
        decode state (integer partials + cached level values)."""
        return self.reconstructor.decode_state_bytes()

    def stats(self) -> dict:
        """This session's progressive-state accounting, JSON-ready."""
        return {
            "fetched_bytes": self.fetched_bytes,
            "fetched_groups": self.fetched_groups,
            "decode_state_bytes": self.decode_state_bytes,
        }

    def close(self) -> None:
        """Tear down the session's decode worker pool (idempotent)."""
        with self.service._sessions_lock:
            self.service._sessions.discard(self)
        pipeline, self._pipeline = self._pipeline, None
        if pipeline is not None:
            pipeline.close()
        self.reconstructor.close()

    def __enter__(self) -> "ServiceSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TiledServiceSession:
    """One client's progressive session over a *tiled* field.

    Wraps a :class:`~repro.core.tiling.TiledReconstructor` on a lazily
    opened :class:`~repro.core.tiling.LazyTiledField` whose per-tile
    segment fetches all route through the service's shared
    :class:`SegmentCache`. Region-of-interest steps touch (open,
    fetch, decode) only the tiles the hyperslab overlaps, and each
    touched tile keeps its incremental decode state across staircase
    steps. After each step the service may prefetch every touched
    tile's next planned plane group in the background.
    """

    def __init__(
        self,
        service: "RetrievalService",
        tiled: LazyTiledField,
        num_workers: int = 0,
        backend: str | None = None,
        pipelined: bool = False,
        pipeline_window: int = 4,
        fetch_workers: int = 2,
    ) -> None:
        self.service = service
        self.tiled = tiled
        self.reconstructor = TiledReconstructor(
            tiled, num_workers=num_workers, backend=backend,
            pipelined=pipelined, pipeline_window=pipeline_window,
            fetch_workers=fetch_workers,
        )
        self._last_prefetch_keys: list[str] = []

    def reconstruct(
        self,
        tolerance: float | None = None,
        relative: bool = False,
        region: Sequence | None = None,
        on_fault: str = "raise",
        pipelined: bool | None = None,
    ) -> TiledReconstructionResult:
        """One progressive step — see
        :meth:`~repro.core.tiling.TiledReconstructor.reconstruct`.

        ``on_fault="degrade"`` answers faulted tiles from their last
        committed refinement (zeros if never opened); the result's
        ``degraded``/``failed_tiles`` report what fell back, and a later
        call at the same tolerance retries only the failed increments.

        ``pipelined`` overrides the session's setting for this call
        (``None`` keeps it); a pipelined step first cancels any
        still-queued service prefetches from the previous step — its
        own fetch window supersedes them (prefetches that already
        landed still pay off as cache hits).
        """
        use_pipeline = (
            self.reconstructor.pipelined
            if pipelined is None
            else bool(pipelined)
        )
        if use_pipeline and self._last_prefetch_keys:
            self.service.cancel_stale_prefetches(self._last_prefetch_keys)
            self._last_prefetch_keys = []
        out = self.reconstructor.reconstruct(
            tolerance=tolerance, relative=relative, region=region,
            on_fault=on_fault, pipelined=pipelined,
        )
        if self.service.prefetch:
            # Batch every touched tile's next-group keys into one
            # scheduling round: a wide region can touch hundreds of
            # tiles, and the futures lock is shared across sessions.
            keys: list[str] = []
            for recon in self.reconstructor.touched_reconstructors():
                keys.extend(self.service._next_group_keys(
                    recon.field, recon.fetched_groups
                ))
            self.service._enqueue_prefetch(keys)
            self._last_prefetch_keys = keys
        return out

    def progressive(
        self,
        tolerances: Sequence[float],
        relative: bool = False,
        region: Sequence | None = None,
        on_fault: str = "raise",
    ) -> list[TiledReconstructionResult]:
        """Walk a decreasing tolerance schedule over *region*."""
        return [
            self.reconstruct(tolerance=t, relative=relative, region=region,
                             on_fault=on_fault)
            for t in tolerances
        ]

    @property
    def fetched_bytes(self) -> int:
        """Cumulative payload bytes fetched across touched tiles."""
        return self.reconstructor.fetched_bytes

    @property
    def tiles_touched(self) -> int:
        """Tiles whose reconstructors (decode state) exist so far."""
        return len(self.reconstructor.touched_tiles)

    @property
    def decode_state_bytes(self) -> int:
        """Resident bytes of retained incremental decode state across
        this session's touched tiles."""
        return self.reconstructor.decode_state_bytes()

    def stats(self) -> dict:
        """This session's progressive-state accounting, JSON-ready.

        I/O counters aggregate over wherever the session's tiles decode:
        the parent's lazy tile fields (serial/thread backends, reads
        through the shared cache) or the worker-resident reconstructors
        (process backend, reads direct from the store).
        """
        io = self.reconstructor.aggregate_io_counters()
        return {
            "tiles": self.tiled.num_tiles,
            "tiles_touched": self.tiles_touched,
            "fetched_bytes": self.fetched_bytes,
            "decode_state_bytes": self.decode_state_bytes,
            "segment_reads": io.segment_reads,
            "cold_bytes": io.cold_bytes,
            "cache_hit_bytes": io.cache_hit_bytes,
        }

    def close(self) -> None:
        """Tear down the session's decode worker pool (idempotent)."""
        with self.service._sessions_lock:
            self.service._sessions.discard(self)
        self.reconstructor.close()

    def __enter__(self) -> "TiledServiceSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _store_bears_latency(store) -> bool:
    """True when *store* charges per-access latency worth pipelining.

    Checks the store itself and — through wrapper ``__getattr__``
    passthrough (:class:`~repro.core.faults.FaultInjectingStore`,
    :class:`~repro.core.faults.ResilientReader`) — whatever it fronts:
    injected ``latency_s`` or a :class:`~repro.core.store
    .DirectoryStore`-style ``file_open_latency_s``. In-memory stores
    have neither, and a pipelined session over them would pay window
    bookkeeping for nothing.
    """
    for attr in ("latency_s", "file_open_latency_s"):
        value = getattr(store, attr, None)
        if isinstance(value, (int, float)) and value > 0:
            return True
    return False


class _PrefetchAwareCache:
    """Shared-cache facade that attributes hits to landed prefetches.

    Duck-types the :class:`SegmentCache` surface that
    :func:`~repro.core.store.open_field` uses (``resolve``/``get``/
    ``warm``/``register_checksums``/``__contains__``), delegating
    everything to the service's shared cache; on a warm ``resolve`` it
    additionally credits the service's ``prefetch_hits`` counter when a
    background prefetch is what made the key resident. Sessions read
    through this facade; the prefetch pool warms the shared cache
    directly (a prefetch must not count itself as its own hit).
    """

    def __init__(self, service: "RetrievalService") -> None:
        self._service = service
        self._cache = service.cache

    def resolve(self, key: str) -> tuple[bytes, bool]:
        blob, cold = self._cache.resolve(key)
        if not cold:
            self._service._note_prefetch_hit(key)
        return blob, cold

    def get(self, key: str) -> bytes:
        return self.resolve(key)[0]

    def warm(self, key: str) -> None:
        self._cache.warm(key)

    def register_checksums(self, checksums: dict[str, int]) -> None:
        self._cache.register_checksums(checksums)

    def __contains__(self, key: str) -> bool:
        return key in self._cache


class RetrievalService(WorkerPoolMixin):
    """Multiplex progressive retrieval sessions over one segment cache.

    Parameters
    ----------
    store:
        Backing :class:`~repro.core.store.SegmentReader` holding fields
        written by :func:`~repro.core.store.store_field`.
    cache_bytes:
        Byte budget of the shared :class:`SegmentCache`.
    prefetch:
        When true, each session step schedules a background warm of the
        next unfetched plane group per level — the segments a tighter
        follow-up tolerance would need first — hiding store latency
        behind client compute.
    num_workers:
        Prefetch worker threads (only used — and only validated — when
        ``prefetch`` is true).

    The service object is safe to share across threads: sessions are
    independent, and the cache serializes its own state.
    """

    def __init__(
        self,
        store,
        cache_bytes: int = 256 << 20,
        prefetch: bool = False,
        num_workers: int = 2,
    ) -> None:
        if prefetch and num_workers < 1:
            raise ValueError("num_workers must be >= 1 when prefetching")
        self.store = store
        self.cache = SegmentCache(store, max_bytes=cache_bytes)
        self.prefetch = bool(prefetch)
        self.num_workers = int(num_workers)
        self.prefetch_requests = 0
        self.prefetch_failures = 0
        self.prefetch_hits = 0
        self.prefetch_cancelled = 0
        self.prefetch_skipped = 0
        self._prefetch_futures: list = []
        # Queued-but-unfinished warms by key (cancellation targets) and
        # keys a prefetch actually pulled cold (hit-attribution set) —
        # both guarded, with the counters above, by the futures lock.
        self._prefetch_pending: dict[str, Future] = {}
        self._prefetch_landed: set[str] = set()
        self._futures_lock = threading.Lock()
        self._session_cache = _PrefetchAwareCache(self)
        # Live sessions, tracked weakly so abandoned sessions (never
        # close()d) don't leak; stats() reports their retained
        # decode-state residency. The lock covers add/discard/iteration
        # (WeakSet defers GC removals during iteration, but not
        # concurrent adds from other threads).
        self._sessions: "weakref.WeakSet[ServiceSession]" = weakref.WeakSet()
        self._sessions_lock = threading.Lock()

    def _pool_size(self) -> int:
        return max(1, self.num_workers)

    def open(self, name: str) -> LazyRefactoredField:
        """Open *name* lazily with fetches routed through the shared cache.

        Each call returns a fresh field (sessions must not share
        progressive state); the segment bytes behind them are shared.
        """
        return open_field(self.store, name, cache=self._session_cache)

    def session(
        self,
        name: str,
        num_workers: int = 0,
        backend: str | None = None,
        pipelined: bool | None = None,
        pipeline_window: int = 4,
        fetch_workers: int = 2,
    ) -> ServiceSession:
        """Start a progressive session over variable *name*.

        ``num_workers``/``backend`` are forwarded to the session's
        :class:`~repro.core.reconstruct.Reconstructor` for per-level
        decode parallelism; they are independent of the service's
        prefetch pool. Under the ``processes`` backend segment fetches
        still happen parent-side through the shared cache (workers do
        compute only), so caching and prefetch behave identically.

        ``pipelined=None`` (the default) turns the pipelined fetch
        window on exactly when the backing store bears per-access
        latency (injected ``latency_s`` or directory-store file-open
        latency) — the case where overlapping fetch with decode pays;
        pass ``True``/``False`` to force it.
        """
        if pipelined is None:
            pipelined = _store_bears_latency(self.store)
        session = ServiceSession(
            self, self.open(name), num_workers=num_workers,
            backend=backend, pipelined=pipelined,
            pipeline_window=pipeline_window, fetch_workers=fetch_workers,
        )
        with self._sessions_lock:
            self._sessions.add(session)
        return session

    def open_tiled(self, name: str) -> LazyTiledField:
        """Open tiled field *name* with fetches routed through the cache.

        Each call returns a fresh field (sessions must not share
        progressive state); the segment bytes behind every tile are
        shared through the service cache — two sessions touching the
        same tile pay the backing store once.
        """
        return open_tiled_field(self.store, name, cache=self._session_cache)

    def tiled_session(
        self,
        name: str,
        num_workers: int = 0,
        backend: str | None = None,
        pipelined: bool | None = None,
        pipeline_window: int = 4,
        fetch_workers: int = 2,
    ) -> TiledServiceSession:
        """Start a progressive session over tiled variable *name*.

        ``num_workers``/``backend`` are forwarded to the session's
        :class:`~repro.core.tiling.TiledReconstructor` for concurrent
        per-tile decoding; they are independent of the service's
        prefetch pool. The session supports region-of-interest steps
        (``reconstruct(region=...)``). Under the ``processes`` backend
        tiles decode in worker processes that read the store directly —
        bypassing the service's shared cache and prefetch (which are
        naturally inert: no parent-side reconstructors exist to walk).

        ``pipelined=None`` (the default) turns the per-tile pipelined
        fetch/decode overlap on exactly when the backing store bears
        per-access latency; pass ``True``/``False`` to force it.
        """
        if pipelined is None:
            pipelined = _store_bears_latency(self.store)
        session = TiledServiceSession(
            self, self.open_tiled(name), num_workers=num_workers,
            backend=backend, pipelined=pipelined,
            pipeline_window=pipeline_window, fetch_workers=fetch_workers,
        )
        with self._sessions_lock:
            self._sessions.add(session)
        return session

    def retrieve_qoi(self, qoi, tolerance: float, **kwargs):
        """QoI-controlled retrieval over lazily-opened variables.

        Opens every variable the QoI references through the shared cache
        and runs :func:`repro.qoi.retrieval.retrieve_qoi` (Algorithm 3);
        ``kwargs`` are forwarded (``method``, ``initial_bounds``, ...).
        The result's ``cold_bytes``/``cache_hit_bytes`` report how much
        of the fetched traffic the cache absorbed.
        """
        from repro.qoi.retrieval import retrieve_qoi

        fields = {name: self.open(name) for name in qoi.variables()}
        return retrieve_qoi(fields, qoi, tolerance, **kwargs)

    # -- prefetch ---------------------------------------------------------
    def _next_group_keys(
        self, field: LazyRefactoredField, fetched_groups: list[int]
    ) -> list[str]:
        """Store keys of the next unfetched, uncached group per level."""
        keys = []
        for lv, have in zip(field.levels, fetched_groups):
            refs = getattr(lv, "refs", None)
            if refs and have < len(refs):
                key = refs[have].key
                if key not in self.cache:
                    keys.append(key)
        return keys

    def _schedule_prefetch(
        self, field: LazyRefactoredField, fetched_groups: list[int]
    ) -> None:
        """Warm the next unfetched group per level in the background."""
        if not self.prefetch:
            return
        self._enqueue_prefetch(self._next_group_keys(field, fetched_groups))

    def _enqueue_prefetch(self, keys: list[str]) -> None:
        """Submit background warms for *keys* under one lock round."""
        if not keys:
            return
        pool = self._worker_pool()
        with self._futures_lock:
            self._prefetch_futures = [
                f for f in self._prefetch_futures if not f.done()
            ]
            for key in keys:
                self.prefetch_requests += 1
                future = pool.submit(self._safe_warm, key)
                self._prefetch_pending[key] = future
                self._prefetch_futures.append(future)

    def _safe_warm(self, key: str) -> None:
        """Speculative cache warm: failures are counted, never raised.

        A prefetched segment the client never asked for must not crash
        anything; if the client *does* ask for it later, the resolve
        retries the store and surfaces the real error then. A key that
        became resident since it was queued (a session's own fetch beat
        the prefetch pool to it) is skipped without touching the cache
        counters; a key this warm actually pulled cold is remembered so
        a later session read can be credited as a ``prefetch_hit``.
        """
        with self._futures_lock:
            self._prefetch_pending.pop(key, None)
        try:
            if key in self.cache:
                with self._futures_lock:
                    self.prefetch_skipped += 1
                return
            _, cold = self.cache.resolve(key)
            if cold:
                with self._futures_lock:
                    self._prefetch_landed.add(key)
        except Exception:  # reprolint: disable=R2 -- speculative warm: the resolve path retries and surfaces the real error
            with self._futures_lock:
                self.prefetch_failures += 1

    def cancel_stale_prefetches(self, keys) -> int:
        """Cancel still-queued prefetch warms for *keys*; return count.

        The pipelined sessions call this with the segment keys their
        next window is about to fetch anyway: a warm that has not
        started yet would only duplicate scheduling work, so it is
        pulled from the queue (``prefetch_cancelled``). Warms already
        running — or already landed — are left alone; landed ones still
        pay off as cache hits.
        """
        cancelled = 0
        with self._futures_lock:
            for key in keys:
                future = self._prefetch_pending.pop(key, None)
                if future is not None and future.cancel():
                    cancelled += 1
                    self.prefetch_cancelled += 1
        return cancelled

    def _note_prefetch_hit(self, key: str) -> None:
        """Credit a warm session read to the prefetch that landed it.

        Called by the sessions' cache facade on every non-cold resolve;
        each landed prefetch is credited at most once (the first read
        that found it resident is the latency actually hidden).
        """
        with self._futures_lock:
            if key in self._prefetch_landed:
                self._prefetch_landed.discard(key)
                self.prefetch_hits += 1

    def drain_prefetch(self) -> None:
        """Block until every scheduled prefetch has settled.

        Prefetch failures never raise here (they are speculative), and
        warms cancelled by :meth:`cancel_stale_prefetches` are simply
        skipped; see ``prefetch_failures``/``prefetch_cancelled``.
        """
        with self._futures_lock:
            futures, self._prefetch_futures = self._prefetch_futures, []
        for f in futures:
            try:
                f.result()
            except CancelledError:
                pass

    def stats(self) -> dict:
        """Cache counters plus backing-store read accounting, JSON-ready.

        ``sessions`` reports the live progressive sessions and the bytes
        their incremental decode engines keep resident (integer partials
        plus cached level values) — the memory the service trades for
        refinement steps that decode only the increment.

        ``pool`` is the shared process backend's health snapshot
        (respawns, task retries, quarantines, deadline kills — see
        :meth:`~repro.core.backends.ProcessBackend.health`) when this
        service resolves to the ``processes`` backend and a pool
        exists, else ``None``. After a pool replacement (the shared
        backend growing mid-session) it reports the *current* pool.
        """
        with self._sessions_lock:
            sessions = list(self._sessions)
        with self._futures_lock:
            prefetch_requests = self.prefetch_requests
            prefetch_failures = self.prefetch_failures
            prefetch_hits = self.prefetch_hits
            prefetch_cancelled = self.prefetch_cancelled
            prefetch_skipped = self.prefetch_skipped
        pool = None
        if self.uses_processes():
            backend = current_process_backend()
            if backend is not None:
                pool = backend.health()
        return {
            "cache": self.cache.stats(),
            "prefetch_requests": prefetch_requests,
            "prefetch_failures": prefetch_failures,
            "prefetch_hits": prefetch_hits,
            "prefetch_cancelled": prefetch_cancelled,
            "prefetch_skipped": prefetch_skipped,
            "store_reads": getattr(self.store, "reads", None),
            "store_bytes_read": getattr(self.store, "bytes_read", None),
            "pool": pool,
            "sessions": {
                "open": len(sessions),
                "decode_state_bytes": sum(
                    s.decode_state_bytes for s in sessions
                ),
                # Tiled-session residency: decode state exists only for
                # tiles a reconstruction touched (plain sessions count 0).
                "tiles_touched": sum(
                    getattr(s, "tiles_touched", 0) for s in sessions
                ),
            },
        }

    def close(self) -> None:
        """Drain outstanding prefetches and stop the worker pool."""
        try:
            self.drain_prefetch()
        finally:
            super().close()


__all__ = [
    "SegmentCache",
    "RetrievalService",
    "ServiceSession",
    "TiledServiceSession",
]
