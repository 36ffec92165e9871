"""Progressive reconstruction: stream + tolerance → field.

The :class:`Reconstructor` is stateful: it remembers which plane groups
it already "fetched", so successive calls at tighter tolerances only pay
for the increment — the defining behaviour of progressive retrieval.
Since PR 4 that statefulness extends to *compute*: each level's decoded
integer partials are retained between steps
(:class:`~repro.bitplane.encoding.PartialDecodeState`), so a refinement
step decompresses and injects only the plane groups added since the
previous step instead of re-decoding everything from plane 0 (the
incremental-decode behaviour of HPDR, arXiv:2503.06322). Every result
carries a rigorous L∞ ``error_bound`` that the actual error provably
does not exceed (tested property).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitplane.encoding import (
    BitplaneStream,
    PartialDecodeState,
    apply_planes,
    begin_decode_state,
    decode_bitplanes,
    finalize_decode,
)
from repro.core._pool import WorkerPoolMixin
from repro.core.backends import parse_backend_spec, task_name
from repro.core.errors import ComputeError, StoreError
from repro.core.planner import RetrievalPlan, plan_full, plan_greedy
from repro.core.stream import RefactoredField
from repro.decompose import MultilevelTransform
from repro.util.validation import check_on_fault, check_tolerance
from repro.lossless.hybrid import CompressedGroup, decompress_groups


@dataclass
class ReconstructionResult:
    """One progressive retrieval step's output.

    ``tolerance`` is always the *absolute* L∞ tolerance the step
    resolved to (NaN for near-lossless ``tolerance=None`` retrieval);
    when the step was requested with ``relative=True`` the original
    fraction is kept in ``relative_tolerance``, so
    ``error_bound <= tolerance`` is a meaningful check either way.

    ``cold_bytes`` / ``cache_hit_bytes`` split this step's actual segment
    traffic into backing-store reads versus shared-cache hits. They are
    populated only for store-backed lazy fields (see
    :func:`repro.core.store.open_field`); for in-memory eager fields the
    data never crosses an I/O boundary and both stay 0.

    ``decoded_groups`` / ``decoded_planes`` count the plane groups and
    bitplanes this step actually decompressed and injected — on the
    incremental engine a refinement step reports only the increment.

    ``degraded`` marks a step answered from the session's last
    *committed* refinement because the storage tier faulted and the
    caller asked for ``on_fault="degrade"``; ``failed_groups`` then
    records the per-level group counts the aborted plan wanted, and
    ``error_bound``/``plan`` describe what was actually returned. A
    follow-up call retries exactly the missing increment (session
    state never committed the failed step).
    """

    data: np.ndarray
    error_bound: float
    tolerance: float
    fetched_bytes: int  # cumulative bytes fetched so far
    incremental_bytes: int  # bytes newly fetched by this step
    plan: RetrievalPlan
    cold_bytes: int = 0  # this step's bytes read from the backing store
    cache_hit_bytes: int = 0  # this step's bytes served by a shared cache
    relative_tolerance: float | None = None  # requested fraction, if any
    decoded_groups: int = 0  # plane groups decompressed by this step
    decoded_planes: int = 0  # bitplanes injected by this step
    degraded: bool = False  # answered from the last committed refinement
    failed_groups: list[int] | None = None  # aborted plan's group counts

    @property
    def bitrate(self) -> float:
        """Cumulative bits per element — the retrieval-efficiency metric."""
        return 8.0 * self.fetched_bytes / self.data.size


@dataclass
class StepPlan:
    """One progressive step's resolved plan, before any decode work.

    Produced by :meth:`Reconstructor.plan_step` from pure metadata
    (tolerance resolution + planner output merged with the session's
    committed fetch progress); consumed by
    :meth:`Reconstructor.fetch_step` (which resolves exactly the
    segments the step needs, in the sequential path's access order) and
    :meth:`Reconstructor.decode_step` (which runs the decode pass and
    commits). :meth:`Reconstructor.reconstruct` is literally
    ``plan_step`` + ``fetch_step`` + ``decode_step``; the pipelined
    runtime (:mod:`repro.pipeline.retrieval`) runs the same three
    phases, only letting one item's fetch run ahead of another's decode.

    ``io_before`` snapshots the field's I/O counters at plan time, so a
    step whose fetch stage ran ahead on another thread still reports
    the whole step's cold/cached traffic in its result.
    """

    tolerance: float | None  # resolved absolute tolerance (None = all)
    relative_tolerance: float | None  # requested fraction, if any
    groups: list[int]  # per-level targets, merged with fetch progress
    incremental_bytes: int  # payload bytes the step newly requires
    io_before: object | None = None  # IOCounters snapshot at plan time


@dataclass
class DecodeCounters:
    """Cumulative decode-work accounting of one :class:`Reconstructor`.

    The instrumentation behind the incremental-decode guarantee: tests
    and benchmarks assert that a refinement step's deltas cover only the
    newly planned plane groups.
    """

    groups_decoded: int = 0
    planes_decoded: int = 0
    level_decodes: int = 0  # level decode jobs that did any work
    level_reuses: int = 0  # levels served verbatim from cached values

    def snapshot(self) -> "DecodeCounters":
        return DecodeCounters(
            self.groups_decoded, self.planes_decoded,
            self.level_decodes, self.level_reuses,
        )

    def since(self, earlier: "DecodeCounters") -> "DecodeCounters":
        """Counter deltas accumulated after *earlier* was snapshotted."""
        return DecodeCounters(
            self.groups_decoded - earlier.groups_decoded,
            self.planes_decoded - earlier.planes_decoded,
            self.level_decodes - earlier.level_decodes,
            self.level_reuses - earlier.level_reuses,
        )


def _level_decode_meta(lv) -> dict:
    """Stream metadata a worker needs to rebuild decode state/streams.

    Mirrors the keyword set of
    :func:`~repro.bitplane.encoding.begin_decode_state` (minus
    ``dtype``) and :class:`~repro.bitplane.encoding.BitplaneStream`
    (minus ``dtype``/``design``/``planes``), so it splats into either.
    """
    return {
        "num_elements": lv.num_elements,
        "num_bitplanes": lv.num_bitplanes,
        "exponent": lv.exponent,
        "max_abs": lv.max_abs,
        "layout": lv.layout,
        "warp_size": lv.warp_size,
        "signed_encoding": lv.signed_encoding,
    }


def _task_apply_level_increment(state, meta, pstate, blobs):
    """Process-backend task: inject shipped plane groups into *pstate*.

    The worker half of the incremental engine's split: the parent
    fetched the serialized groups (so I/O accounting, caching, and
    fault policy stayed parent-side) and this runs exactly the compute
    the serial path runs — decompress, ``apply_planes`` at the state's
    own cursor, finalize. Returns ``(values, advanced_state, planes)``
    for the parent to commit.
    """
    groups = [CompressedGroup.from_bytes(blob) for blob in blobs]
    planes = decompress_groups(groups)
    if pstate is None:
        pstate = begin_decode_state(dtype=np.dtype(np.float64), **meta)
    pstate = apply_planes(pstate, planes, pstate.planes_applied)
    return finalize_decode(pstate), pstate, len(planes)


def _task_decode_level_full(state, meta, design, blobs, num_planes):
    """Process-backend task: full re-decode of one level's groups."""
    groups = [CompressedGroup.from_bytes(blob) for blob in blobs]
    stream = BitplaneStream(
        planes=decompress_groups(groups),
        dtype=np.dtype(np.float64),
        design=design,
        **meta,
    )
    return decode_bitplanes(stream, num_planes)


class Reconstructor(WorkerPoolMixin):
    """Tolerance-driven, incremental reconstruction of one variable.

    ``incremental=True`` (the default) retains each level's partial
    integer coefficients between steps and decodes only newly planned
    plane groups; ``incremental=False`` keeps the full re-decode of
    every fetched group on every step — the pre-incremental reference
    path, retained for equivalence tests and as the benchmark baseline
    (both paths are bit-identical at every step of a staircase).

    ``num_workers > 1`` decodes the independent per-level streams
    through a thread pool shared across this instance's calls —
    created lazily on first use, reused by every subsequent
    :meth:`reconstruct`/:meth:`progressive` step, and torn down with
    the instance (NumPy releases the GIL on the big
    decompression/transpose kernels). The default is serial.

    ``transform`` lets a caller managing many same-geometry fields
    (the tiled engine: hundreds of identical-shape tiles) share one
    :class:`~repro.decompose.MultilevelTransform` across their
    reconstructors instead of rebuilding the grid geometry per field;
    it must match the field's shape/levels/mode. The transform is
    read-only during reconstruction, so sharing it is safe even when
    tiles decode concurrently.
    """

    def __init__(
        self,
        field: RefactoredField,
        num_workers: int = 0,
        incremental: bool = True,
        transform: MultilevelTransform | None = None,
        backend: str | None = None,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self.field = field
        self.num_workers = int(num_workers)
        if backend is not None:
            parse_backend_spec(backend)  # validates, raises on junk
        self.backend = backend
        self.incremental = bool(incremental)
        if transform is None:
            transform = MultilevelTransform(
                field.shape,
                num_levels=field.num_levels,
                mode=field.mode,
                min_size=field.min_size,
            )
        elif (
            transform.shape != tuple(field.shape)
            or transform.num_levels != field.num_levels
            or transform.mode != field.mode
            or transform.geometry.min_size != field.min_size
        ):
            raise ValueError(
                f"shared transform geometry (shape={transform.shape}, "
                f"num_levels={transform.num_levels}, "
                f"mode={transform.mode!r}, "
                f"min_size={transform.geometry.min_size}) does not match "
                f"the field (shape={tuple(field.shape)}, "
                f"num_levels={field.num_levels}, mode={field.mode!r}, "
                f"min_size={field.min_size})"
            )
        self.transform = transform
        self._fetched = [0] * len(field.levels)
        self._fetched_bytes = 0
        # Per-level retained decode state: integer partials + the last
        # finalized float values. Committed only after a whole step
        # succeeds, so a failed fetch/decode leaves the session able to
        # retry the same increment.
        self._states: list[PartialDecodeState | None] = (
            [None] * len(field.levels)
        )
        self._values: list[np.ndarray | None] = [None] * len(field.levels)
        self.decode_counters = DecodeCounters()

    def _pool_size(self) -> int:
        return self.num_workers

    @property
    def fetched_groups(self) -> list[int]:
        """Cumulative per-level group counts fetched so far."""
        return list(self._fetched)

    @property
    def fetched_bytes(self) -> int:
        return self._fetched_bytes

    def decode_state_bytes(self) -> int:
        """Resident bytes of retained per-level decode state.

        Counts the integer partials (magnitude/negabinary words + sign
        bits) and the cached finalized level values the incremental
        engine keeps between steps; 0 until the first step (and always
        for ``incremental=False`` sessions).
        """
        total = 0
        for state in self._states:
            if state is not None:
                total += state.nbytes
        for values in self._values:
            if values is not None:
                total += int(values.nbytes)
        return total

    def _validate_plan(self, plan: RetrievalPlan) -> None:
        """Reject malformed explicit plans at the API boundary.

        A wrong-length ``groups_per_level`` previously zip-truncated
        silently (too long) or died deep in ``assemble_levels`` (too
        short); out-of-range group counts failed inside the codec.
        """
        groups = plan.groups_per_level
        levels = self.field.levels
        if len(groups) != len(levels):
            raise ValueError(
                f"plan has {len(groups)} per-level group counts but the "
                f"field has {len(levels)} levels"
            )
        for idx, (g, lv) in enumerate(zip(groups, levels)):
            if not 0 <= int(g) <= lv.num_groups:
                raise ValueError(
                    f"plan group count {g} for level {idx} is outside "
                    f"[0, {lv.num_groups}]"
                )

    def reconstruct(
        self,
        tolerance: float | None = None,
        relative: bool = False,
        plan: RetrievalPlan | None = None,
        on_fault: str = "raise",
    ) -> ReconstructionResult:
        """Reconstruct to *tolerance* (L∞), fetching only the increment.

        ``relative=True`` interprets the tolerance as a fraction of the
        original value range (the SZ/MGARD convention used in the
        paper's evaluation); on a constant field (``value_range == 0``)
        any fraction resolves to 0, so the call short-circuits to the
        documented near-lossless path instead of silently demanding an
        unreachable bound. ``tolerance=None`` retrieves everything
        (near-lossless). An explicit ``plan`` overrides planning. Session
        state (fetch progress and retained decode partials) commits only
        after the whole step decodes successfully, so a failed lazy-store
        fetch can simply be retried.

        ``on_fault`` controls what a storage-tier failure
        (:class:`~repro.core.errors.StoreError` — a missing segment,
        exhausted retries, persistent corruption) does: ``"raise"``
        (default) propagates it; ``"degrade"`` falls back to the
        session's last committed refinement — the result carries
        ``degraded=True``, ``failed_groups`` (the aborted plan), and
        the honest (looser) ``error_bound`` of what was returned.
        Because the failed step never committed, simply calling again
        resumes exactly where the fault hit.

        The step runs as ``plan_step`` → ``fetch_step`` → ``decode_step``:
        the store is read only by the sequential fetch chain, never by
        the (possibly parallel) level decodes.
        """
        check_on_fault(on_fault)
        step = self.plan_step(tolerance, relative=relative, plan=plan)
        fetch_error = None
        try:
            self.fetch_step(step)
        except StoreError as exc:
            fetch_error = exc
        return self.decode_step(
            step, on_fault=on_fault, fetch_error=fetch_error
        )

    def plan_step(
        self,
        tolerance: float | None = None,
        relative: bool = False,
        plan: RetrievalPlan | None = None,
    ) -> StepPlan:
        """Resolve one step's tolerance and per-level group targets.

        Pure metadata: tolerance resolution, planning, and the merge
        with the session's committed fetch progress touch no segment
        payloads (lazy fields plan from :class:`~repro.core.stream.
        SegmentRef` sizes alone). The returned :class:`StepPlan` feeds
        :meth:`fetch_step` and then :meth:`decode_step`, exactly as
        :meth:`reconstruct` does.
        """
        # Store-backed lazy fields track actual segment traffic; snapshot
        # before planning (a pre-metadata index can force fetches there)
        # to report this step's cold vs. cached split.
        io = getattr(self.field, "io_counters", None)
        io_before = io.snapshot() if io is not None else None
        requested = check_tolerance(tolerance, allow_none=True)
        relative_requested = requested if relative else None
        resolved = requested
        if relative and requested is not None:
            resolved = requested * self.field.value_range
        if plan is not None:
            self._validate_plan(plan)
        elif requested is None:
            plan = plan_full(self.field)
        elif relative and self.field.value_range == 0.0:
            # Constant field: value_range is 0, so every relative
            # fraction resolves to absolute 0 — fetch everything
            # deliberately (the documented near-lossless path) rather
            # than silently asking the planner for an unreachable bound.
            plan = plan_full(self.field)
        else:
            plan = plan_greedy(self.field, resolved, start=self._fetched)
        # Progressive: never un-fetch; merge with what we already have.
        groups = [
            max(have, int(want))
            for have, want in zip(self._fetched, plan.groups_per_level)
        ]
        incremental = sum(
            lv.bytes_for_groups(g) - lv.bytes_for_groups(have)
            for lv, g, have in zip(self.field.levels, groups, self._fetched)
        )
        return StepPlan(
            tolerance=resolved,
            relative_tolerance=relative_requested,
            groups=groups,
            incremental_bytes=incremental,
            io_before=io_before,
        )

    def fetch_level_groups(self, idx: int, want: int) -> None:
        """Resolve level *idx*'s segments up to *want* groups.

        Touches the (possibly lazy) group sequence in ascending group
        order over ``[committed, want)``, stopping at the first
        :class:`~repro.core.errors.StoreError`. Successful fetches
        memoize on the field, so the decode stage later finds them
        resident without touching the store; a partial fetch before a
        fault stays memoized. Eager in-memory fields no-op (plain list
        indexing).
        """
        groups = self.field.levels[idx].groups
        for g in range(self._fetched[idx], want):
            groups[g]  # memoizing touch; lazy sequences fetch here

    def fetch_step(self, step: StepPlan) -> None:
        """Fetch stage of one step: resolve every segment it needs.

        Walks levels ascending, groups ascending within each, as one
        sequential chain, so a seeded fault schedule
        (:class:`~repro.core.faults.FaultInjectingStore` keys its
        deterministic draws on per-key access counts) replays
        identically whether fetch runs inline or on a pipeline's fetch
        stage, and whichever backend decodes. Raises
        :class:`~repro.core.errors.StoreError` at the first failing
        segment; the caller hands that error to :meth:`decode_step` (as
        ``fetch_error``) rather than retrying, which would shift access
        counts.
        """
        for idx, want in enumerate(step.groups):
            self.fetch_level_groups(idx, want)

    def decode_step(
        self,
        step: StepPlan,
        on_fault: str = "raise",
        fetch_error: BaseException | None = None,
        level_runner=None,
    ) -> ReconstructionResult:
        """Decode/recompose/commit one planned, fetched step.

        The decode phase of :meth:`reconstruct`: runs the per-level
        decode pass over ``step.groups``, assembles and recomposes, and
        commits session state. Its level decodes use only segments
        that the step's fetch chain already memoized and never read the
        store, so they may run in parallel without changing which keys
        the step reads. ``fetch_error`` is the
        :class:`~repro.core.errors.StoreError` that fetch chain stopped
        at: it is raised here so ``on_fault`` handles it — ``"degrade"``
        falls back to the committed refinement, which is memoized too.
        ``level_runner(jobs, decode_level)``, when given, replaces the
        backend fan-out for the first decode attempt: the pipelined
        level window, whose fetch stage runs the same ordered chain as
        :meth:`fetch_step` ahead of the decodes. Then the step's store
        reads happen only in that fetch stage, on the window's fetch
        threads. The degrade fallback always runs the backend fan-out.
        """
        check_on_fault(on_fault)
        resolved = step.tolerance
        relative_requested = step.relative_tolerance
        io_before = step.io_before
        groups = list(step.groups)
        incremental = step.incremental_bytes

        decode_level = (
            self._decode_level_incremental if self.incremental
            else self._decode_level_full
        )
        spec = self._backend_spec()
        use_processes = spec.kind == "processes" and spec.workers > 1

        def run_step(groups: list[int], runner=None) -> list[tuple]:
            jobs = [
                (idx, lv, want)
                for idx, (lv, want) in enumerate(
                    zip(self.field.levels, groups)
                )
            ]
            if runner is not None:
                return runner(jobs, decode_level)
            if use_processes and len(jobs) > 1:
                return self._decode_levels_processes(jobs)
            return self.map_jobs(decode_level, jobs)

        degraded = False
        failed_groups: list[int] | None = None
        try:
            if fetch_error is not None:
                raise fetch_error
            outcomes = run_step(groups, level_runner)
        except (StoreError, ComputeError):
            if on_fault != "degrade":
                raise
            # Fall back to the last committed refinement: every group in
            # [0, have) is already memoized in the (lazy) field and every
            # committed level value is cached, so this decode pass
            # touches no store and cannot fault again. ComputeError
            # (a quarantined poison task, a deadline kill the backend
            # could not heal) degrades the same way: level commits are
            # parent-side, so recovery state is intact.
            degraded = True
            failed_groups = groups
            groups = list(self._fetched)
            incremental = 0
            outcomes = run_step(groups)

        level_values = [values for _, values, _, _ in outcomes]
        coeffs = self.transform.assemble_levels(level_values)
        # assemble_levels only reads the level arrays and returns a fresh
        # owned float64 buffer, so the cached values survive the step and
        # the recompose can run in place on the assembly (and the result
        # is ours to hand out without a defensive copy).
        data = self.transform.recompose(coeffs, overwrite=True).astype(
            self.field.dtype, copy=False
        )
        bound = sum(
            w * lv.error_bound_for_groups(g)
            for w, lv, g in zip(
                self.field.level_weights, self.field.levels, groups
            )
        )
        # Commit session state only now that every level decoded: a
        # failed fetch/decode above leaves fetch progress and retained
        # partials exactly as before the call (tested property).
        step_groups = step_planes = 0
        for idx, values, state, decoded in outcomes:
            if state is not None:
                self._states[idx] = state
                self._values[idx] = values
            d_groups, d_planes = decoded
            step_groups += d_groups
            step_planes += d_planes
            if d_groups or d_planes:
                self.decode_counters.level_decodes += 1
            else:
                self.decode_counters.level_reuses += 1
        self.decode_counters.groups_decoded += step_groups
        self.decode_counters.planes_decoded += step_planes
        self._fetched = groups
        self._fetched_bytes += incremental

        if io_before is not None:
            io_step = self.field.io_counters.since(io_before)
            cold_bytes = io_step.cold_bytes
            cache_hit_bytes = io_step.cache_hit_bytes
        else:
            cold_bytes = cache_hit_bytes = 0
        return ReconstructionResult(
            data=data,
            error_bound=bound,
            tolerance=float("nan") if resolved is None else float(resolved),
            fetched_bytes=self._fetched_bytes,
            incremental_bytes=incremental,
            cold_bytes=cold_bytes,
            cache_hit_bytes=cache_hit_bytes,
            relative_tolerance=relative_requested,
            decoded_groups=step_groups,
            decoded_planes=step_planes,
            degraded=degraded,
            failed_groups=failed_groups,
            plan=RetrievalPlan(
                groups_per_level=groups,
                error_bound=bound,
                fetched_bytes=sum(
                    lv.bytes_for_groups(g)
                    for lv, g in zip(self.field.levels, groups)
                ),
            ),
        )

    # -- per-level decode engines -----------------------------------------
    def _decode_level_incremental(
        self, job: tuple
    ) -> tuple[int, np.ndarray, PartialDecodeState | None, tuple[int, int]]:
        """Decode only groups ``[have, want)`` into the retained state.

        Reads (but never mutates) the session's committed state, so a
        failure anywhere in the step leaves it retryable; returns the
        advanced state for the caller to commit.
        """
        idx, lv, want = job
        state = self._states[idx]
        if state is None:
            state = lv.empty_decode_state(np.dtype(np.float64))
        have = self._fetched[idx]
        if want > have:
            planes = lv.decompress_group_range(have, want)
            state = apply_planes(state, planes, state.planes_applied)
            return idx, finalize_decode(state), state, (
                want - have, len(planes)
            )
        values = self._values[idx]
        if values is None:  # first step and this level planned 0 groups
            values = finalize_decode(state)
        return idx, values, state, (0, 0)

    def _decode_level_full(
        self, job: tuple
    ) -> tuple[int, np.ndarray, None, tuple[int, int]]:
        """Pre-incremental reference: re-decode every fetched group."""
        idx, lv, want = job
        values = decode_bitplanes(
            lv.to_bitplane_stream(
                want, np.dtype(np.float64), self.field.design
            ),
            lv.planes_in_groups(want),
        )
        return idx, values, None, (want, lv.planes_in_groups(want))

    def _decode_levels_processes(self, jobs: list[tuple]) -> list[tuple]:
        """Per-level decodes on worker processes; fetch stays parent-side.

        The parent serializes each level's plane groups, which
        :meth:`fetch_step` already memoized (so ``IOCounters``, the
        shared segment cache, retry policy, and fault handling are the
        serial path's), and ships only compute (decompress, plane
        injection, finalize) to the workers. ``PartialDecodeState``
        travels out and back; commits stay parent-side, preserving the
        retry-after-failure contract. Levels whose step needs no new
        groups are served from cache locally without a round-trip.
        """
        backend = self._process_backend()
        calls: list[tuple] = []
        placement: list[tuple[int, int, tuple[int, int]]] = []
        outcomes: list[tuple | None] = [None] * len(jobs)
        for j, (idx, lv, want) in enumerate(jobs):
            if self.incremental:
                have = self._fetched[idx]
                if want <= have:
                    outcomes[j] = self._decode_level_incremental(
                        (idx, lv, want)
                    )
                    continue
                blobs = [lv.groups[g].to_bytes() for g in range(have, want)]
                calls.append((
                    task_name(_task_apply_level_increment),
                    (_level_decode_meta(lv), self._states[idx], blobs),
                    None,
                ))
                placement.append((j, idx, (want - have, -1)))
            else:
                blobs = [lv.groups[g].to_bytes() for g in range(want)]
                num_planes = lv.planes_in_groups(want)
                calls.append((
                    task_name(_task_decode_level_full),
                    (
                        _level_decode_meta(lv), self.field.design,
                        blobs, num_planes,
                    ),
                    None,
                ))
                placement.append((j, idx, (want, num_planes)))
        if calls:
            results = backend.map_calls(calls)
            for (j, idx, decoded), result in zip(placement, results):
                if self.incremental:
                    values, state, num_planes = result
                    outcomes[j] = (
                        idx, values, state, (decoded[0], num_planes)
                    )
                else:
                    outcomes[j] = (idx, result, None, decoded)
        return outcomes

    def progressive(
        self,
        tolerances: list[float],
        relative: bool = False,
        on_fault: str = "raise",
    ) -> list[ReconstructionResult]:
        """Reconstruct at a decreasing tolerance schedule.

        Returns one result per tolerance; ``incremental_bytes`` of each
        step is the extra data movement that step required — the series
        plotted in Fig. 8(b). ``on_fault="degrade"`` lets a faulting
        staircase keep walking: failed steps return the last committed
        refinement (marked ``degraded``) and later steps retry the
        missing increments.
        """
        return [
            self.reconstruct(tolerance=t, relative=relative,
                             on_fault=on_fault)
            for t in tolerances
        ]


def reconstruct(
    field: RefactoredField,
    tolerance: float | None = None,
    relative: bool = False,
    num_workers: int = 0,
    backend: str | None = None,
) -> ReconstructionResult:
    """One-shot convenience wrapper around :class:`Reconstructor`."""
    return Reconstructor(
        field, num_workers=num_workers, backend=backend
    ).reconstruct(tolerance, relative=relative)
