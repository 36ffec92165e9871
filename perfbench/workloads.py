"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed with the generators in
``repro.data`` (the library sees only the generated arrays), sets up
whatever the timed passes read, and runs passes: one client issuing
one call at a time and waiting for each result before the next. Every
result is checked against the generated original between calls, outside
the step timing. See README.md for why these three were chosen.
"""

from __future__ import annotations

import shutil
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.qoi.retrieval as qoi_retrieval
from repro.core.faults import FaultInjectingStore
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import refactor
from repro.core.service import RetrievalService
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    load_field,
    store_field,
    store_tiled_field,
)
from repro.core.tiling import TiledRefactorer
from repro.data import gaussian_random_field, load_velocity_fields
from repro.qoi.expressions import v_total
from repro.qoi.retrieval import actual_qoi_error

from spans import Tracer, TracingStore

#: Edge of every generated cube; the paper's datasets are 1.25–48 GB,
#: these are laptop-scale stand-ins (a 96³ float32 field is 3.5 MB).
EDGE = 96
VELOCITY = ("vx", "vy", "vz")

#: Relative tolerances of the refactor_write read-back (round trip).
#: Three steps, so the step median falls inside the middle step's
#: latencies rather than on the gap between two equal-sized groups.
READBACK_STAIRCASE = (1e-2, 1e-3, 1e-4)
#: Tolerances of the read workloads are fractions of this fixed range,
#: in units of the field's standard deviation (the generators fix it at
#: 1): the median value range of the generated fields. A seed's own
#: range hangs on a single extreme value and varies by ±5%, which would
#: shift every level's plane count at once and with it the bytes read.
NOMINAL_RANGE_SIGMAS = 9.5
#: qoi_staircase: V_total tolerances as fractions of the velocity range.
QOI_TAUS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
#: roi_sessions: tile edge, relative staircase, store latency and cache.
TILE = 16
ROI_STAIRCASE = (1e-1, 3e-2, 1e-2, 3e-3)
#: Fixed per-``get`` store latency — a constant of the workload, also
#: stated in BENCHMARK.json. Calibrating it from measured decode time
#: would let a faster decoder change the workload it is measured on.
ROI_LATENCY_S = 1e-3
ROI_CACHE_BYTES = 64 << 20
#: Six half-extent regions, as per-axis tile offsets in {0, 1, 2}. A
#: region starts half a tile past its offset, so each one touches
#: 4×4×4 tiles; the seed permutes axes, mirrors them and shuffles the
#: session order — symmetries of the tile grid — so every seed has the
#: same overlap between sessions (and cache reuse) but different data.
ROI_PATTERN = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1),
               (2, 2, 2))


@dataclass
class Step:
    """One timed call as the client sees it."""

    ms: float
    first: bool  # first call of its session/ladder/read-back
    out_bytes: int  # bytes of output delivered
    values: int  # values delivered
    cold_bytes: int  # bytes this call read from the backing store


@dataclass
class PassResult:
    wall_s: float
    steps: list[Step] = field(default_factory=list)
    write_s: float = 0.0  # refactor + store time (refactor_write)
    write_bytes: int = 0  # raw bytes refactored and stored
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Layer counters the program reports itself (not from spans).
    counters: dict = field(default_factory=dict)
    #: Called after each step, while the program has nothing running
    #: (the run samples its machine-speed reference here).
    idle: Callable[[], None] = lambda: None

    def add(self, step: Step) -> None:
        self.steps.append(step)
        self.idle()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Setup:
    state: dict
    setup_s: float
    refactor_s: float  # refactor + store part of set-up (0 if none)
    raw_bytes: int
    stored_bytes: int


def _max_error(original: np.ndarray, data: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(data, np.float64) - original)))


def _cache_counters(stats: dict) -> dict:
    """The service-cache figures the traced run reports, from stats()."""
    cache = stats["cache"]
    moved = cache["hit_bytes"] + cache["miss_bytes"]
    return {
        "cache_hit_rate_bytes": cache["hit_bytes"] / moved if moved else 0.0,
        "cache_misses": cache["misses"],
        "prefetch_hits": stats["prefetch_hits"],
    }


def _store(store, tracer: Tracer):
    return TracingStore(store, tracer) if tracer.enabled else store


class RefactorWrite:
    """Refactor + ``store_field`` three velocity fields into a new store.

    The write path alone: ``decompose``, ``bitplane``, ``lossless`` and
    ``core.store`` puts. After the timed write, each field is read back
    through ``load_field`` + ``Reconstructor.reconstruct`` — the round
    trip check — and those reads are this workload's steps.
    """

    name = "refactor_write"

    def setup(self, seed: int, workdir: Path) -> Setup:
        t0 = time.perf_counter()
        fields = load_velocity_fields("JHTDB", dims=(EDGE,) * 3, seed=seed)
        setup_s = time.perf_counter() - t0
        raw = sum(int(a.nbytes) for a in fields)
        return Setup({"fields": dict(zip(VELOCITY, fields)),
                      "workdir": workdir, "passes": 0},
                     setup_s, 0.0, raw, 0)

    def warm_up(self, state: dict) -> None:
        self.run_pass(state, Tracer())

    def run_pass(self, state: dict, tracer: Tracer,
                 idle: Callable[[], None] = lambda: None) -> PassResult:
        state["passes"] += 1
        root = state["workdir"] / f"write{state['passes']}"
        store = DirectoryStore(root)
        target = _store(store, tracer)
        start = time.perf_counter()
        for name, original in state["fields"].items():
            with tracer.span("step", new_step=True):
                refactored = refactor(original, name=name)
                with tracer.span("core.store.store_field"):
                    store_field(target, refactored)
        write_s = time.perf_counter() - start
        raw = sum(int(a.nbytes) for a in state["fields"].values())
        result = PassResult(0.0, write_s=write_s, write_bytes=raw, idle=idle)
        result.counters["stored_bytes"] = store.total_bytes()
        idle()
        with tracer.paused():
            for name, original in state["fields"].items():
                self._read_back(store, name, original, result)
        result.wall_s = time.perf_counter() - start
        shutil.rmtree(root)
        return result

    @staticmethod
    def _read_back(store, name, original, result) -> None:
        """``load_field`` + a short staircase; the first step loads."""
        reconstructor = None
        for k, frac in enumerate(READBACK_STAIRCASE):
            reads_before = store.bytes_read
            t0 = time.perf_counter()
            try:
                if reconstructor is None:
                    reconstructor = Reconstructor(load_field(store, name))
                out = reconstructor.reconstruct(frac, relative=True)
            except Exception as exc:  # counted, reported, not fatal
                result.check(False, f"{name} @ {frac}: raised {exc!r}")
                continue
            ms = (time.perf_counter() - t0) * 1e3
            result.add(Step(
                ms, k == 0, int(original.nbytes), int(original.size),
                store.bytes_read - reads_before))
            limit = frac * reconstructor.field.value_range
            err = _max_error(original, out.data)
            result.check(
                err <= out.error_bound <= limit and not out.degraded,
                f"{name} @ {frac}: error {err:.3g}, bound "
                f"{out.error_bound:.3g}, limit {limit:.3g}")


class QoIStaircase:
    """``retrieve_qoi(V_total, τ)`` down a five-step tolerance ladder.

    Untiled ``Reconstructor``, ``qoi`` error estimation and
    ``decompose.recompose`` do the work; the directory store is fast,
    so fetch and pipelining cost almost nothing. Each ladder uses a new
    ``RetrievalService``, so its first call reads the store cold.
    """

    name = "qoi_staircase"

    def setup(self, seed: int, workdir: Path) -> Setup:
        t0 = time.perf_counter()
        fields = load_velocity_fields("JHTDB", dims=(EDGE,) * 3, seed=seed)
        t1 = time.perf_counter()
        store = DirectoryStore(workdir / "qoi")
        for name, original in zip(VELOCITY, fields):
            store_field(store, refactor(original, name=name))
        end = time.perf_counter()
        velocity_range = NOMINAL_RANGE_SIGMAS * max(float(a.std())
                                                    for a in fields)
        state = {
            "originals": {n: a.astype(np.float64)
                          for n, a in zip(VELOCITY, fields)},
            "store": store,
            "tolerances": [t * velocity_range for t in QOI_TAUS],
            "out_bytes": sum(int(a.nbytes) for a in fields),
            "values": sum(int(a.size) for a in fields),
        }
        return Setup(state, end - t0, end - t1, state["out_bytes"],
                     store.total_bytes())

    def warm_up(self, state: dict) -> None:
        service = RetrievalService(state["store"])
        try:
            service.retrieve_qoi(v_total(), state["tolerances"][0])
        finally:
            service.close()

    def run_pass(self, state: dict, tracer: Tracer,
                 idle: Callable[[], None] = lambda: None) -> PassResult:
        qoi = v_total()
        service = RetrievalService(_store(state["store"], tracer))
        result = PassResult(0.0, idle=idle)
        iterations = 0
        state_bytes = []
        start = time.perf_counter()
        try:
            for k, tol in enumerate(state["tolerances"]):
                t0 = time.perf_counter()
                try:
                    with tracer.span("step", new_step=True), \
                            _recording_reconstructors(tracer) as made:
                        out = service.retrieve_qoi(qoi, tol)
                except Exception as exc:  # counted, reported, not fatal
                    result.check(False, f"tau={tol:.3g}: raised {exc!r}")
                    continue
                ms = (time.perf_counter() - t0) * 1e3
                result.add(Step(ms, k == 0, state["out_bytes"],
                                state["values"], out.cold_bytes))
                iterations += out.iterations
                state_bytes.append(sum(r.decode_state_bytes() for r in made))
                actual = actual_qoi_error(qoi, state["originals"], out.values)
                result.check(
                    actual <= tol and actual <= out.estimated_error,
                    f"tau={tol:.3g}: actual QoI error {actual:.3g}, "
                    f"estimate {out.estimated_error:.3g}")
            result.counters.update(_cache_counters(service.stats()))
        finally:
            service.close()
        result.wall_s = time.perf_counter() - start
        result.counters["qoi.iterations"] = iterations
        if tracer.enabled:
            result.counters["decode_state_bytes"] = float(np.mean(state_bytes))
        return result


@contextmanager
def _recording_reconstructors(tracer: Tracer):
    """Collect the ``Reconstructor``s ``retrieve_qoi`` makes (traced only).

    ``retrieve_qoi`` keeps its per-variable reconstructors internal; the
    traced run swaps in a subclass that remembers them, so their
    retained decode state can be read after the call.
    """
    made: list[Reconstructor] = []
    if not tracer.enabled:
        yield made
        return

    class Recording(Reconstructor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    qoi_retrieval.Reconstructor = Recording
    try:
        yield made
    finally:
        qoi_retrieval.Reconstructor = Reconstructor


class RoiSessions:
    """Six sequential tiled ROI sessions over a slow store and one cache.

    A 96³ field stored as 16³ tiles, read through
    ``RetrievalService(FaultInjectingStore(store, latency_s=1 ms),
    cache_bytes=64 MiB)``. Each session walks a staircase over its
    half-extent region; regions overlap, so later sessions find part of
    their segments in the shared cache. The tiles sit in a
    ``MemoryStore``, so a read costs exactly the injected latency: on
    disk the ~3,500 segment files made set-up times swing by 20% run to
    run with the filesystem's load.
    """

    name = "roi_sessions"
    field_name = "grf"

    def setup(self, seed: int, workdir: Path) -> Setup:
        t0 = time.perf_counter()
        original = gaussian_random_field((EDGE,) * 3, seed=seed)
        t1 = time.perf_counter()
        tiled = TiledRefactorer((TILE,) * 3).refactor(
            original, name=self.field_name)
        store = MemoryStore()
        store_tiled_field(store, tiled)
        end = time.perf_counter()
        state = {
            "original": original.astype(np.float64),
            "store": store,
            "tolerances": [f * NOMINAL_RANGE_SIGMAS * float(original.std())
                           for f in ROI_STAIRCASE],
            "regions": roi_regions(seed),
        }
        return Setup(state, end - t0, end - t1, int(original.nbytes),
                     store.total_bytes())

    def warm_up(self, state: dict) -> None:
        service = RetrievalService(
            FaultInjectingStore(state["store"], latency_s=ROI_LATENCY_S),
            cache_bytes=ROI_CACHE_BYTES)
        try:
            with service.tiled_session(self.field_name) as session:
                session.reconstruct(state["tolerances"][0],
                                    region=state["regions"][0])
        finally:
            service.close()

    def run_pass(self, state: dict, tracer: Tracer,
                 idle: Callable[[], None] = lambda: None) -> PassResult:
        sleep = (tracer.wrap("core.faults.injected_wait", time.sleep)
                 if tracer.enabled else time.sleep)
        slow = FaultInjectingStore(_store(state["store"], tracer),
                                   latency_s=ROI_LATENCY_S, sleep=sleep)
        service = RetrievalService(slow, cache_bytes=ROI_CACHE_BYTES)
        result = PassResult(0.0, idle=idle)
        tiles = 0
        state_bytes = []
        start = time.perf_counter()
        try:
            for region in state["regions"]:
                tiles += self._session(state, service, region, result,
                                       tracer, state_bytes)
            stats = service.stats()
        finally:
            service.close()
        result.wall_s = time.perf_counter() - start
        result.counters.update(_cache_counters(stats))
        result.counters["tiles_touched"] = tiles
        if tracer.enabled:
            result.counters["decode_state_bytes"] = float(np.mean(state_bytes))
        return result

    def _session(self, state, service, region, result, tracer,
                 state_bytes) -> int:
        original = state["original"][region]
        out_bytes = int(original.size) * 4
        session = None
        try:
            for k, tol in enumerate(state["tolerances"]):
                misses = service.cache.stats()["miss_bytes"]
                t0 = time.perf_counter()
                try:
                    with tracer.span("step", new_step=True):
                        if session is None:
                            session = service.tiled_session(self.field_name)
                        out = session.reconstruct(tol, region=region)
                except Exception as exc:  # counted, reported, not fatal
                    result.check(False, f"{region} @ {tol:.3g}: raised {exc!r}")
                    continue
                ms = (time.perf_counter() - t0) * 1e3
                cold = service.cache.stats()["miss_bytes"] - misses
                result.add(Step(ms, k == 0, out_bytes, int(original.size),
                                cold))
                if tracer.enabled:
                    state_bytes.append(session.decode_state_bytes)
                data, bound = out
                err = _max_error(original, data)
                result.check(
                    err <= bound <= tol and not out.degraded,
                    f"{region} @ {tol:.3g}: error {err:.3g}, bound "
                    f"{bound:.3g}")
        finally:
            if session is not None:
                session.close()
        return session.tiles_touched if session is not None else 0


def roi_regions(seed: int) -> list[tuple[slice, slice, slice]]:
    """The six session regions of *seed* (see :data:`ROI_PATTERN`)."""
    rng = np.random.default_rng(seed)
    axes = rng.permutation(3)
    mirror = rng.integers(0, 2, size=3)
    order = rng.permutation(len(ROI_PATTERN))
    half = EDGE // 2
    regions = []
    for i in order:
        offsets = [ROI_PATTERN[i][a] for a in axes]
        offsets = [2 - k if m else k for k, m in zip(offsets, mirror)]
        regions.append(tuple(
            slice(TILE // 2 + TILE * k, TILE // 2 + TILE * k + half)
            for k in offsets))
    return regions


WORKLOADS = {w.name: w for w in (RefactorWrite(), QoIStaircase(),
                                 RoiSessions())}
