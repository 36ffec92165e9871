"""One retrieval-step shape: plan → fetch chain → decode → commit.

Every step reads the store only in its fetch chain (levels ascending,
groups ascending, stopping at the first fault) and decodes only
memoized segments. So a parallel decode backend reads exactly the keys
the serial path reads, the same number of times, and seeded fault
schedules (drawn per key access) replay identically. These tests pin
that rule with an explicit ``threads:2`` backend, plus the service's
prefetch-pool sizing and the shared ``on_fault`` validation.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.backends import BACKEND_ENV
from repro.core.faults import FaultInjectingStore
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import refactor
from repro.core.service import RetrievalService
from repro.core.store import (
    MemoryStore,
    open_field,
    open_tiled_field,
    store_field,
    store_tiled_field,
)
from repro.core.tiling import TiledReconstructor, TiledRefactorer
from repro.data import generators as gen
from repro.pipeline.retrieval import RetrievalPipeline, pipelined_reconstruct
from repro.util.validation import check_on_fault

STAIRCASE = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3, None]
ROI = (slice(2, 22), slice(0, 18), None)


@pytest.fixture(scope="module")
def data():
    return gen.gaussian_random_field((24, 24, 24), -2.0, seed=41,
                                     dtype=np.float32)


@pytest.fixture(scope="module")
def stored_field(data):
    store = MemoryStore()
    store_field(store, refactor(data, name="vx"))
    return store


@pytest.fixture(scope="module")
def stored_tiled(data):
    store = MemoryStore()
    store_tiled_field(
        store, TiledRefactorer((12, 12, 12)).refactor(data, name="rho")
    )
    return store


class SpyStore:
    """Read-only store wrapper logging every ``get`` key, in order."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self.log: list[str] = []

    def get(self, key: str) -> bytes:
        with self._lock:
            self.log.append(key)
        return self._inner.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._inner

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


class DecodeReads:
    """Keys of its own field each ``decode_step`` call read from *spy*.

    Concurrent tiles fetch their own keys while another tile decodes,
    so a call is charged only with reads of keys its field owns.
    """

    def __init__(self) -> None:
        self.spy: SpyStore | None = None
        self.calls: list[list[str]] = []

    def wrap(self, decode_step):
        def spied(recon, step, *args, **kwargs):
            own = {ref.key for lv in recon.field.levels for ref in lv.refs}
            start = len(self.spy.log)
            try:
                return decode_step(recon, step, *args, **kwargs)
            finally:
                self.calls.append(
                    [k for k in self.spy.log[start:] if k in own]
                )

        return spied

    def clean(self) -> bool:
        return bool(self.calls) and not any(self.calls)


@pytest.fixture
def decode_reads(monkeypatch):
    reads = DecodeReads()
    monkeypatch.setattr(Reconstructor, "decode_step",
                        reads.wrap(Reconstructor.decode_step))
    return reads


def _flaky(store, seed, reads):
    """Fault layer starting clean (index reads), a spy in front of it."""
    flaky = FaultInjectingStore(store, transient_rate=0.0, seed=seed)
    reads.spy = SpyStore(flaky)
    return flaky, reads.spy


def _counts(flaky, spy):
    return {key: flaky.access_count(key) for key in set(spy.log)}


def _untiled_staircase(store, seed, reads, backend, pipelined=False):
    flaky, spy = _flaky(store, seed, reads)
    recon = Reconstructor(open_field(spy, "vx"), backend=backend)
    pipe = RetrievalPipeline(window=2, fetch_workers=2)
    flaky.transient_rate = 0.3
    steps = []
    for tol in STAIRCASE:
        if pipelined:
            res = pipelined_reconstruct(recon, pipe, tolerance=tol,
                                        on_fault="degrade")
        else:
            res = recon.reconstruct(tolerance=tol, on_fault="degrade")
        steps.append((res.data.copy(), res.degraded, res.failed_groups,
                      res.cold_bytes, res.error_bound))
    flaky.transient_rate = 0.0
    final = recon.reconstruct()
    steps.append((final.data.copy(), final.degraded, final.failed_groups,
                  final.cold_bytes, final.error_bound))
    pipe.close()
    recon.close()
    return steps, _counts(flaky, spy)


def _tiled_staircase(store, seed, reads, backend):
    flaky, spy = _flaky(store, seed, reads)
    recon = TiledReconstructor(open_tiled_field(spy, "rho"),
                               num_workers=2, backend=backend)
    flaky.transient_rate = 0.25
    steps = []
    for tol in STAIRCASE:
        res = recon.reconstruct(tolerance=tol, region=ROI,
                                on_fault="degrade")
        steps.append((res.data.copy(), res.error_bound, res.degraded,
                      res.failed_tiles, res.failed_groups))
    flaky.transient_rate = 0.0
    final = recon.reconstruct(region=ROI)
    steps.append((final.data.copy(), final.error_bound, final.degraded,
                  final.failed_tiles, final.failed_groups))
    cold = recon.aggregate_io_counters().cold_bytes
    recon.close()
    return steps, _counts(flaky, spy), cold


def _assert_same_steps(ref, got):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        assert np.array_equal(a[0], b[0])
        assert a[1:] == b[1:]


class TestFetchChainRule:
    @pytest.mark.parametrize("seed", [2, 7])
    def test_untiled_threads_replays_serial_fault_schedule(
        self, stored_field, decode_reads, seed
    ):
        ref, ref_counts = _untiled_staircase(stored_field, seed,
                                             decode_reads, "serial")
        got, got_counts = _untiled_staircase(stored_field, seed,
                                             decode_reads, "threads:2")
        assert any(step[1] for step in ref), "no step degraded"
        _assert_same_steps(ref, got)
        assert got_counts == ref_counts
        assert decode_reads.clean()

    @pytest.mark.parametrize("seed", [2, 7])
    def test_pipelined_untiled_replays_serial_fault_schedule(
        self, stored_field, seed
    ):
        # The window's fetch stage runs during decode_step here, on the
        # pipeline's fetch threads, so only the schedule is compared.
        ref, ref_counts = _untiled_staircase(stored_field, seed,
                                             DecodeReads(), "serial")
        got, got_counts = _untiled_staircase(
            stored_field, seed, DecodeReads(), "threads:2", pipelined=True
        )
        _assert_same_steps(ref, got)
        assert got_counts == ref_counts

    @pytest.mark.parametrize("seed", [4, 13])
    def test_tiled_threads_replays_serial_fault_schedule(
        self, stored_tiled, decode_reads, seed
    ):
        ref, ref_counts, ref_cold = _tiled_staircase(
            stored_tiled, seed, decode_reads, "serial"
        )
        got, got_counts, got_cold = _tiled_staircase(
            stored_tiled, seed, decode_reads, "threads:2"
        )
        assert any(step[2] for step in ref), "no step degraded"
        _assert_same_steps(ref, got)
        assert got_counts == ref_counts
        assert got_cold == ref_cold
        assert decode_reads.clean()


class TestPrefetchPoolSize:
    def test_pool_has_num_workers_threads_under_threads_backend(
        self, stored_field, monkeypatch
    ):
        monkeypatch.setenv(BACKEND_ENV, "threads:2")
        svc = RetrievalService(stored_field, prefetch=True, num_workers=1)
        assert svc._worker_pool()._max_workers == 1
        # The only worker busy: both queued warms stay cancellable.
        gate = threading.Event()
        blocker = svc._worker_pool().submit(gate.wait)
        svc._enqueue_prefetch(["vx/a", "vx/b"])
        cancelled = svc.cancel_stale_prefetches(["vx/a", "vx/b"])
        gate.set()
        blocker.result()
        assert cancelled == 2
        svc.close()


class TestOnFaultValidation:
    def test_helper_accepts_policies_and_rejects_junk(self):
        assert check_on_fault("raise") == "raise"
        assert check_on_fault("degrade") == "degrade"
        with pytest.raises(ValueError, match="'raise' or 'degrade'"):
            check_on_fault("ignore")

    def test_entry_points_reject_before_touching_the_store(
        self, stored_field, stored_tiled
    ):
        spy = SpyStore(stored_field)
        recon = Reconstructor(open_field(spy, "vx"))
        svc = RetrievalService(spy)
        session = svc.session("vx", pipelined=True)
        before = len(spy.log)
        with RetrievalPipeline() as pipe:
            for call in (
                lambda: recon.reconstruct(tolerance=1e-2, on_fault="x"),
                lambda: pipelined_reconstruct(recon, pipe, 1e-2,
                                              on_fault="x"),
                lambda: session.reconstruct(tolerance=1e-2, on_fault="x"),
            ):
                with pytest.raises(ValueError, match="on_fault"):
                    call()
        tiled_spy = SpyStore(stored_tiled)
        tiled = TiledReconstructor(open_tiled_field(tiled_spy, "rho"))
        tiled_before = len(tiled_spy.log)
        with pytest.raises(ValueError, match="on_fault"):
            tiled.reconstruct(tolerance=1e-2, on_fault="x")
        assert len(spy.log) == before
        assert len(tiled_spy.log) == tiled_before
        tiled.close()
        svc.close()


class TestSessionStaleCancel:
    """A windowed session step cancels what the session queued last."""

    @pytest.mark.parametrize("kind", ["session", "tiled_session"])
    def test_windowed_step_cancels_last_steps_warms(
        self, stored_field, stored_tiled, kind
    ):
        store, name, kwargs = (
            (stored_field, "vx", {}) if kind == "session"
            else (stored_tiled, "rho", {"region": ROI})
        )
        svc = RetrievalService(store, prefetch=True, num_workers=1)
        session = getattr(svc, kind)(name, backend="serial",
                                     pipelined=True)
        # The only prefetch worker busy: every queued warm stays queued.
        gate = threading.Event()
        blocker = svc._worker_pool().submit(gate.wait)
        try:
            session.reconstruct(tolerance=1e-1, **kwargs)
            queued = len(session._queued_prefetch)
            assert queued > 0
            # A rejected call touches nothing, queued warms included.
            with pytest.raises(ValueError, match="on_fault"):
                session.reconstruct(tolerance=1e-2, on_fault="x",
                                    **kwargs)
            assert svc.stats()["prefetch_cancelled"] == 0
            session.reconstruct(tolerance=1e-2, **kwargs)
            assert svc.stats()["prefetch_cancelled"] == queued
        finally:
            gate.set()
            blocker.result()
            svc.close()


def test_core_runs_without_networkx(tmp_path):
    """The retrieval runtime needs no optional dependency: with networkx
    unimportable, sessions and tiled reconstructors still build and run
    pipelined steps."""
    script = tmp_path / "no_networkx.py"
    script.write_text(
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import numpy as np\n"
        "from repro.core.refactor import refactor\n"
        "from repro.core.service import RetrievalService\n"
        "from repro.core.store import (MemoryStore, open_tiled_field,\n"
        "    store_field, store_tiled_field)\n"
        "from repro.core.tiling import TiledReconstructor, TiledRefactorer\n"
        "data = np.random.default_rng(0).random((16, 16, 16))\n"
        "store = MemoryStore()\n"
        "store_field(store, refactor(data, name='vx'))\n"
        "store_tiled_field(store,\n"
        "    TiledRefactorer((8, 8, 8)).refactor(data, name='rho'))\n"
        "recon = TiledReconstructor(open_tiled_field(store, 'rho'),\n"
        "                           pipelined=True)\n"
        "recon.reconstruct(tolerance=1e-2)\n"
        "recon.close()\n"
        "with RetrievalService(store) as svc:\n"
        "    svc.session('vx', pipelined=True).reconstruct(tolerance=1e-2)\n"
        "    svc.tiled_session('rho', pipelined=True).reconstruct(\n"
        "        tolerance=1e-2)\n"
        "assert 'repro.pipeline.dag' not in sys.modules\n"
        "print('ok')\n"
    )
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.pop(BACKEND_ENV, None)
    out = subprocess.run([sys.executable, str(script)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
