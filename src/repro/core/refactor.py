"""Data refactoring: field → portable multi-precision stream (Figure 1).

The :class:`Refactorer` runs the forward pipeline — multilevel
decomposition, per-level exponent-aligned bitplane encoding with the
selected parallelization design, and hybrid lossless compression of the
plane groups — and emits a :class:`~repro.core.stream.RefactoredField`.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field

import numpy as np

from repro.bitplane.align import MAX_BITPLANES
from repro.bitplane.encoding import DESIGNS, encode_bitplanes
from repro.core._pool import WorkerPoolMixin
from repro.core.backends import parse_backend_spec, task_name, worker_shared
from repro.core.stream import LevelStream, RefactoredField
from repro.decompose import MultilevelTransform
from repro.decompose.norms import level_error_weights
from repro.lossless.hybrid import HybridConfig, compress_planes
from repro.util.validation import check_dtype_floating


def default_bitplanes(dtype: np.dtype) -> int:
    """Paper default: 32 planes for FP32; deeper for FP64 (mantissa-bound)."""
    return 32 if np.dtype(dtype) == np.float32 else min(52, MAX_BITPLANES)


@dataclass(frozen=True)
class RefactorConfig:
    """All tuning knobs of the refactoring pipeline in one place."""

    num_bitplanes: int | None = None  # None = dtype default
    num_levels: int | None = None  # None = deepest hierarchy
    mode: str = "hierarchical"
    min_size: int = 4
    design: str = "register_block"
    warp_size: int = 32
    signed_encoding: str = "sign_magnitude"
    hybrid: HybridConfig = field(default_factory=HybridConfig)
    #: Levels encoded/decoded concurrently when > 1 (NumPy releases the
    #: GIL on the big kernels); 0 or 1 keeps the pipeline serial.
    num_workers: int = 0
    #: Execution backend override: ``"serial"``/``"threads"``/
    #: ``"processes"`` (optionally ``":N"``). ``None`` defers to the
    #: ``REPRO_BACKEND`` environment variable and then ``num_workers``
    #: (see :mod:`repro.core.backends`).
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.design not in DESIGNS:
            raise ValueError(
                f"design must be one of {DESIGNS}, got {self.design!r}"
            )
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.backend is not None:
            parse_backend_spec(self.backend)  # validates, raises on junk
        if self.num_bitplanes is not None and not (
            1 <= self.num_bitplanes <= MAX_BITPLANES
        ):
            raise ValueError(
                f"num_bitplanes must be in [1, {MAX_BITPLANES}]"
            )
        if self.signed_encoding not in ("sign_magnitude", "negabinary"):
            raise ValueError(
                "signed_encoding must be sign_magnitude or negabinary, "
                f"got {self.signed_encoding!r}"
            )


def _encode_level_stream(
    config: RefactorConfig,
    lev: int,
    coeff: np.ndarray,
    num_bitplanes: int,
    pool=None,
) -> LevelStream:
    """Encode one coefficient level (one worker's unit of work).

    Module-level so the thread backend's closures and the process
    backend's task run the *same* code — the byte-identity contract of
    the cross-backend differential suite is structural, not tested-in.

    ``pool`` fans the level's independent plane-group compressions out
    across a thread pool; it must only be passed when the level loop
    itself is serial (nesting pool tasks inside pool tasks can deadlock
    a saturated thread pool).
    """
    stream = encode_bitplanes(
        coeff,
        num_bitplanes=num_bitplanes,
        design=config.design,
        warp_size=config.warp_size,
        signed_encoding=config.signed_encoding,
    )
    groups = compress_planes(stream.planes, config.hybrid, pool=pool)
    return LevelStream(
        level=lev,
        num_elements=stream.num_elements,
        num_bitplanes=stream.num_bitplanes,
        exponent=stream.exponent,
        max_abs=stream.max_abs,
        layout=stream.layout,
        warp_size=stream.warp_size,
        groups=groups,
        signed_encoding=stream.signed_encoding,
    )


def _task_encode_level(state, token, lev, coeff, num_bitplanes):
    """Process-backend task: encode one level with the shipped config."""
    return _encode_level_stream(
        worker_shared(state, token), lev, coeff, num_bitplanes
    )


class Refactorer(WorkerPoolMixin):
    """Refactor float fields into progressive multi-precision streams.

    A single instance is reusable across fields of the same shape (the
    transform geometry, error weights, and — with ``num_workers > 1`` —
    the worker pool are all shared across calls). The execution backend
    (serial loop, thread pool, or worker processes) comes from
    ``config.backend`` / ``REPRO_BACKEND`` / ``config.num_workers``;
    under the process backend the config is pickled to each worker once
    and per-level encodes run truly parallel.

    Construction computes the level error weights stored with every
    field. Each weight needs only one level step, not a full recompose:
    once level ℓ's detail step has run, every finer step adds zero
    detail and only interpolates with nonnegative weights summing to
    one, so the response's maximum is already fixed (see
    :mod:`repro.decompose.norms`). The weights are memoized per
    ``(geometry, mode)``, so the per-field ``refactor()`` wrapper — one
    new instance per variable and time step — pays for them once per
    grid shape.
    """

    def __init__(
        self, shape: tuple[int, ...], config: RefactorConfig | None = None
    ) -> None:
        self.config = config or RefactorConfig()
        self.backend = self.config.backend
        self.transform = MultilevelTransform(
            shape,
            num_levels=self.config.num_levels,
            mode=self.config.mode,
            min_size=self.config.min_size,
        )
        self._weights = level_error_weights(self.transform)
        # Unique per instance: the shared-object token under which this
        # config is shipped (once per worker) to the process backend. A
        # fresh UUID — not id(self) — so a recycled object id can never
        # alias a *different* config already resident in a worker.
        self._config_token = f"refactor-config:{uuid.uuid4().hex}"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.transform.shape

    def _pool_size(self) -> int:
        return self.config.num_workers

    def _encode_level(
        self, lev: int, coeff: np.ndarray, num_bitplanes: int,
        pool=None,
    ) -> LevelStream:
        """Encode one coefficient level — see :func:`_encode_level_stream`."""
        return _encode_level_stream(
            self.config, lev, coeff, num_bitplanes, pool=pool
        )

    def _encode_levels_processes(
        self, jobs: list[tuple[int, np.ndarray]], num_bitplanes: int
    ) -> list[LevelStream]:
        """Fan per-level encodes out across the process backend.

        The config travels once per worker (``ensure_shared``); each
        call ships only its level's coefficient array and gets the
        encoded :class:`LevelStream` back.
        """
        backend = self._process_backend()
        backend.ensure_shared(self._config_token, self.config)
        encode = task_name(_task_encode_level)
        return backend.map_calls([
            (encode, (self._config_token, lev, coeff, num_bitplanes), None)
            for lev, coeff in jobs
        ])

    def refactor(self, data: np.ndarray, name: str = "var") -> RefactoredField:
        """Run the forward pipeline on *data*."""
        data = np.asarray(data)
        check_dtype_floating(data)
        if data.shape != self.shape:
            raise ValueError(
                f"data shape {data.shape} != refactorer shape {self.shape}"
            )
        num_bitplanes = self.config.num_bitplanes or default_bitplanes(
            data.dtype
        )
        coeffs = self.transform.decompose(data)
        level_arrays = self.transform.extract_levels(coeffs)

        def encode_one(job: tuple[int, np.ndarray]) -> LevelStream:
            return self._encode_level(job[0], job[1], num_bitplanes)

        jobs = list(enumerate(level_arrays))
        spec = self._backend_spec()
        if len(jobs) > 1 and spec.kind == "processes" and spec.workers > 1:
            # True parallelism: per-level encodes run in worker
            # processes (the config shipped once per worker).
            levels = self._encode_levels_processes(jobs, num_bitplanes)
        elif len(jobs) > 1:
            # Levels are independent; the transpose/codec kernels release
            # the GIL, so a thread pool overlaps them across cores. The
            # per-level group compression stays serial here — nesting
            # group tasks inside level tasks on the same pool could
            # deadlock it (ThreadPoolExecutor does not steal work).
            # reprolint: disable=R3 -- threads-only branch: the processes case above ships module-level tasks instead
            levels = self.map_jobs(encode_one, jobs)
        elif spec.kind == "threads" and spec.workers > 1:
            # Single level: push the pool one layer down instead, so the
            # level's independent plane groups compress concurrently.
            levels = [
                self._encode_level(
                    job[0], job[1], num_bitplanes, pool=self._worker_pool()
                )
                for job in jobs
            ]
        else:
            levels = [encode_one(job) for job in jobs]
        value_range = (
            float(np.max(data) - np.min(data)) if data.size else 0.0
        )
        return RefactoredField(
            shape=self.shape,
            dtype=data.dtype,
            mode=self.config.mode,
            num_levels=self.transform.num_levels,
            min_size=self.config.min_size,
            group_size=self.config.hybrid.group_size,
            design=self.config.design,
            level_weights=list(self._weights),
            levels=levels,
            value_range=value_range,
            name=name,
        )


def refactor(
    data: np.ndarray,
    config: RefactorConfig | None = None,
    name: str = "var",
) -> RefactoredField:
    """One-shot convenience wrapper around :class:`Refactorer`."""
    return Refactorer(np.asarray(data).shape, config).refactor(data, name)
