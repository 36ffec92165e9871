"""The multilevel decompose/recompose transform.

``MultilevelTransform`` is the Python counterpart of GPU-MGARD's
(re)decomposer: it turns an n-D field into hierarchical coefficients
stored corner-packed (coarse approximation in the corner block, details
around it), level by level, axis by axis. The transform is an exact
inverse pair up to floating-point round-off.

Two modes:

* ``"hierarchical"``: detail = value − linear interpolation of coarse
  neighbors. Reconstruction weights are nonnegative, so per-level L∞
  error weights are exact (see :mod:`repro.decompose.norms`).
* ``"mgard"``: additionally projects the residual onto the coarse space
  (L2 correction via tridiagonal mass solves), matching MGARD's better
  rate-distortion; error weights are rigorous but looser.
"""

from __future__ import annotations

import numpy as np

from repro.decompose import interpolation as interp
from repro.decompose.grid import LevelGeometry, num_levels_for_shape
from repro.util.validation import check_dtype_floating

_MODES = ("hierarchical", "mgard")


class MultilevelTransform:
    """Decompose/recompose fields on a fixed grid shape.

    Parameters
    ----------
    shape:
        Grid extents (1-, 2-, or 3-D; any positive sizes).
    num_levels:
        Halving steps; defaults to the deepest hierarchy keeping every
        dimension at least ``min_size`` nodes.
    mode:
        ``"hierarchical"`` or ``"mgard"`` (see module docstring).
    min_size:
        Dimensions stop halving once below ``2 * min_size``.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        num_levels: int | None = None,
        mode: str = "hierarchical",
        min_size: int = 4,
    ) -> None:
        shape = tuple(int(s) for s in shape)
        if not shape or any(s < 1 for s in shape):
            raise ValueError(f"invalid shape {shape}")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if num_levels is None:
            num_levels = num_levels_for_shape(shape, min_size)
        self.geometry = LevelGeometry(shape, num_levels, min_size)
        self.mode = mode
        self._level_indices: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Public geometry accessors
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.geometry.shape

    @property
    def num_levels(self) -> int:
        return self.geometry.num_levels

    @property
    def num_coefficient_sets(self) -> int:
        """Number of per-level coefficient groups (num_levels + 1)."""
        return self.geometry.num_levels + 1

    def level_indices(self) -> list[np.ndarray]:
        """Cached flat indices for each level's coefficients."""
        if self._level_indices is None:
            self._level_indices = self.geometry.level_indices()
        return self._level_indices

    def level_sizes(self) -> list[int]:
        return [idx.size for idx in self.level_indices()]

    # ------------------------------------------------------------------
    # Core transform
    # ------------------------------------------------------------------
    def decompose(self, data: np.ndarray) -> np.ndarray:
        """Forward transform: field → corner-packed coefficients."""
        coeffs = self._prepare(data)
        shapes = self.geometry.corner_shapes()
        for step in range(self.num_levels):
            block = coeffs[tuple(slice(0, s) for s in shapes[step])]
            self._decompose_level(block, step)
        return coeffs

    def recompose(
        self, coeffs: np.ndarray, *, overwrite: bool = False
    ) -> np.ndarray:
        """Inverse transform: corner-packed coefficients → field.

        ``overwrite=True`` lets the transform work directly in *coeffs*
        (which must then be an owned, writeable float64 C-array — e.g.
        fresh from :meth:`assemble_levels`), skipping the defensive
        copy; the per-step hot path of progressive reconstruction uses
        this.
        """
        if (
            overwrite
            and isinstance(coeffs, np.ndarray)
            and coeffs.dtype == np.float64
            and coeffs.shape == self.shape
            and coeffs.flags.c_contiguous
            and coeffs.flags.writeable
        ):
            data = coeffs
        else:
            data = self._prepare(coeffs)
        shapes = self.geometry.corner_shapes()
        for step in range(self.num_levels - 1, -1, -1):
            block = data[tuple(slice(0, s) for s in shapes[step])]
            self._recompose_level(block, step, absolute=False)
        return data

    def recompose_absolute(self, coeffs: np.ndarray) -> np.ndarray:
        """Recompose with entrywise-absolute operators.

        Feeding per-coefficient error magnitudes through this yields a
        rigorous pointwise bound on the reconstruction error — the basis
        of the retrieval planner's guarantee.
        """
        data = self._prepare(coeffs)
        # Written so NaN fails too (``NaN < 0`` is False); +inf passes.
        if not np.all(data >= 0):
            raise ValueError(
                "absolute recompose expects nonnegative, non-NaN input"
            )
        shapes = self.geometry.corner_shapes()
        for step in range(self.num_levels - 1, -1, -1):
            block = data[tuple(slice(0, s) for s in shapes[step])]
            self._recompose_level(block, step, absolute=True)
        return data

    # ------------------------------------------------------------------
    # Level extraction / assembly
    # ------------------------------------------------------------------
    def extract_levels(self, coeffs: np.ndarray) -> list[np.ndarray]:
        """Split a coefficient array into per-level 1-D arrays.

        Entry 0 is the coarsest set; entry ``num_levels`` the finest
        details. Ordering within each level is deterministic C-order.
        """
        flat = coeffs.reshape(-1)
        return [flat[idx].copy() for idx in self.level_indices()]

    def assemble_levels(self, levels: list[np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`extract_levels`."""
        indices = self.level_indices()
        if len(levels) != len(indices):
            raise ValueError(
                f"expected {len(indices)} level arrays, got {len(levels)}"
            )
        dtype = np.result_type(*[lv.dtype for lv in levels])
        out = np.zeros(self.shape, dtype=dtype)
        flat = out.reshape(-1)
        for idx, values in zip(indices, levels):
            if values.size != idx.size:
                raise ValueError(
                    f"level size mismatch: expected {idx.size}, "
                    f"got {values.size}"
                )
            flat[idx] = values
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prepare(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data)
        check_dtype_floating(data)
        if data.shape != self.shape:
            raise ValueError(
                f"data shape {data.shape} does not match transform shape "
                f"{self.shape}"
            )
        # Work in float64 for transform accuracy; callers round-trip
        # through the original dtype at the pipeline boundary.
        return np.array(data, dtype=np.float64, copy=True)

    def _decompose_level(self, block: np.ndarray, step: int) -> None:
        for axis in self.geometry.halved_axes(step):
            self._decompose_axis(block, axis)

    def _recompose_level(
        self, block: np.ndarray, step: int, absolute: bool
    ) -> None:
        for axis in reversed(self.geometry.halved_axes(step)):
            self._recompose_axis(block, axis, absolute)

    def _decompose_axis(self, block: np.ndarray, axis: int) -> None:
        v = np.moveaxis(block, axis, 0)
        n = v.shape[0]
        even, odd = interp.split_even_odd(v)
        pred = interp.predict_odd(even, n)
        detail = odd - pred
        coarse = even.copy()
        if self.mode == "mgard" and detail.shape[0] > 0:
            coarse += interp.correction_from_detail(detail, n)
        m = coarse.shape[0]
        v[:m] = coarse
        v[m:] = detail

    def _recompose_axis(
        self, block: np.ndarray, axis: int, absolute: bool
    ) -> None:
        v = np.moveaxis(block, axis, 0)
        n = v.shape[0]
        m = (n + 1) // 2
        # Only the even half needs a defensive copy: the detail half is
        # fully consumed into `odd` before any write below touches `v`,
        # and the interleaved writes land on disjoint index sets. Saves
        # one full-block temporary plus the merge/writeback pass of the
        # previous out-of-place formulation; identical arithmetic order,
        # so the output is bit-for-bit unchanged.
        even = v[:m].copy()
        detail = v[m:]
        if self.mode == "mgard" and detail.shape[0] > 0:
            if absolute:
                even += interp.abs_correction_from_detail(detail, n)
            else:
                even -= interp.correction_from_detail(detail, n)
        odd = interp.predict_odd(even, n)
        odd += detail
        v[1::2] = odd
        v[0::2] = even
