"""Per-level error weights and the L∞ composition rule.

The retrieval planner needs ``|u - û|∞ ≤ Σ_ℓ w_ℓ · e_ℓ`` where ``e_ℓ``
bounds the per-coefficient error of level ℓ (from dropped bitplanes) and
``w_ℓ`` is the worst-case amplification of a level-ℓ coefficient
perturbation through recomposition.

Because :meth:`MultilevelTransform.recompose_absolute` applies the exact
entrywise-absolute reconstruction operators, feeding it an indicator of
level ℓ yields the *exact* operator ∞-norm for the hierarchical mode and
a rigorous upper bound for the MGARD mode.

Only one recompose step of that response matters. Levels coarser than
ℓ are zero, so every step before level ℓ's detail step leaves zeros;
every step after it adds zero detail and a zero MGARD correction and
only interpolates, with nonnegative weights summing to one. In floating
point ``0.5·fl(a+b) ≤ max(a, b)`` for ``a, b ≥ 0`` and the coarse nodes
are copied through unchanged, so the maximum is fixed once level ℓ's
step has run: :func:`level_error_weights` runs just that step on the
level's corner block, bit-identical to the full recompose. Weights
depend only on the geometry and mode, and are memoized per
``(geometry, mode)`` so repeated refactors of one shape pay once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.decompose.grid import LevelGeometry
from repro.decompose.transform import MultilevelTransform


def level_error_weights(transform: MultilevelTransform) -> list[float]:
    """Worst-case L∞ amplification per coefficient level.

    ``weights[ℓ]`` multiplies the uniform coefficient-error bound of level
    ℓ in the composition rule: the maximum of the absolute recomposition
    of a ones-indicator of level ℓ (see the module docstring for why one
    step of it suffices).
    """
    return list(_level_error_weights(transform.geometry, transform.mode))


@lru_cache(maxsize=64)
def _level_error_weights(
    geometry: LevelGeometry, mode: str
) -> tuple[float, ...]:
    transform = MultilevelTransform(
        geometry.shape, geometry.num_levels, mode, geometry.min_size
    )
    shapes = geometry.corner_shapes()
    levels = geometry.num_levels
    weights = [1.0]  # level 0: its ones are copied through every step
    for level in range(1, levels + 1):
        step = levels - level
        block = np.ones(shapes[step], dtype=np.float64)
        block[tuple(slice(0, s) for s in shapes[step + 1])] = 0.0
        transform._recompose_level(block, step, absolute=True)
        weights.append(float(np.max(block)))
    return tuple(weights)


def _check_level_errors(level_errors: list[float], expected: int) -> None:
    if len(level_errors) != expected:
        raise ValueError(
            f"expected {expected} level errors, got {len(level_errors)}"
        )
    if not all(e >= 0 for e in level_errors):
        raise ValueError(
            "level errors must be nonnegative (inf allowed), got "
            f"{[e for e in level_errors if not e >= 0]}"
        )


def compose_error_bound(
    transform: MultilevelTransform, level_errors: list[float]
) -> float:
    """Rigorous L∞ reconstruction-error bound from per-level bounds."""
    weights = level_error_weights(transform)
    _check_level_errors(level_errors, len(weights))
    return float(sum(w * e for w, e in zip(weights, level_errors)))


def pointwise_error_bound(
    transform: MultilevelTransform, level_errors: list[float]
) -> np.ndarray:
    """Pointwise (per-grid-node) reconstruction-error bound.

    Sharper than :func:`compose_error_bound` where coefficient influence
    is uneven; used by QoI error estimation, which needs spatial bounds.
    """
    sizes = transform.level_sizes()
    _check_level_errors(level_errors, len(sizes))
    mags = [
        np.full(sz, err, dtype=np.float64)
        for sz, err in zip(sizes, level_errors)
    ]
    coeffs = transform.assemble_levels(mags)
    return transform.recompose_absolute(coeffs)
