"""Tests for the multilevel decomposition substrate."""

import numpy as np
import pytest

from repro.decompose import (
    LevelGeometry,
    MultilevelTransform,
    coarse_size,
    compose_error_bound,
    level_error_weights,
    num_levels_for_shape,
)
from repro.decompose.norms import pointwise_error_bound


class TestGrid:
    def test_coarse_size(self):
        assert coarse_size(9) == 5
        assert coarse_size(8) == 4
        assert coarse_size(2) == 1
        assert coarse_size(1) == 1

    def test_coarse_size_rejects_zero(self):
        with pytest.raises(ValueError):
            coarse_size(0)

    def test_num_levels_dyadic(self):
        assert num_levels_for_shape((64,), min_size=4) == 4
        assert num_levels_for_shape((65,), min_size=4) == 4

    def test_num_levels_small_shape(self):
        assert num_levels_for_shape((5,), min_size=4) == 0

    def test_level_geometry_corner_shapes(self):
        geo = LevelGeometry((16, 16), 2)
        assert geo.corner_shapes() == [(16, 16), (8, 8), (4, 4)]

    def test_level_geometry_nondyadic(self):
        geo = LevelGeometry((17, 10), 1)
        assert geo.corner_shapes() == [(17, 10), (9, 5)]

    def test_too_many_levels_rejected(self):
        with pytest.raises(ValueError):
            LevelGeometry((8,), 5)

    def test_level_indices_partition(self):
        geo = LevelGeometry((16, 16), 2)
        indices = geo.level_indices()
        combined = np.concatenate(indices)
        assert combined.size == 16 * 16
        assert np.unique(combined).size == 16 * 16

    def test_level_sizes_sum(self):
        geo = LevelGeometry((16, 8, 8), 1)
        assert sum(geo.level_sizes()) == 16 * 8 * 8

    def test_axes_stop_halving_below_threshold(self):
        geo = LevelGeometry((32, 6), 2, min_size=4)
        # The size-6 axis (< 2*min_size) must never halve.
        assert geo.corner_shapes() == [(32, 6), (16, 6), (8, 6)]
        assert geo.halved_axes(0) == [0]


def fields(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape)


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ["hierarchical", "mgard"])
    @pytest.mark.parametrize(
        "shape", [(33,), (32,), (17, 12), (16, 16), (9, 8, 11), (16, 16, 16)]
    )
    def test_exact_inverse(self, mode, shape):
        t = MultilevelTransform(shape, mode=mode)
        u = fields(shape)
        rec = t.recompose(t.decompose(u))
        np.testing.assert_allclose(rec, u, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("mode", ["hierarchical", "mgard"])
    def test_float32_input_roundtrip(self, mode):
        t = MultilevelTransform((16, 16), mode=mode)
        u = fields((16, 16)).astype(np.float32)
        rec = t.recompose(t.decompose(u))
        np.testing.assert_allclose(rec, u, rtol=0, atol=1e-5)

    def test_zero_levels_is_identity(self):
        t = MultilevelTransform((8, 8), num_levels=0)
        u = fields((8, 8))
        np.testing.assert_array_equal(t.decompose(u), u)

    def test_shape_mismatch_raises(self):
        t = MultilevelTransform((8, 8))
        with pytest.raises(ValueError):
            t.decompose(fields((8, 9)))

    def test_integer_input_rejected(self):
        t = MultilevelTransform((8, 8))
        with pytest.raises(TypeError):
            t.decompose(np.zeros((8, 8), dtype=np.int32))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            MultilevelTransform((8, 8), mode="wavelet")


class TestCoefficientStructure:
    def test_constant_field_has_zero_details(self):
        t = MultilevelTransform((17, 17), mode="hierarchical")
        coeffs = t.decompose(np.full((17, 17), 3.25))
        levels = t.extract_levels(coeffs)
        for detail in levels[1:]:
            np.testing.assert_allclose(detail, 0.0, atol=1e-12)
        np.testing.assert_allclose(levels[0], 3.25)

    def test_linear_field_has_zero_interior_details(self):
        # Linear functions are reproduced exactly by linear interpolation
        # on odd-size grids (every odd node has both neighbors).
        t = MultilevelTransform((33,), mode="hierarchical")
        u = np.linspace(0.0, 1.0, 33)
        levels = t.extract_levels(t.decompose(u))
        for detail in levels[1:]:
            np.testing.assert_allclose(detail, 0.0, atol=1e-12)

    def test_extract_assemble_roundtrip(self):
        t = MultilevelTransform((16, 12))
        coeffs = t.decompose(fields((16, 12)))
        levels = t.extract_levels(coeffs)
        back = t.assemble_levels(levels)
        np.testing.assert_array_equal(back, coeffs)

    def test_assemble_rejects_wrong_sizes(self):
        t = MultilevelTransform((16, 12))
        levels = [np.zeros(s) for s in t.level_sizes()]
        levels[0] = np.zeros(levels[0].size + 1)
        with pytest.raises(ValueError):
            t.assemble_levels(levels)

    def test_mgard_details_smaller_on_smooth_field(self):
        # The L2 correction should not hurt detail magnitudes much, and
        # truncation error should be comparable or better for smooth data.
        shape = (65,)
        x = np.linspace(0, 4 * np.pi, shape[0])
        u = np.sin(x)
        for mode in ("hierarchical", "mgard"):
            t = MultilevelTransform(shape, mode=mode)
            levels = t.extract_levels(t.decompose(u))
            # Detail magnitudes must decay from coarse to fine levels for
            # smooth data (second-order interpolation error).
            assert np.max(np.abs(levels[-1])) < np.max(np.abs(levels[1]))


class TestErrorWeights:
    @pytest.mark.parametrize("mode", ["hierarchical", "mgard"])
    def test_weights_positive(self, mode):
        t = MultilevelTransform((17, 17), mode=mode)
        w = level_error_weights(t)
        assert len(w) == t.num_coefficient_sets
        assert all(x >= 1.0 - 1e-12 for x in w)

    def test_hierarchical_weights_cached(self):
        t = MultilevelTransform((16, 16))
        assert level_error_weights(t) == level_error_weights(t)

    @pytest.mark.parametrize("mode", ["hierarchical", "mgard"])
    @pytest.mark.parametrize("shape", [(33,), (16, 16), (9, 10, 11)])
    def test_bound_holds_for_random_coefficient_noise(self, mode, shape):
        """The core guarantee: perturbing coefficients within per-level
        bounds never moves the reconstruction by more than the composed
        bound."""
        rng = np.random.default_rng(42)
        t = MultilevelTransform(shape, mode=mode)
        u = rng.standard_normal(shape)
        coeffs = t.decompose(u)
        levels = t.extract_levels(coeffs)
        level_errors = [10.0 ** rng.uniform(-3, 0) for _ in levels]
        noisy = [
            lv + rng.uniform(-e, e, size=lv.shape)
            for lv, e in zip(levels, level_errors)
        ]
        rec = t.recompose(t.assemble_levels(noisy))
        bound = compose_error_bound(t, level_errors)
        actual = np.max(np.abs(rec - u))
        assert actual <= bound * (1 + 1e-9)

    def test_pointwise_bound_dominates(self):
        rng = np.random.default_rng(3)
        t = MultilevelTransform((17, 17))
        u = rng.standard_normal((17, 17))
        levels = t.extract_levels(t.decompose(u))
        level_errors = [0.1] * len(levels)
        noisy = [
            lv + rng.uniform(-0.1, 0.1, size=lv.shape) for lv in levels
        ]
        rec = t.recompose(t.assemble_levels(noisy))
        pw = pointwise_error_bound(t, level_errors)
        assert np.all(np.abs(rec - u) <= pw + 1e-9)
        assert np.max(pw) <= compose_error_bound(t, level_errors) + 1e-9

    def test_compose_bound_rejects_wrong_length(self):
        t = MultilevelTransform((16, 16))
        with pytest.raises(ValueError):
            compose_error_bound(t, [0.1])

    def test_recompose_absolute_rejects_negative(self):
        t = MultilevelTransform((16, 16))
        with pytest.raises(ValueError):
            t.recompose_absolute(np.full((16, 16), -1.0))

    def test_recompose_absolute_rejects_nan(self):
        t = MultilevelTransform((16, 16))
        coeffs = np.zeros((16, 16))
        coeffs[3, 5] = np.nan
        with pytest.raises(ValueError, match="non-NaN"):
            t.recompose_absolute(coeffs)

    def test_recompose_absolute_accepts_inf(self):
        t = MultilevelTransform((16, 16))
        coeffs = np.zeros((16, 16))
        coeffs[0, 0] = np.inf
        assert np.isinf(np.max(t.recompose_absolute(coeffs)))

    @pytest.mark.parametrize("bad", [np.nan, -0.5])
    @pytest.mark.parametrize(
        "bound", [compose_error_bound, pointwise_error_bound]
    )
    def test_error_bounds_reject_nan_and_negative(self, bound, bad):
        t = MultilevelTransform((16, 16))
        errors = [0.0] * t.num_coefficient_sets
        errors[0] = bad
        with pytest.raises(ValueError, match="nonnegative"):
            bound(t, errors)

    @pytest.mark.parametrize(
        "bound", [compose_error_bound, pointwise_error_bound]
    )
    def test_error_bounds_keep_inf(self, bound):
        t = MultilevelTransform((16, 16))
        errors = [0.0] * t.num_coefficient_sets
        errors[-1] = np.inf
        assert np.isinf(np.max(bound(t, errors)))
