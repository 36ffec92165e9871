"""Write-path parity: the fast weight and code-length constructions
match the straightforward ones exactly, and stored bytes do not move.

* :func:`level_error_weights` runs one level step per level on a
  truncated block; :func:`_full_recompose_weights` below is the
  full-recompose definition it must equal with ``==``.
* :func:`build_code_lengths` merges two queues; :func:`_heap_code_lengths`
  below is the classic heap construction it must equal.
* A golden sha256 over every stored key and segment pins the whole
  write path (weights metadata and Huffman payloads included).
"""

from __future__ import annotations

import hashlib
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refactor import RefactorConfig, refactor
from repro.core.store import MemoryStore, store_field
from repro.decompose import MultilevelTransform
from repro.decompose.grid import num_levels_for_shape
from repro.decompose.norms import _level_error_weights, level_error_weights
from repro.lossless.huffman import (
    MAX_CODE_LENGTH,
    _limit_lengths,
    build_code_lengths,
)


def _full_recompose_weights(transform: MultilevelTransform) -> list[float]:
    """Max of the absolute recompose of each level's ones-indicator."""
    weights: list[float] = []
    sizes = transform.level_sizes()
    for level in range(len(sizes)):
        ones = [
            np.ones(sz, dtype=np.float64) if lv == level
            else np.zeros(sz, dtype=np.float64)
            for lv, sz in enumerate(sizes)
        ]
        coeffs = transform.assemble_levels(ones)
        response = transform.recompose_absolute(coeffs)
        weights.append(float(np.max(response)))
    return weights


def _heap_code_lengths(
    freqs: np.ndarray, max_length: int = MAX_CODE_LENGTH
) -> np.ndarray:
    """Heap-keyed ``(freq, symbol or 256 + node)`` Huffman construction."""
    freqs = np.asarray(freqs, dtype=np.int64)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    present = np.flatnonzero(freqs)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    heap = [(int(freqs[s]), int(s), int(i)) for i, s in enumerate(present)]
    heapq.heapify(heap)
    parent: list[int] = [-1] * present.size
    counter = present.size
    while len(heap) > 1:
        f1, _, n1 = heapq.heappop(heap)
        f2, _, n2 = heapq.heappop(heap)
        parent.append(-1)
        parent[n1] = counter
        parent[n2] = counter
        heapq.heappush(heap, (f1 + f2, 256 + counter, counter))
        counter += 1
    depths = np.zeros(present.size, dtype=np.int64)
    for leaf in range(present.size):
        node, d = leaf, 0
        while parent[node] != -1:
            node = parent[node]
            d += 1
        depths[leaf] = d
    depths = _limit_lengths(depths, np.asarray(freqs[present]), max_length)
    lengths[present] = depths.astype(np.uint8)
    return lengths


_SHAPES = [
    (1,), (2,), (7,), (8,), (33,), (64,),
    (1, 9), (16, 16), (17, 17), (6, 31),
    (9, 10, 11), (1, 1, 17), (5, 1, 20), (12, 13, 1), (16, 8, 3),
]


class TestLevelErrorWeights:
    @pytest.mark.parametrize("mode", ["hierarchical", "mgard"])
    @pytest.mark.parametrize("min_size", [2, 3, 4])
    @pytest.mark.parametrize("shape", _SHAPES, ids=str)
    def test_equals_full_recompose_at_every_depth(self, shape, min_size, mode):
        for levels in range(num_levels_for_shape(shape, min_size) + 1):
            t = MultilevelTransform(shape, levels, mode, min_size)
            assert level_error_weights(t) == _full_recompose_weights(t)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 24), min_size=1, max_size=3),
        min_size=st.integers(2, 4),
        mode=st.sampled_from(["hierarchical", "mgard"]),
        data=st.data(),
    )
    def test_property_over_shapes(self, shape, min_size, mode, data):
        shape = tuple(shape)
        levels = data.draw(
            st.integers(0, num_levels_for_shape(shape, min_size))
        )
        t = MultilevelTransform(shape, levels, mode, min_size)
        assert level_error_weights(t) == _full_recompose_weights(t)

    def test_memoized_per_geometry_and_mode(self):
        _level_error_weights.cache_clear()
        a = MultilevelTransform((12, 10), mode="mgard")
        b = MultilevelTransform((12, 10), mode="mgard")
        first = level_error_weights(a)
        first.append(99.0)  # callers get their own list
        assert level_error_weights(b) == first[:-1]
        info = _level_error_weights.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        level_error_weights(MultilevelTransform((12, 10)))
        assert _level_error_weights.cache_info().misses == 2


def _fibonacci(k: int) -> np.ndarray:
    fib = [1, 1]
    while len(fib) < k:
        fib.append(fib[-1] + fib[-2])
    return np.array(fib[:k], dtype=np.int64)


class TestBuildCodeLengths:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_histograms(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 257))
        kinds = [
            rng.integers(0, 1000, size=size),
            rng.integers(0, 4, size=size),  # many equal-weight ties
            (rng.pareto(1.0, size=size) * 10).astype(np.int64)
            * (rng.random(size) < 0.5),
        ]
        for freqs in kinds:
            np.testing.assert_array_equal(
                build_code_lengths(freqs), _heap_code_lengths(freqs)
            )

    @pytest.mark.parametrize(
        "freqs",
        [
            np.array([0, 0, 5, 0]),
            np.array([7]),
            np.array([3, 0, 9]),
            np.array([4, 4]),
            np.ones(256, dtype=np.int64),
            np.arange(1, 257, dtype=np.int64),
            np.zeros(256, dtype=np.int64),
        ],
        ids=["one-symbol", "one-symbol-only", "two-symbols", "two-tied",
             "all-256-equal", "all-256-ramp", "empty"],
    )
    def test_edge_histograms(self, freqs):
        np.testing.assert_array_equal(
            build_code_lengths(freqs), _heap_code_lengths(freqs)
        )

    @pytest.mark.parametrize("max_length", [MAX_CODE_LENGTH, 12, 8])
    def test_fibonacci_forces_length_limit(self, max_length):
        freqs = _fibonacci(40)
        rng = np.random.default_rng(max_length)
        rng.shuffle(freqs)
        lengths = build_code_lengths(freqs, max_length)
        # The unlimited tree is 39 deep: _limit_lengths must act.
        assert int(lengths.max()) == max_length
        np.testing.assert_array_equal(
            lengths, _heap_code_lengths(freqs, max_length)
        )

    def test_heavy_tail_past_limit_in_full_alphabet(self):
        freqs = np.ones(256, dtype=np.int64)
        freqs[:30] = _fibonacci(30) * 1000
        lengths = build_code_lengths(freqs, 9)
        assert int(lengths.max()) == 9
        np.testing.assert_array_equal(lengths, _heap_code_lengths(freqs, 9))


def _stored_digest(mode: str) -> str:
    rng = np.random.default_rng(20240601)
    x, y, z = np.meshgrid(
        *(np.linspace(0.0, 3.0, n) for n in (48, 40, 33)), indexing="ij"
    )
    field = (
        np.sin(x) * np.cos(2 * y) + 0.3 * z
        + 0.01 * rng.standard_normal(x.shape)
    ).astype(np.float32)
    store = MemoryStore()
    store_field(
        store, refactor(field, RefactorConfig(mode=mode), name="golden")
    )
    digest = hashlib.sha256()
    for key in sorted(store._blobs):
        blob = store.get(key)
        digest.update(key.encode() + b"\0")
        digest.update(len(blob).to_bytes(8, "little") + blob)
    return digest.hexdigest()


#: sha256 of every stored key and segment, recorded before the write
#: path's weight and code-length constructions were rewritten.
_GOLDEN = {
    "hierarchical":
        "e039fbf52eb6e7a660c794a15b6921ce3221755ee1b730a1cd592a3cf4cd5798",
    "mgard":
        "dd4acf8c36f13e53aa191c5594f80e9e2a061d45363334556d75823a5d6d1081",
}


@pytest.mark.parametrize("mode", sorted(_GOLDEN))
def test_stored_bytes_golden(mode):
    assert _stored_digest(mode) == _GOLDEN[mode]
