"""Parity of the two Huffman decode kernels and the decode dispatch.

``HuffmanCodec.decode`` picks the lockstep kernel or the pointer-doubling
jump kernel per stream; both must equal ``decode_reference`` on every
valid stream, and all of them must reject code-length tables no encoder
writes.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lossless import huffman
from repro.lossless.huffman import (
    HuffmanCodec,
    build_code_lengths,
    canonical_codes,
    huffman_encode,
)

KERNELS = {
    "lockstep": huffman._decode_lockstep,
    "jump": huffman._decode_jump,
}
CHUNKS = [1, 7, 64, 1000, 1024]
#: Byte offset of the 256-entry code-length table in a HUF1 stream.
LENGTHS_OFFSET = struct.calcsize(huffman._HEADER_FMT)


def _assert_paths_agree(blob: bytes, data: np.ndarray) -> None:
    """Every decode path returns *data* for *blob*."""
    codec = HuffmanCodec()
    ref = codec.decode_reference(blob)
    np.testing.assert_array_equal(ref, data)
    stream = HuffmanCodec._parse_stream(blob)
    for name, kernel in KERNELS.items():
        np.testing.assert_array_equal(kernel(stream), ref, err_msg=name)
    np.testing.assert_array_equal(codec.decode(blob), ref)


def _fibonacci_data(rng: np.random.Generator) -> np.ndarray:
    """Fibonacci symbol counts: a tree 17 deep, limited to 16 bits."""
    counts = [1, 1]
    while len(counts) < 18:
        counts.append(counts[-1] + counts[-2])
    data = np.repeat(np.arange(18, dtype=np.uint8), counts)
    return rng.permutation(data)


def _sizes(chunk: int) -> list[int]:
    sizes = {1, 2, chunk - 1, chunk, chunk + 1, 1792, 6048, 3 * chunk + 5}
    return sorted(n for n in sizes if n >= 1)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("alphabet", [3, 40, 256])
def test_kernels_match_reference(chunk, alphabet):
    rng = np.random.default_rng(chunk * 1000 + alphabet)
    codec = HuffmanCodec(chunk_symbols=chunk)
    for n in _sizes(chunk):
        data = rng.integers(0, alphabet, n).astype(np.uint8)
        _assert_paths_agree(codec.encode(data), data)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_single_symbol_alphabet(chunk):
    codec = HuffmanCodec(chunk_symbols=chunk)
    for n in _sizes(chunk):
        data = np.full(n, 201, dtype=np.uint8)
        _assert_paths_agree(codec.encode(data), data)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_skewed_codes_reach_max_length(chunk):
    data = _fibonacci_data(np.random.default_rng(chunk))
    blob = HuffmanCodec(chunk_symbols=chunk).encode(data)
    assert HuffmanCodec._parse_stream(blob).max_len == huffman.MAX_CODE_LENGTH
    _assert_paths_agree(blob, data)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 3000),
    alphabet=st.integers(1, 256),
    chunk=st.integers(1, 1100),
    skew=st.floats(0.0, 3.0),
)
def test_kernels_match_reference_property(seed, n, alphabet, chunk, skew):
    rng = np.random.default_rng(seed)
    weights = np.arange(1, alphabet + 1, dtype=np.float64) ** -skew
    data = rng.choice(alphabet, size=n, p=weights / weights.sum())
    data = data.astype(np.uint8)
    _assert_paths_agree(HuffmanCodec(chunk_symbols=chunk).encode(data), data)


class TestDispatch:
    @staticmethod
    def _kernel_used(monkeypatch, n: int) -> str:
        data = np.random.default_rng(n).integers(0, 8, n).astype(np.uint8)
        blob = HuffmanCodec(chunk_symbols=1024).encode(data)
        used = []
        for name, kernel in KERNELS.items():
            def spy(stream, kernel=kernel, name=name):
                used.append(name)
                return kernel(stream)
            monkeypatch.setattr(huffman, f"_decode_{name}", spy)
        np.testing.assert_array_equal(HuffmanCodec().decode(blob), data)
        assert len(used) == 1
        return used[0]

    def test_roi_tile_stream_takes_jump(self, monkeypatch):
        assert self._kernel_used(monkeypatch, 1792) == "jump"

    def test_large_stream_keeps_lockstep(self, monkeypatch):
        assert self._kernel_used(monkeypatch, 387_072) == "lockstep"

    def test_jump_work_is_capped(self):
        # One chunk of many symbols: lockstep would run n rounds, but
        # the jump tables would outgrow the memory cap.
        data = np.random.default_rng(1).integers(0, 8, 400_000)
        blob = HuffmanCodec(chunk_symbols=1 << 20).encode(data.astype(np.uint8))
        assert not huffman._prefers_jump(HuffmanCodec._parse_stream(blob))


def _canonical_codes_loop(lengths: np.ndarray) -> np.ndarray:
    """The classic next_code loop canonical_codes replaced."""
    lengths = np.asarray(lengths, dtype=np.int64)
    max_len = int(lengths.max()) if lengths.size else 0
    codes = np.zeros(lengths.size, dtype=np.uint64)
    if max_len == 0:
        return codes
    bl_count = np.bincount(lengths, minlength=max_len + 1)
    bl_count[0] = 0
    next_code = np.zeros(max_len + 1, dtype=np.int64)
    for length in range(1, max_len + 1):
        next_code[length] = (next_code[length - 1] + bl_count[length - 1]) << 1
    for sym in range(lengths.size):
        length = int(lengths[sym])
        if length:
            codes[sym] = next_code[length]
            next_code[length] += 1
    return codes


@pytest.mark.parametrize("seed", range(20))
def test_canonical_codes_match_loop(seed):
    rng = np.random.default_rng(seed)
    freqs = rng.integers(0, 1000, 256) * (rng.random(256) < rng.random())
    valid = build_code_lengths(freqs)
    arbitrary = rng.integers(0, 17, 256) * (rng.random(256) < 0.5)
    for lengths in (valid, arbitrary, np.zeros(256, dtype=np.uint8)):
        np.testing.assert_array_equal(
            canonical_codes(lengths), _canonical_codes_loop(lengths)
        )


def _decode_with(path: str, blob: bytes) -> np.ndarray:
    codec = HuffmanCodec()
    if path in KERNELS:
        return KERNELS[path](codec._parse_stream(blob))
    return getattr(codec, path)(blob)


def _patched_blob(patch) -> bytes:
    data = np.random.default_rng(5).integers(0, 8, 3000).astype(np.uint8)
    blob = bytearray(huffman_encode(data))
    patch(blob)
    return bytes(blob)


def _oversubscribe(blob):
    # Eight 1-bit codes: Kraft sum 4 > 1. Before the check this decoded
    # to 3,000 wrong bytes — the right size, so no size check caught it.
    blob[LENGTHS_OFFSET : LENGTHS_OFFSET + 8] = b"\x01" * 8


def _length_above_max_len(blob):
    blob[LENGTHS_OFFSET + 200] = 40


def _empty_table(blob):
    blob[LENGTHS_OFFSET : LENGTHS_OFFSET + 256] = bytes(256)


@pytest.mark.parametrize("path", ["decode", "decode_reference", *KERNELS])
@pytest.mark.parametrize("patch, match", [
    (_oversubscribe, "corrupt stream.*Kraft"),
    (_length_above_max_len, "corrupt stream.*exceeds max_len"),
    (_empty_table, "corrupt stream.*empty"),
], ids=["kraft", "too_long", "empty"])
def test_corrupt_code_table_rejected(path, patch, match):
    with pytest.raises(ValueError, match=match):
        _decode_with(path, _patched_blob(patch))


@pytest.mark.parametrize("path", ["decode", "decode_reference"])
def test_chunk_count_must_match_symbol_count(path):
    def patch(blob):
        # Claim more symbols than the chunk table has room for.
        struct.pack_into("<Q", blob, 4, 3000 + 1024)
    with pytest.raises(ValueError, match="corrupt stream"):
        _decode_with(path, _patched_blob(patch))


@pytest.mark.parametrize("path", ["decode", "decode_reference"])
def test_symbol_count_beyond_payload_bits_rejected(path):
    def patch(blob):
        # A consistent chunk count (3 chunks of 2^32 - 1 symbols) but far
        # more symbols than the payload has bits: every code is >= 1 bit.
        chunk = 0xFFFFFFFF
        struct.pack_into("<QI", blob, 4, 2 * chunk + 1, chunk)
    with pytest.raises(ValueError, match="truncated"):
        _decode_with(path, _patched_blob(patch))
