"""Canonical Huffman coding with a GPU-style chunked stream layout.

Built from scratch (tree construction, length limiting, canonical code
assignment) over the byte alphabet. The stream is divided into fixed-size
*symbol chunks*, each starting at a byte boundary with its offset in the
header — exactly how GPU Huffman decoders (e.g. Tian et al., IPDPS'21)
expose block-level parallelism. The ``HUF1`` stream format is fixed;
:meth:`HuffmanCodec.decode` picks one of two kernels per stream, and
both return byte-identical output:

* **Lockstep** (:func:`_decode_lockstep`) walks all chunks at once,
  the NumPy analogue of one thread block per chunk: each round performs
  a *single* unaligned 64-bit window gather per chunk (a byte-stride
  ``as_strided`` view of the zero-padded payload, byteswapped to
  MSB-first) and peels several symbols from it. It runs ``min(chunk,
  n)`` Python rounds, which is cheap per symbol only when many chunks
  share each round.
* **Jump** (:func:`_decode_jump`) is the self-synchronizing,
  parallel-prefix style decode GPU decoders use when lanes are few: it
  decodes a tentative symbol at *every* payload bit position in one
  vectorized pass, then follows the ``next = pos + len`` chain from each
  chunk start by pointer doubling — ``O(log chunk)`` vectorized rounds
  over one entry per payload bit.

The dispatch (:func:`_prefers_jump`) compares the jump kernel's per-bit
work with the lockstep round count using header quantities only, and
caps the jump kernel's memory at about 8 MiB: small per-tile streams
take the jump kernel, large multi-chunk streams stay on lockstep. The
original eight-gather lockstep formulation is retained as
:meth:`HuffmanCodec.decode_reference` for equivalence tests and the
``bench_hotpaths`` baseline.

Code lengths are limited to :data:`MAX_CODE_LENGTH` so the decoder can
use a flat prefix LUT of ``2^maxlen`` entries.
"""

from __future__ import annotations

import heapq
import struct
from typing import NamedTuple

import numpy as np

from repro.lossless.bitio import (
    NEEDS_BYTESWAP,
    pack_sorted_canonical_bits,
    pack_varlen_bits_reference,
    sliding_windows_u64,
)

MAX_CODE_LENGTH = 16
DEFAULT_CHUNK_SYMBOLS = 1024

_MAGIC = b"HUF1"
_HEADER_FMT = "<4sQIB"


def build_code_lengths(
    freqs: np.ndarray, max_length: int = MAX_CODE_LENGTH
) -> np.ndarray:
    """Huffman code lengths per symbol (0 for absent symbols).

    Two-queue construction followed by Kraft-sum repair to honor
    *max_length* (increment the deepest sub-limit codes until the Kraft
    inequality holds, then greedily shorten where slack remains).

    Leaves are sorted by ``(freq, symbol)``; internal nodes are created
    in nondecreasing weight order, so a FIFO of them stays sorted and
    each merge takes the two smallest fronts, a leaf winning a tie (on
    equal weight the internal node's tie key, ``256 + creation index``,
    is above every symbol). That is exactly the order of a heap keyed on
    ``(freq, tie key)``, so tree and lengths match the classic heap.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1 or freqs.size > 256:
        raise ValueError("freqs must be 1-D with at most 256 symbols")
    if freqs.size and int(freqs.min()) < 0:
        raise ValueError("frequencies must be nonnegative")
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    present = np.flatnonzero(freqs)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths

    # Node ids: leaves 0..n-1 in (freq, symbol) order, then internal
    # nodes n..2n-2 in creation order; parent[child] > child always.
    n = present.size
    order = np.argsort(freqs[present], kind="stable")
    weight = freqs[present[order]].tolist()
    parent = [0] * (2 * n - 1)
    leaf, node = 0, n  # fronts of the leaf and internal-node queues
    for new in range(n, 2 * n - 1):
        pair = []
        for _ in range(2):
            if leaf < n and (node >= new or weight[leaf] <= weight[node]):
                pair.append(leaf)
                leaf += 1
            else:
                pair.append(node)
                node += 1
        parent[pair[0]] = parent[pair[1]] = new
        weight.append(weight[pair[0]] + weight[pair[1]])
    depth = [0] * (2 * n - 1)
    for child in range(2 * n - 3, -1, -1):
        depth[child] = depth[parent[child]] + 1
    depths = np.zeros(n, dtype=np.int64)
    depths[order] = depth[:n]

    depths = _limit_lengths(depths, np.asarray(freqs[present]), max_length)
    lengths[present] = depths.astype(np.uint8)
    return lengths


def _limit_lengths(
    depths: np.ndarray, freqs: np.ndarray, max_length: int
) -> np.ndarray:
    """Clamp code lengths to *max_length* while keeping Kraft ≤ 1."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    depths = np.minimum(depths, max_length).astype(np.int64)
    if depths.size > (1 << max_length):
        raise ValueError("alphabet too large for max_length")
    unit = 1 << max_length  # Kraft capacity in 2^-max_length units
    used = int(np.sum(1 << (max_length - depths)))
    if used > unit:
        # Lengthen the deepest sub-limit code each round (costs least
        # entropy), lowest symbol index first on ties. One precomputed
        # depth-bucketed order replaces the O(n) flatnonzero/argmax scan
        # the seed ran on every iteration: `buckets[d]` is a min-heap of
        # sub-limit symbol indices at depth d, and a lengthened symbol
        # just migrates to the next bucket.
        buckets: list[list[int]] = [[] for _ in range(max_length)]
        for idx in np.argsort(depths, kind="stable"):
            d = int(depths[idx])
            if d < max_length:
                buckets[d].append(int(idx))
        for b in buckets:
            heapq.heapify(b)
        deepest = max_length - 1
        while used > unit:
            while not buckets[deepest]:
                deepest -= 1
            pick = heapq.heappop(buckets[deepest])
            used -= 1 << (max_length - depths[pick] - 1)
            depths[pick] += 1
            if depths[pick] < max_length:
                heapq.heappush(buckets[int(depths[pick])], pick)
                deepest = int(depths[pick])
    # Tighten: shorten the most frequent codes while slack allows.
    for idx in np.argsort(-freqs):
        while depths[idx] > 1:
            gain = 1 << (max_length - depths[idx])
            if used + gain > unit:
                break
            used += gain
            depths[idx] -= 1
    return depths


def _canonical_order(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Present symbols in canonical order (length, then symbol) + lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    present = np.flatnonzero(lengths)
    order = present[np.argsort(lengths[present], kind="stable")]
    return order, lengths[order]


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code values per symbol from code lengths.

    In canonical order (length, then symbol) each code, left-justified
    to ``max_len`` bits, starts where the previous one's
    ``2^(max_len - l)`` span ends: an exclusive cumsum of the spans,
    shifted back down by ``max_len - l``. Equal to the classic
    ``next_code[l]`` loop for every table, valid or not.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    order, sorted_lengths = _canonical_order(lengths)
    if order.size == 0:
        return codes
    shift = int(sorted_lengths[-1]) - sorted_lengths
    spans = np.left_shift(1, shift)
    starts = np.cumsum(spans) - spans
    codes[order] = np.right_shift(starts, shift).astype(np.uint64)
    return codes


def _check_offsets_u32(offsets: np.ndarray) -> None:
    """Reject payload offsets the uint32 header field cannot represent.

    The stream header stores per-chunk byte offsets as uint32; streams
    whose payload exceeds ``2**32 - 1`` bytes must fail loudly instead
    of silently wrapping into a decodable-but-wrong header.
    """
    if offsets.size and int(offsets[-1]) > 0xFFFFFFFF:
        raise ValueError(
            f"payload of {int(offsets[-1])} bytes exceeds the uint32 "
            "chunk-offset range; split the input before encoding"
        )


class HuffmanCodec:
    """Byte-alphabet canonical Huffman codec with chunked streams."""

    def __init__(self, chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS) -> None:
        if chunk_symbols < 1:
            raise ValueError("chunk_symbols must be >= 1")
        self.chunk_symbols = int(chunk_symbols)

    # -- encode ---------------------------------------------------------
    def encode(
        self, data: np.ndarray | bytes, freqs: np.ndarray | None = None
    ) -> bytes:
        """Word-packed chunked encode (byte-identical to the seed encoder).

        Each symbol's canonical code is shifted into its destination
        64-bit stream lane and the per-lane contributions are OR-merged
        in one pass (:func:`repro.lossless.bitio.pack_sorted_canonical_bits`)
        — the NumPy analogue of the chunk-parallel word-merge GPU Huffman
        encoders use — instead of scattering individual bits.

        ``freqs``, when given, must be ``np.bincount(data, minlength=256)``
        (callers that already histogrammed the buffer, e.g. the hybrid
        selector, pass it through to skip the second scan). A histogram
        whose total disagrees with ``data.size`` is rejected; a wrong
        distribution with the right total would silently produce a
        corrupt stream, so only trusted callers should pass it.
        """
        return self._encode_impl(data, freqs, fast=True)

    def encode_reference(
        self, data: np.ndarray | bytes, freqs: np.ndarray | None = None
    ) -> bytes:
        """Seed encoder: per-bit scatter packing.

        Retained for equivalence tests and the ``bench_hotpaths``
        baseline; production callers use :meth:`encode`.
        """
        return self._encode_impl(data, freqs, fast=False)

    def _encode_impl(
        self, data: np.ndarray | bytes, freqs: np.ndarray | None, fast: bool
    ) -> bytes:
        data = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(
            data, (bytes, bytearray)
        ) else np.ascontiguousarray(data, dtype=np.uint8)
        n = data.size
        if freqs is None:
            freqs = np.bincount(data, minlength=256)
        else:
            freqs = np.asarray(freqs, dtype=np.int64)
            if freqs.shape != (256,):
                raise ValueError("freqs must be a 256-entry histogram")
            if int(freqs.sum()) != n:
                raise ValueError(
                    "freqs does not histogram data: totals disagree"
                )
        lengths_table = build_code_lengths(freqs)
        codes_table = canonical_codes(lengths_table)
        header_head = struct.pack(
            _HEADER_FMT, _MAGIC, n, self.chunk_symbols,
            int(lengths_table.max()) if n else 0,
        )
        if n == 0:
            return header_head + lengths_table.tobytes() + struct.pack("<I", 0)

        # One fused gather per symbol — length in the high half, code in
        # the low half of a single int64 LUT entry (codes fit 16 bits) —
        # instead of separate length and code table gathers.
        fused_table = (lengths_table.astype(np.int64) << 32) | codes_table.astype(
            np.int64
        )
        sym_fused = fused_table[data]
        sym_lengths = sym_fused >> 32
        sym_codes = (sym_fused & 0xFFFFFFFF).view(np.uint64)
        chunk = self.chunk_symbols
        n_chunks = -(-n // chunk)
        starts = np.arange(n_chunks) * chunk
        chunk_bits = np.add.reduceat(sym_lengths, starts)
        chunk_bytes = (chunk_bits + 7) >> 3
        offsets = np.zeros(n_chunks + 1, dtype=np.int64)
        np.cumsum(chunk_bytes, out=offsets[1:])
        _check_offsets_u32(offsets)

        # Exclusive prefix of code lengths = in-stream bit cursor before
        # rebasing; computed with one cumsum into a preallocated buffer.
        prefix = np.empty(n, dtype=np.int64)
        prefix[0] = 0
        np.cumsum(sym_lengths[:-1], out=prefix[1:])
        counts = np.diff(np.append(starts, n))
        # Chunk payloads are byte-aligned: each symbol's stream position
        # is its in-chunk bit prefix rebased to the chunk's byte offset.
        positions = np.add(
            prefix, np.repeat(offsets[:-1] * 8 - prefix[starts], counts),
            out=prefix,
        )
        if fast:
            # Canonical codes are already masked to their lengths and
            # positions are nondecreasing, so the trusted packer applies;
            # sym_codes/positions are packing-only temporaries, so the
            # kernel may consume them in place.
            payload = pack_sorted_canonical_bits(
                sym_codes, sym_lengths, positions, int(offsets[-1] * 8),
                consume=True,
            )
        else:
            payload = pack_varlen_bits_reference(
                sym_codes, sym_lengths, positions, int(offsets[-1] * 8)
            )
        offsets32 = offsets.astype(np.uint32)
        return (
            header_head
            + lengths_table.tobytes()
            + struct.pack("<I", n_chunks)
            + offsets32.tobytes()
            + payload.tobytes()
        )

    # -- decode ---------------------------------------------------------
    @staticmethod
    def _parse_stream(blob: bytes) -> _Stream:
        """Header + tables + payload view shared by every decode path."""
        head_size = struct.calcsize(_HEADER_FMT)
        if len(blob) < head_size + 256 + 4:
            raise ValueError("truncated Huffman stream")
        magic, n, chunk, max_len = struct.unpack_from(_HEADER_FMT, blob, 0)
        if magic != _MAGIC:
            raise ValueError("not a Huffman stream")
        off = head_size
        lengths_table = np.frombuffer(blob, dtype=np.uint8,
                                      count=256, offset=off).copy()
        off += 256
        (n_chunks,) = struct.unpack_from("<I", blob, off)
        off += 4
        if n == 0:
            return _Stream(n, chunk, max_len, lengths_table, 0, None, None)
        if chunk < 1 or n_chunks != -(-n // chunk):
            raise ValueError("corrupt stream: chunk table disagrees with "
                             "the symbol count")
        offsets = np.frombuffer(blob, dtype=np.uint32,
                                count=n_chunks + 1, offset=off).astype(np.int64)
        off += 4 * (n_chunks + 1)
        payload = np.frombuffer(blob, dtype=np.uint8, offset=off)
        if int(offsets.max()) > payload.size:
            # A consistent header's chunk offsets all land inside the
            # payload; catching truncation here keeps the decode loops
            # free of per-step bounds clamping.
            raise ValueError("truncated Huffman stream")
        if n > 8 * payload.size:
            # Every code is at least one bit long.
            raise ValueError("truncated Huffman stream")
        return _Stream(n, chunk, max_len, lengths_table, n_chunks, offsets,
                       payload)

    def decode(self, blob: bytes) -> np.ndarray:
        """Decode a ``HUF1`` stream with the cheaper of two kernels.

        Both kernels read the same stream and return byte-identical
        output (and match :meth:`decode_reference`):

        * :func:`_decode_lockstep` walks every chunk in lockstep, one
          Python round per symbol position — ``min(chunk, n)`` rounds
          whatever the lane count, so its cost is rounds, not bits;
        * :func:`_decode_jump` decodes a symbol at *every* bit position
          of the payload in one vectorized pass and then follows the
          ``pos -> pos + len`` chain by pointer doubling — about
          ``2·ceil(log2(min(chunk, n)))`` NumPy calls over arrays of
          one entry per payload bit.

        :func:`_prefers_jump` picks per stream from header quantities
        alone (payload bits, chunk, ``n``): jump when its per-bit work
        ``bits × (K + 1)`` costs less than the lockstep rounds it saves
        and stays under :data:`_JUMP_MAX_WORK`, which bounds the jump
        kernel's peak memory to about 8 MiB (≈8 bytes per unit).
        In practice the small per-tile streams of ROI reads (a few
        thousand symbols, one or two chunks) take the jump kernel and
        large multi-chunk streams keep lockstep.
        """
        stream = self._parse_stream(blob)
        if stream.n == 0:
            return np.empty(0, dtype=np.uint8)
        if _prefers_jump(stream):
            return _decode_jump(stream)
        return _decode_lockstep(stream)

    def decode_reference(self, blob: bytes) -> np.ndarray:
        """Seed lockstep decoder: eight byte gathers per step.

        Retained for equivalence tests and the ``bench_hotpaths``
        baseline; production callers use :meth:`decode`.
        """
        n, chunk, max_len, lengths_table, n_chunks, offsets, payload = (
            self._parse_stream(blob)
        )
        if n == 0:
            return np.empty(0, dtype=np.uint8)

        lut_sym, lut_len = _build_lut(lengths_table, max_len)

        cursors = offsets[:-1] * 8
        out = np.empty((n_chunks, chunk), dtype=np.uint8)
        padded = np.zeros(payload.size + 8, dtype=np.uint8)
        padded[: payload.size] = payload
        steps = min(chunk, n)
        shift_base = np.uint64(64 - max_len)
        mask = np.uint64((1 << max_len) - 1)
        for step in range(steps):
            byte_idx = np.minimum(cursors >> 3, payload.size)
            window = np.zeros(n_chunks, dtype=np.uint64)
            for k in range(8):
                window |= padded[byte_idx + k].astype(np.uint64) << np.uint64(
                    8 * (7 - k)
                )
            vals = (window >> (shift_base - (cursors & 7).astype(np.uint64))) \
                & mask
            out[:, step] = lut_sym[vals]
            cursors = cursors + lut_len[vals]
        return out.reshape(-1)[:n]


class _Stream(NamedTuple):
    """A parsed ``HUF1`` stream (``offsets``/``payload`` None when n=0)."""

    n: int
    chunk: int
    max_len: int
    lengths: np.ndarray
    n_chunks: int
    offsets: np.ndarray | None
    payload: np.ndarray | None


def _build_lut(
    lengths_table: np.ndarray, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat prefix LUT: any max_len-bit window -> (symbol, length).

    In canonical order each symbol owns the next ``2^(max_len - l)``
    entries, so the table is one ``np.repeat`` of symbols (and of
    lengths) over their spans. Windows no code covers (incomplete
    codes, e.g. a one-symbol alphabet) map to symbol 0, length 1.
    Rejects tables no encoder writes: an empty code, a length above
    ``max_len``, or lengths that over-subscribe the Kraft sum —
    those would otherwise decode to wrong bytes of the right size.
    """
    if max_len < 1 or max_len > MAX_CODE_LENGTH:
        raise ValueError(f"corrupt stream: max_len={max_len}")
    order, lengths = _canonical_order(lengths_table)
    if order.size == 0:
        raise ValueError("corrupt stream: empty code-length table")
    if int(lengths[-1]) > max_len:
        raise ValueError(
            f"corrupt stream: code length {int(lengths[-1])} exceeds "
            f"max_len={max_len}"
        )
    spans = np.left_shift(1, max_len - lengths)
    used = int(spans.sum())
    size = 1 << max_len
    if used > size:
        raise ValueError(
            "corrupt stream: code lengths over-subscribe the Kraft sum"
        )
    lut_sym = np.zeros(size, dtype=np.uint8)
    lut_len = np.ones(size, dtype=np.int64)
    lut_sym[:used] = np.repeat(order.astype(np.uint8), spans)
    lut_len[:used] = np.repeat(lengths, spans)
    return lut_sym, lut_len


def _fused_lut(stream: _Stream) -> np.ndarray:
    """uint16 LUT: high byte = code length, low byte = symbol."""
    lut_sym, lut_len = _build_lut(stream.lengths, stream.max_len)
    return (lut_len.astype(np.uint16) << 8) | lut_sym.astype(np.uint16)


def _jump_rounds(steps: int) -> int:
    """Doubling rounds K = ceil(log2(steps)) that reach symbol ``steps-1``."""
    return (steps - 1).bit_length()


#: Jump-kernel work (payload bits × (K + 1) table entries) that costs
#: about as much as one lockstep round: on a 2-CPU x86-64 box a
#: lockstep round takes ~10 µs and a jump-table entry ~4 ns.
_JUMP_BITS_PER_ROUND = 2048
#: Cap on jump-kernel work. The K intp jump tables plus the per-bit
#: temporaries peak at about 8 bytes per unit, so about 8 MiB.
_JUMP_MAX_WORK = 1 << 20


def _prefers_jump(stream: _Stream) -> bool:
    """Dispatch rule of :meth:`HuffmanCodec.decode` (header quantities only).

    Jump work grows with payload bits × (K + 1); lockstep cost with its
    ``min(chunk, n)`` rounds. Jump wins while the first is the smaller,
    up to the :data:`_JUMP_MAX_WORK` memory cap.
    """
    steps = min(stream.chunk, stream.n)
    work = int(stream.offsets.max()) * 8 * (_jump_rounds(steps) + 1)
    return work <= min(_JUMP_BITS_PER_ROUND * steps, _JUMP_MAX_WORK)


def _decode_lockstep(stream: _Stream) -> np.ndarray:
    """Lockstep chunked decode, one 64-bit window gather per round.

    Each round decodes several symbols in every chunk (the
    per-thread-block loop of a GPU decoder): a single fancy-index
    gather materializes one unaligned 64-bit window per chunk from a
    byte-stride view of the zero-padded payload (byteswapped once per
    round, to MSB-first), and since a 64-bit window starting at the
    cursor's byte always covers ``1 + (57 - max_len)//max_len``
    worst-case codes, each gathered window is re-shifted in place to
    peel that many symbols before the next gather. All per-round
    temporaries are allocated once and reused through ``out=`` kernels,
    and the symbol/length LUTs are fused into one uint16 table so each
    symbol costs a single gather. Steps past a short final chunk read
    zero padding and are discarded. Costs ``min(chunk, n)`` Python
    rounds regardless of the lane count.
    """
    n, chunk, max_len, _, n_chunks, offsets, payload = stream
    lut16 = _fused_lut(stream)

    steps = min(chunk, n)
    # Symbols safely decodable from one 64-bit window: symbol s needs
    # bits [r + sum(l_1..l_s), +max_len) with r <= 7, l_i <= max_len.
    per_gather = 1 + (64 - 7 - max_len) // max_len
    # Pad so unclamped cursors (which advance past ragged chunk tails
    # by <= max_len bits/step) always have a full window to read.
    # The windows stay a zero-copy byte-strided view (materializing
    # them would transiently cost ~8 bytes per payload byte); each
    # round byteswaps only its small gathered slice.
    extra = ((steps * max_len + 7) >> 3) + 8
    windows = sliding_windows_u64(payload, extra=extra)

    # Signed lane state: a lane's shift may legitimately go negative
    # after its final symbol of a round (int64 makes that harmless);
    # a symbol is extracted only while every lane's shift is still
    # provably >= 0 at use time.
    shift_base = np.int64(64 - max_len)
    mask = np.int64((1 << max_len) - 1)
    cursors = (offsets[:-1] * 8).astype(np.int64)
    out16 = np.empty((n_chunks, chunk), dtype=np.uint16)
    byte_idx = np.empty(n_chunks, dtype=np.int64)
    shift = np.empty(n_chunks, dtype=np.int64)
    val = np.empty(n_chunks, dtype=np.int64)
    comb = np.empty(n_chunks, dtype=np.uint16)
    lens = np.empty(n_chunks, dtype=np.uint16)
    step = 0
    while step < steps:
        np.right_shift(cursors, 3, out=byte_idx)
        # Fancy indexing, not take(out=): np.take's buffered path on
        # the byte-strided source is ~60x slower than this gather.
        # The int64 view makes the arithmetic shift below type-clean;
        # sign-extension only pollutes bits the mask discards.
        win = windows[byte_idx]
        if NEEDS_BYTESWAP:
            win.byteswap(inplace=True)  # MSB-first window values
        win = win.view(np.int64)
        np.bitwise_and(cursors, 7, out=shift)
        np.subtract(shift_base, shift, out=shift)
        peel = min(per_gather, steps - step)
        while peel > 0:
            for _ in range(peel):
                np.right_shift(win, shift, out=val)
                np.bitwise_and(val, mask, out=val)
                np.take(lut16, val, out=comb)
                out16[:, step] = comb
                np.right_shift(comb, 8, out=lens)
                np.subtract(shift, lens, out=shift, casting="unsafe")
                np.add(cursors, lens, out=cursors, casting="unsafe")
                step += 1
            if step >= steps:
                break
            # Short codes rarely exhaust the window in `per_gather`
            # worst-case peels: keep peeling from the same gather
            # while the tightest lane still has a full-length code
            # (min//max_len more subtractions provably stay valid).
            peel = min(int(shift.min()) // max_len + 1, steps - step)
    return (out16 & np.uint16(0xFF)).astype(np.uint8).reshape(-1)[:n]


def _decode_jump(stream: _Stream) -> np.ndarray:
    """Pointer-doubling decode: O(log chunk) vectorized rounds.

    1. For every payload bit position ``p`` one pass reads the
       ``max_len``-bit window at ``p`` (a 24-bit big-endian gather per
       byte, shifted per ``p & 7``) and looks it up in the fused LUT,
       giving ``sym[p]`` and ``nxt[p] = p + len[p]`` — the position of
       the next symbol *if* a symbol starts at ``p``. Positions past the
       payload clamp to a sentinel that jumps to itself.
    2. With ``K = ceil(log2(min(chunk, n)))``, ``K - 1`` doubling
       rounds compose ``jump_k = nxt^(2^k)`` for ``k < K``.
    3. Starting from every chunk's byte-aligned start, K expansion
       rounds interleave ``(pos, jump_k[pos])`` (k = K-1 … 0), so row c
       lists the bit positions of chunk c's symbols in order.

    Every chunk starts at a true code boundary, so each listed position
    is one, and ``sym`` at those positions is exactly what the lockstep
    walk decodes. Slots past a short final chunk are discarded.
    """
    n, chunk, max_len, _, n_chunks, offsets, payload = stream
    lut16 = _fused_lut(stream)
    steps = min(chunk, n)
    nbytes = int(offsets.max())
    nbits = nbytes * 8

    # 24-bit big-endian window per byte covers max_len (<= 16) bits at
    # any of the byte's 8 bit offsets.
    padded = np.zeros(nbytes + 2, dtype=np.int32)
    padded[:nbytes] = payload[:nbytes]
    w24 = padded[:-2] << 16
    w24 |= padded[1:-1] << 8
    w24 |= padded[2:]
    shifts = (24 - max_len) - np.arange(8, dtype=np.int32)
    vals = (w24[:, None] >> shifts) & np.int32((1 << max_len) - 1)
    comb = lut16[vals.reshape(-1)]

    sym = np.zeros(nbits + 1, dtype=np.uint8)
    np.copyto(sym[:nbits], comb, casting="unsafe")  # low byte = symbol
    # intp tables: NumPy converts any other index dtype before a gather,
    # which costs as much as the gather itself.
    nxt = np.empty(nbits + 1, dtype=np.intp)
    np.add(np.arange(nbits), comb >> 8, out=nxt[:nbits])
    np.minimum(nxt, nbits, out=nxt)
    nxt[nbits] = nbits

    jumps = [nxt]
    for _ in range(1, _jump_rounds(steps)):
        jumps.append(jumps[-1][jumps[-1]])

    pos = (offsets[:-1] * 8).astype(np.intp).reshape(n_chunks, 1)
    for jump in reversed(jumps):
        pos = np.stack((pos, jump[pos]), axis=2).reshape(n_chunks, -1)
    return sym[pos[:, :steps]].reshape(-1)[:n]


_DEFAULT_CODEC = HuffmanCodec()


def huffman_encode(
    data: np.ndarray | bytes, freqs: np.ndarray | None = None
) -> bytes:
    """Encode bytes with the default chunked canonical Huffman codec.

    ``freqs``, when given, must be ``np.bincount(data, minlength=256)``;
    it lets callers that already histogrammed the buffer (the hybrid
    selector) skip the encoder's second scan.
    """
    return _DEFAULT_CODEC.encode(data, freqs=freqs)


def huffman_decode(blob: bytes) -> np.ndarray:
    """Decode a stream produced by :func:`huffman_encode`."""
    return _DEFAULT_CODEC.decode(blob)


def estimate_huffman_ratio(
    data: np.ndarray, freqs: np.ndarray | None = None
) -> float:
    """Cheap, accurate Huffman CR predictor (Section 5.2).

    Builds the histogram and optimal code lengths, then computes the
    exact payload bits plus header overhead — no encoding performed.
    Pass ``freqs = np.bincount(data, minlength=256)`` to reuse a
    histogram computed elsewhere (the hybrid selector shares one pass
    between this estimate and the eventual encode).
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    if data.size == 0:
        return 1.0
    if freqs is None:
        freqs = np.bincount(data, minlength=256)
    lengths = build_code_lengths(freqs)
    payload_bits = int(np.sum(freqs * lengths.astype(np.int64)))
    n_chunks = -(-data.size // DEFAULT_CHUNK_SYMBOLS)
    header_bytes = struct.calcsize(_HEADER_FMT) + 256 + 4 * (n_chunks + 2)
    est_bytes = header_bytes + ((payload_bits + 7) >> 3) + n_chunks
    return data.size / est_bytes
