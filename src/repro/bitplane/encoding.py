"""Functional bitplane codec with pluggable parallelization designs.

The heavy lifting is a bit-matrix transpose: ``N`` fixed-point values of
``B`` bits become ``B`` packed bitplanes of ``N`` bits (plus one sign
plane, stored first). The transpose runs as a *single pass* over the
data through :mod:`repro.bitplane.transpose` — one ``unpackbits`` into
an ``(N, B)`` bit matrix, one transpose, one row-wise ``packbits`` —
instead of ``B`` separate shift/mask/pack sweeps (the retained
``*_reference`` functions). Designs differ in the *order* bits land in
the stream — ``natural`` element order for locality-block and
register-shuffle, warp-transposed tiles for register-block — and in
their simulated GPU cost (see :mod:`repro.gpu.costmodel`). Decoded
values are identical across designs (HP-MDR's portability property) and
byte-identical between the single-pass and reference transposes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.bitplane import register_block, transpose
from repro.bitplane.align import (
    AlignedFixedPoint,
    align_to_fixed_point,
    from_fixed_point,
    plane_error_bound,
    scale_pow2,
)
from repro.util.serialize import pack_arrays, unpack_arrays

#: The three parallelization designs of Section 4.
DESIGNS = ("locality_block", "register_shuffle", "register_block")

#: The four register-shuffle instruction variants of Section 4.2.
SHUFFLE_VARIANTS = ("ballot", "shift", "match_any", "reduce_add")

_NATURAL = "natural"
_WARP = "warp"

_HEADER_FMT = "<4sH16s8sBQHiidH"
_MAGIC = b"BPLS"
_VERSION = 1


#: Supported signed-value encodings (MDR offers both).
SIGNED_ENCODINGS = ("sign_magnitude", "negabinary")


@dataclass
class BitplaneStream:
    """An encoded set of bitplanes plus the metadata needed to decode.

    With the default ``sign_magnitude`` encoding, ``planes[0]`` is the
    sign plane and ``planes[1:]`` are magnitude planes from most to
    least significant; with ``negabinary`` all planes are base-(−2)
    digits (no sign plane, one extra digit). Both store
    ``num_bitplanes + 1`` planes of ``ceil(N / 8)`` packed bytes.
    """

    planes: list[np.ndarray]
    num_elements: int
    num_bitplanes: int
    exponent: int
    max_abs: float
    dtype: np.dtype
    design: str = "register_block"
    layout: str = _NATURAL
    warp_size: int = 32
    signed_encoding: str = "sign_magnitude"

    @property
    def num_planes(self) -> int:
        """Total stored planes."""
        return len(self.planes)

    def plane_bytes(self, count: int | None = None) -> int:
        """Total payload bytes of the leading *count* planes."""
        planes = self.planes if count is None else self.planes[:count]
        return int(sum(p.nbytes for p in planes))

    def error_bound(self, fetched_planes: int) -> float:
        """L∞ bound when only the first *fetched_planes* planes are used."""
        if self.signed_encoding == "negabinary":
            from repro.bitplane.negabinary import (
                plane_error_bound_negabinary,
            )

            return plane_error_bound_negabinary(
                self.exponent, self.num_bitplanes, int(fetched_planes),
                self.max_abs,
            )
        # sign_magnitude: plane 0 is the sign plane.
        kept = max(0, int(fetched_planes) - 1)
        return plane_error_bound(
            self.exponent, self.num_bitplanes, kept, self.max_abs
        )

    # -- serialization --------------------------------------------------
    def to_bytes(self) -> bytes:
        header = struct.pack(
            _HEADER_FMT,
            _MAGIC,
            _VERSION,
            self.design.encode().ljust(16, b"\0"),
            self.layout.encode().ljust(8, b"\0"),
            1 if self.dtype == np.dtype(np.float64) else 0,
            self.num_elements,
            self.num_bitplanes,
            self.exponent,
            SIGNED_ENCODINGS.index(self.signed_encoding),
            self.max_abs,
            self.warp_size,
        )
        return header + pack_arrays(self.planes)

    @classmethod
    def from_bytes(cls, buf: bytes | memoryview) -> "BitplaneStream":
        """Zero-copy deserialization: planes are read-only views of *buf*."""
        head_size = struct.calcsize(_HEADER_FMT)
        (magic, version, design, layout, is64, n, b, exponent, enc_id,
         max_abs, warp) = struct.unpack_from(_HEADER_FMT, buf, 0)
        if magic != _MAGIC:
            raise ValueError("not a bitplane stream")
        if version != _VERSION:
            raise ValueError(f"unsupported bitplane stream version {version}")
        if enc_id >= len(SIGNED_ENCODINGS):
            raise ValueError(f"unknown signed encoding id {enc_id}")
        payloads = unpack_arrays(memoryview(buf)[head_size:])
        planes = [np.frombuffer(p, dtype=np.uint8) for p in payloads]
        return cls(
            planes=planes,
            num_elements=n,
            num_bitplanes=b,
            exponent=exponent,
            max_abs=max_abs,
            dtype=np.dtype(np.float64 if is64 else np.float32),
            design=design.rstrip(b"\0").decode(),
            layout=layout.rstrip(b"\0").decode(),
            warp_size=warp,
            signed_encoding=SIGNED_ENCODINGS[enc_id],
        )


# ---------------------------------------------------------------------
# Plane extraction / injection on natural-order fixed-point values
# ---------------------------------------------------------------------
def extract_planes(
    signs: np.ndarray, mags: np.ndarray, num_bitplanes: int
) -> list[np.ndarray]:
    """Transpose sign+magnitude integers into packed bitplanes.

    Single-pass bit-matrix transpose (see
    :mod:`repro.bitplane.transpose`), most significant plane first;
    byte-identical to :func:`extract_planes_reference` (which also
    serves as the endian-neutral fallback on big-endian hosts).
    """
    if not transpose.HOST_SUPPORTED:
        return extract_planes_reference(signs, mags, num_bitplanes)
    return transpose.transpose_sign_magnitude(signs, mags, num_bitplanes)


def inject_planes(
    planes: list[np.ndarray],
    num_elements: int,
    num_bitplanes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`extract_planes` for the available planes.

    Missing trailing planes decode as zero bits (progressive truncation).
    """
    if not transpose.HOST_SUPPORTED:
        return inject_planes_reference(planes, num_elements, num_bitplanes)
    return transpose.untranspose_sign_magnitude(
        planes, num_elements, num_bitplanes
    )


def extract_planes_reference(
    signs: np.ndarray, mags: np.ndarray, num_bitplanes: int
) -> list[np.ndarray]:
    """Per-plane reference transpose: one shift/mask/pack pass per plane.

    Retained for equivalence tests and the ``bench_hotpaths`` baseline;
    production call sites use the single-pass :func:`extract_planes`.
    """
    planes = [np.packbits(signs, bitorder="little")]
    for b in range(num_bitplanes - 1, -1, -1):
        bits = ((mags >> np.uint64(b)) & np.uint64(1)).astype(np.uint8)
        planes.append(np.packbits(bits, bitorder="little"))
    return planes


def inject_planes_reference(
    planes: list[np.ndarray],
    num_elements: int,
    num_bitplanes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-plane reference inverse of :func:`extract_planes_reference`."""
    signs = np.zeros(num_elements, dtype=np.uint8)
    mags = np.zeros(num_elements, dtype=np.uint64)
    if not planes:
        return signs, mags
    signs = np.unpackbits(
        planes[0], count=num_elements, bitorder="little"
    ).astype(np.uint8)
    for i, plane in enumerate(planes[1:]):
        bit_index = num_bitplanes - 1 - i
        if bit_index < 0:
            raise ValueError("more magnitude planes than num_bitplanes")
        bits = np.unpackbits(plane, count=num_elements, bitorder="little")
        mags |= bits.astype(np.uint64) << np.uint64(bit_index)
    return signs, mags


# ---------------------------------------------------------------------
# Public codec entry points
# ---------------------------------------------------------------------
def extract_code_planes(codes: np.ndarray, width: int) -> list[np.ndarray]:
    """Transpose unsigned codes into *width* packed planes, MSB first."""
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    if not transpose.HOST_SUPPORTED:
        return extract_code_planes_reference(codes, width)
    return transpose.words_to_planes(codes, width)


def inject_code_planes(
    planes: list[np.ndarray], num_elements: int, width: int
) -> np.ndarray:
    """Inverse of :func:`extract_code_planes`; missing planes are zero."""
    if len(planes) > width:
        raise ValueError("more planes than code width")
    if not transpose.HOST_SUPPORTED:
        return inject_code_planes_reference(planes, num_elements, width)
    return transpose.planes_to_words(planes, num_elements, width)


def extract_code_planes_reference(
    codes: np.ndarray, width: int
) -> list[np.ndarray]:
    """Per-plane reference for :func:`extract_code_planes`."""
    planes = []
    for b in range(width - 1, -1, -1):
        bits = ((codes >> np.uint64(b)) & np.uint64(1)).astype(np.uint8)
        planes.append(np.packbits(bits, bitorder="little"))
    return planes


def inject_code_planes_reference(
    planes: list[np.ndarray], num_elements: int, width: int
) -> np.ndarray:
    """Per-plane reference for :func:`inject_code_planes`."""
    if len(planes) > width:
        raise ValueError("more planes than code width")
    codes = np.zeros(num_elements, dtype=np.uint64)
    for i, plane in enumerate(planes):
        bits = np.unpackbits(plane, count=num_elements, bitorder="little")
        codes |= bits.astype(np.uint64) << np.uint64(width - 1 - i)
    return codes


def encode_bitplanes(
    data: np.ndarray,
    num_bitplanes: int = 32,
    design: str = "register_block",
    warp_size: int = 32,
    signed_encoding: str = "sign_magnitude",
) -> BitplaneStream:
    """Encode a float array into a :class:`BitplaneStream`.

    ``design`` selects the parallelization strategy being modeled; the
    register-block design permutes elements into its coalesced
    warp-transposed order before extraction (Section 4.3), the others
    keep natural order. ``signed_encoding`` picks sign+magnitude planes
    (default) or the negabinary representation.
    """
    if design not in DESIGNS:
        raise ValueError(f"design must be one of {DESIGNS}, got {design!r}")
    if signed_encoding not in SIGNED_ENCODINGS:
        raise ValueError(
            f"signed_encoding must be one of {SIGNED_ENCODINGS}, "
            f"got {signed_encoding!r}"
        )
    layout = _NATURAL
    if design == "register_block":
        # Permute the (narrow) float input instead of the sign +
        # magnitude words: fixed-point conversion is elementwise apart
        # from the global max reduction, so the planes are identical
        # and the gather moves far fewer bytes.
        flat = np.ascontiguousarray(data).reshape(-1)
        perm = register_block.tile_permutation(
            flat.size, num_bitplanes, warp_size
        )
        data = flat[perm]
        layout = _WARP
    aligned = align_to_fixed_point(data, num_bitplanes)
    signs, mags = aligned.signs, aligned.magnitudes
    if signed_encoding == "negabinary":
        from repro.bitplane.negabinary import negabinary_width, to_negabinary

        signed = np.where(signs.astype(bool), -mags.astype(np.int64),
                          mags.astype(np.int64))
        codes = to_negabinary(signed)
        planes = extract_code_planes(codes, negabinary_width(num_bitplanes))
    else:
        planes = extract_planes(signs, mags, num_bitplanes)
    return BitplaneStream(
        planes=planes,
        num_elements=aligned.num_elements,
        num_bitplanes=num_bitplanes,
        exponent=aligned.exponent,
        max_abs=aligned.max_abs,
        dtype=aligned.dtype,
        design=design,
        layout=layout,
        warp_size=warp_size,
        signed_encoding=signed_encoding,
    )


def decode_bitplanes(
    stream: BitplaneStream, num_planes: int | None = None
) -> np.ndarray:
    """Decode the leading *num_planes* planes back to float values.

    ``num_planes`` counts stored planes from the most significant;
    ``None`` uses all available. Works for streams produced by any
    design (portability).
    """
    total = stream.num_planes
    k = total if num_planes is None else int(num_planes)
    if not 0 <= k <= total:
        raise ValueError(f"num_planes must be in [0, {total}], got {k}")
    if stream.signed_encoding == "negabinary":
        return _decode_negabinary(stream, k)
    signs, mags = inject_planes(
        stream.planes[:k], stream.num_elements, stream.num_bitplanes
    )
    aligned = AlignedFixedPoint(
        signs=signs,
        magnitudes=mags,
        exponent=stream.exponent,
        num_bitplanes=stream.num_bitplanes,
        max_abs=stream.max_abs,
        dtype=stream.dtype,
    )
    kept = max(0, k - 1)
    values = from_fixed_point(aligned, kept_planes=kept)
    if stream.layout == _WARP:
        # Fixed-point -> float is elementwise, so un-permuting the final
        # (narrower) float array moves fewer bytes than un-permuting the
        # sign + magnitude words.
        inv = register_block.inverse_tile_permutation(
            stream.num_elements, stream.num_bitplanes, stream.warp_size
        )
        values = values[inv]
    return values


def _decode_negabinary(stream: BitplaneStream, k: int) -> np.ndarray:
    """Decode the leading *k* negabinary planes to float values."""
    from repro.bitplane.negabinary import from_negabinary, negabinary_width

    width = negabinary_width(stream.num_bitplanes)
    codes = inject_code_planes(
        stream.planes[:k], stream.num_elements, width
    )
    if stream.layout == _WARP:
        inv = register_block.inverse_tile_permutation(
            stream.num_elements, stream.num_bitplanes, stream.warp_size
        )
        codes = codes[inv]
    signed = from_negabinary(codes)
    values = scale_pow2(
        signed.astype(np.float64),
        stream.exponent - stream.num_bitplanes,
    )
    return values.astype(stream.dtype, copy=False)


# ---------------------------------------------------------------------
# Incremental (resumable) decoding
# ---------------------------------------------------------------------
@dataclass
class PartialDecodeState:
    """Integer-domain decode state retained between refinement steps.

    ``words`` accumulates the injected plane bits — fixed-point
    magnitudes under ``sign_magnitude``, base-(−2) digits under
    ``negabinary``. Each stored plane contributes a disjoint bit
    position, so injecting planes ``[p, q)`` into a state holding
    ``[0, p)`` is exact: the algebraic fact that makes progressive
    refinement pay only for the increment. Treat instances as
    immutable; :func:`apply_planes` returns a new state, so a failed
    refinement step can simply keep the old one. ``words`` is ``None``
    until the first plane that carries bits into it lands (all-zero
    bits): the first :func:`apply_planes` then adopts the injected words
    as they are instead of OR-ing them into a zero-filled buffer.
    """

    words: np.ndarray | None  # uint64 magnitudes / negabinary codes
    signs: np.ndarray | None  # uint8 sign bits (sign_magnitude only)
    planes_applied: int
    num_elements: int
    num_bitplanes: int
    exponent: int
    max_abs: float
    dtype: np.dtype
    layout: str
    warp_size: int
    signed_encoding: str

    @property
    def total_planes(self) -> int:
        """Stored planes of the full stream this state resumes."""
        if self.signed_encoding == "negabinary":
            from repro.bitplane.negabinary import negabinary_width

            return negabinary_width(self.num_bitplanes)
        return self.num_bitplanes + 1

    @property
    def nbytes(self) -> int:
        """Resident bytes of the retained arrays."""
        total = 0 if self.words is None else int(self.words.nbytes)
        if self.signs is not None:
            total += int(self.signs.nbytes)
        return total


def begin_decode_state(
    *,
    num_elements: int,
    num_bitplanes: int,
    exponent: int,
    max_abs: float,
    dtype: np.dtype,
    layout: str = _NATURAL,
    warp_size: int = 32,
    signed_encoding: str = "sign_magnitude",
) -> PartialDecodeState:
    """Zero-plane :class:`PartialDecodeState` for a stream's metadata."""
    if signed_encoding not in SIGNED_ENCODINGS:
        raise ValueError(
            f"signed_encoding must be one of {SIGNED_ENCODINGS}, "
            f"got {signed_encoding!r}"
        )
    return PartialDecodeState(
        words=None,
        signs=None,
        planes_applied=0,
        num_elements=int(num_elements),
        num_bitplanes=int(num_bitplanes),
        exponent=int(exponent),
        max_abs=float(max_abs),
        dtype=np.dtype(dtype),
        layout=layout,
        warp_size=int(warp_size),
        signed_encoding=signed_encoding,
    )


def apply_planes(
    state: PartialDecodeState,
    planes: list[np.ndarray],
    start_plane: int,
) -> PartialDecodeState:
    """New state with *planes* ``[start_plane, start_plane + len)`` injected.

    ``start_plane`` must equal ``state.planes_applied`` (refinement is
    contiguous); the input state is never mutated, so callers can commit
    the returned state only once a whole multi-level step succeeded.
    """
    planes = list(planes)
    if start_plane != state.planes_applied:
        raise ValueError(
            f"planes must resume at plane {state.planes_applied}, "
            f"got start_plane={start_plane}"
        )
    end = start_plane + len(planes)
    if end > state.total_planes:
        raise ValueError(
            f"planes [{start_plane}, {end}) exceed the stream's "
            f"{state.total_planes} stored planes"
        )
    if not planes:
        return state
    words = state.words
    signs = state.signs
    n = state.num_elements
    if state.signed_encoding == "negabinary":
        from repro.bitplane.negabinary import negabinary_width

        # Absolute plane j targets bit (width - 1 - j); a slice starting
        # at plane p therefore injects exactly like the leading planes
        # of a (width - p)-bit code.
        width = negabinary_width(state.num_bitplanes)
        words = _accumulate(
            words, inject_code_planes(planes, n, width - start_plane)
        )
    else:
        mag_planes = planes
        mag_start = start_plane - 1
        if start_plane == 0:
            signs = np.unpackbits(
                np.ascontiguousarray(planes[0], dtype=np.uint8),
                count=n, bitorder="little",
            ).astype(np.uint8)
            mag_planes = planes[1:]
            mag_start = 0
        if mag_planes:
            # Magnitude plane m targets bit (B - 1 - m): same shifted-
            # width trick as above.
            words = _accumulate(words, inject_code_planes(
                mag_planes, n, state.num_bitplanes - mag_start
            ))
    return PartialDecodeState(
        words=words,
        signs=signs,
        planes_applied=end,
        num_elements=state.num_elements,
        num_bitplanes=state.num_bitplanes,
        exponent=state.exponent,
        max_abs=state.max_abs,
        dtype=state.dtype,
        layout=state.layout,
        warp_size=state.warp_size,
        signed_encoding=state.signed_encoding,
    )


def _accumulate(words: np.ndarray | None, injected: np.ndarray) -> np.ndarray:
    """``words | injected`` as a new array; the first planes land as-is.

    ``injected`` is a fresh array from the plane injector, so adopting
    it leaves no alias to any earlier state.
    """
    if words is None:
        return injected
    return np.bitwise_or(words, injected)


def finalize_decode(state: PartialDecodeState) -> np.ndarray:
    """Float values of a partial state — bit-identical to a full decode.

    Equals ``decode_bitplanes(stream, state.planes_applied)`` for the
    stream the state was built from (tested property); the state itself
    is left untouched so further planes can still be applied.
    """
    words = state.words
    if words is None:
        words = np.zeros(state.num_elements, dtype=np.uint64)
    if state.signed_encoding == "negabinary":
        codes = words
        if state.layout == _WARP:
            inv = register_block.inverse_tile_permutation(
                state.num_elements, state.num_bitplanes, state.warp_size
            )
            codes = codes[inv]
        from repro.bitplane.negabinary import from_negabinary

        signed = from_negabinary(codes)
        values = scale_pow2(
            signed.astype(np.float64),
            state.exponent - state.num_bitplanes,
        )
        return values.astype(state.dtype, copy=False)
    signs = state.signs
    if signs is None:
        signs = np.zeros(state.num_elements, dtype=np.uint8)
    aligned = AlignedFixedPoint(
        signs=signs,
        magnitudes=words,
        exponent=state.exponent,
        num_bitplanes=state.num_bitplanes,
        max_abs=state.max_abs,
        dtype=state.dtype,
    )
    kept = max(0, state.planes_applied - 1)
    values = from_fixed_point(aligned, kept_planes=kept)
    if state.layout == _WARP:
        inv = register_block.inverse_tile_permutation(
            state.num_elements, state.num_bitplanes, state.warp_size
        )
        values = values[inv]
    return values


def _check_state_matches(
    state: PartialDecodeState, stream: BitplaneStream
) -> None:
    for attr in (
        "num_elements", "num_bitplanes", "exponent", "max_abs",
        "dtype", "layout", "warp_size", "signed_encoding",
    ):
        if getattr(state, attr) != getattr(stream, attr):
            raise ValueError(
                f"decode state does not match stream: {attr} "
                f"{getattr(state, attr)!r} != {getattr(stream, attr)!r}"
            )


def decode_bitplanes_incremental(
    stream: BitplaneStream,
    num_planes: int | None = None,
    state: PartialDecodeState | None = None,
) -> tuple[np.ndarray, PartialDecodeState]:
    """Resumable :func:`decode_bitplanes`: decode only the new planes.

    With ``state=None`` this decodes planes ``[0, num_planes)`` and
    returns the values plus the retained state; passing that state back
    with a larger ``num_planes`` decodes only planes
    ``[state.planes_applied, num_planes)`` and injects them into the
    retained integer partials. The returned values are bit-identical to
    ``decode_bitplanes(stream, num_planes)`` at every step.
    """
    total = stream.num_planes
    k = total if num_planes is None else int(num_planes)
    if not 0 <= k <= total:
        raise ValueError(f"num_planes must be in [0, {total}], got {k}")
    if state is None:
        state = begin_decode_state(
            num_elements=stream.num_elements,
            num_bitplanes=stream.num_bitplanes,
            exponent=stream.exponent,
            max_abs=stream.max_abs,
            dtype=stream.dtype,
            layout=stream.layout,
            warp_size=stream.warp_size,
            signed_encoding=stream.signed_encoding,
        )
    else:
        _check_state_matches(state, stream)
    if k < state.planes_applied:
        raise ValueError(
            f"state already holds {state.planes_applied} planes; "
            f"cannot decode back down to {k} (build a fresh state)"
        )
    state = apply_planes(
        state, stream.planes[state.planes_applied:k], state.planes_applied
    )
    return finalize_decode(state), state


# Short aliases used across the library.
encode = encode_bitplanes
decode = decode_bitplanes
