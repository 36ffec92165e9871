"""Hot-path wall-clock benchmarks: transpose, bitplane codec, Huffman, RLE.

Also reports (ungated) the write path's per-``Refactorer`` set-up costs:
cold level error weights and Huffman code-length construction.

Times the vectorized fast paths against the retained seed reference
implementations at 1M+ elements, in the same process and run, and writes
the measurements to ``BENCH_hotpaths.json`` at the repo root — the perf
baseline all subsequent performance PRs compare against.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_hotpaths.py

``--smoke`` runs tiny sizes, keeps the fast-vs-reference equality
assertions, skips the speedup floors, and writes nothing — the CI mode.
Or through pytest (the ``bench`` marker keeps it out of the default
test run; ``benchmarks/run_all.sh`` clears the marker filter):

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpaths.py -o addopts= -s
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bitplane.align import AlignedFixedPoint
from repro.bitplane.encoding import (
    decode_bitplanes,
    encode_bitplanes,
    extract_planes,
    extract_planes_reference,
    inject_planes,
    inject_planes_reference,
)
from repro.decompose import MultilevelTransform
from repro.decompose.norms import _level_error_weights, level_error_weights
from repro.lossless.huffman import HuffmanCodec, build_code_lengths
from repro.lossless.rle import rle_decode, rle_encode

pytestmark = pytest.mark.bench

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_hotpaths.json"

N_ELEMENTS = 1 << 20
NUM_BITPLANES = 32
REPS = 7
#: Symbols and chunk size of the small-stream Huffman decode case.
SMALL_STREAM_SYMBOLS = 1792
SMALL_STREAM_CHUNK = 1024
#: Grid of the cold level-error-weight case (perfbench's field shape).
WEIGHTS_SHAPE = (96, 96, 96)
#: build_code_lengths calls per timed repetition (one call is ~0.3 ms).
CODE_LENGTH_CALLS = 100

#: Acceptance floors for ISSUE 1: combined encode+decode and Huffman
#: decode speedups at 1M elements versus the seed paths.
MIN_CODEC_SPEEDUP = 5.0
MIN_HUFFMAN_SPEEDUP = 3.0
#: Acceptance floor for ISSUE 3: word-packed Huffman encode versus the
#: retained per-bit reference packer, measured in the same run.
MIN_HUFFMAN_ENCODE_SPEEDUP = 5.0


# ---------------------------------------------------------------------
# Faithful seed pipeline, built on the retained reference kernels
# ---------------------------------------------------------------------
def _seed_tile_permutation(
    num_elements: int, num_bitplanes: int, warp_size: int = 32
) -> np.ndarray:
    """Seed register-block permutation: rebuilt on every call (no cache)."""
    tile = warp_size * num_bitplanes
    n_full = (num_elements // tile) * tile
    perm = np.arange(num_elements)
    if n_full:
        base = np.arange(num_bitplanes * warp_size).reshape(
            num_bitplanes, warp_size
        ).T.ravel()
        tiles = np.arange(0, n_full, tile)[:, None] + base[None, :]
        perm[:n_full] = tiles.ravel()
    return perm


def _seed_encode(data: np.ndarray, num_bitplanes: int):
    """Seed encode_bitplanes: per-plane transpose, per-call permutation."""
    flat = np.ascontiguousarray(data).reshape(-1)
    if flat.size and not np.isfinite(flat).all():
        raise ValueError("non-finite input")
    abs_vals = np.abs(flat.astype(np.float64, copy=False))
    max_abs = float(abs_vals.max()) if flat.size else 0.0
    exponent = 0 if max_abs == 0.0 else math.frexp(max_abs)[1]
    scale = math.ldexp(1.0, num_bitplanes - exponent)
    mags = np.floor(abs_vals * scale).astype(np.uint64)
    np.minimum(mags, np.uint64((1 << num_bitplanes) - 1), out=mags)
    signs = np.signbit(flat).astype(np.uint8)
    perm = _seed_tile_permutation(flat.size, num_bitplanes)
    planes = extract_planes_reference(signs[perm], mags[perm], num_bitplanes)
    return planes, (exponent, max_abs, flat.size)


def _seed_decode(planes, meta, num_bitplanes: int, dtype) -> np.ndarray:
    """Seed decode_bitplanes: per-plane inject, per-call inverse perm."""
    exponent, max_abs, n = meta
    signs, mags = inject_planes_reference(planes, n, num_bitplanes)
    perm = _seed_tile_permutation(n, num_bitplanes)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    signs = signs[inv]
    mags = mags[inv]
    scale = math.ldexp(1.0, exponent - num_bitplanes)
    values = mags.astype(np.float64) * scale
    values[signs.astype(bool)] *= -1.0
    return values.astype(dtype, copy=False)


# ---------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------
def _best_time(fn, reps: int = REPS):
    """Best-of-reps wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_benchmarks(
    n: int = N_ELEMENTS,
    num_bitplanes: int = NUM_BITPLANES,
    reps: int = REPS,
    weights_shape: tuple[int, ...] = WEIGHTS_SHAPE,
) -> dict:
    """Measure all hot paths; returns the BENCH_hotpaths payload."""
    rng = np.random.default_rng(0)
    data = rng.standard_normal(n).astype(np.float32)

    # -- bitplane transpose stage (the inner hot loop) ------------------
    signs = rng.integers(0, 2, n).astype(np.uint8)
    mags = rng.integers(0, 1 << num_bitplanes, n).astype(np.uint64)
    t_ext_ref, planes_ref = _best_time(
        lambda: extract_planes_reference(signs, mags, num_bitplanes), reps
    )
    t_ext, planes_fast = _best_time(
        lambda: extract_planes(signs, mags, num_bitplanes), reps
    )
    assert all(
        a.tobytes() == b.tobytes() for a, b in zip(planes_ref, planes_fast)
    ), "fast extract diverged from reference"
    t_inj_ref, im_ref = _best_time(
        lambda: inject_planes_reference(planes_ref, n, num_bitplanes), reps
    )
    t_inj, im_fast = _best_time(
        lambda: inject_planes(planes_fast, n, num_bitplanes), reps
    )
    assert np.array_equal(im_ref[0], im_fast[0])
    assert np.array_equal(im_ref[1], im_fast[1])

    # -- end-to-end encode/decode (register_block, the paper default) ---
    t_enc_seed, (seed_planes, seed_meta) = _best_time(
        lambda: _seed_encode(data, num_bitplanes), reps
    )
    t_enc, stream = _best_time(
        lambda: encode_bitplanes(data, num_bitplanes), reps
    )
    t_dec_seed, rec_seed = _best_time(
        lambda: _seed_decode(seed_planes, seed_meta, num_bitplanes,
                             np.float32),
        reps,
    )
    t_dec, rec_fast = _best_time(lambda: decode_bitplanes(stream), reps)
    assert np.array_equal(rec_seed, rec_fast), \
        "fast codec decoded different values than the seed pipeline"

    # -- Huffman ---------------------------------------------------------
    codec = HuffmanCodec()
    hdata = (rng.standard_normal(n) * 6).astype(np.int64).astype(np.uint8)
    t_henc_ref, blob_ref = _best_time(
        lambda: codec.encode_reference(hdata), reps
    )
    t_henc, blob = _best_time(lambda: codec.encode(hdata), reps)
    assert blob == blob_ref, \
        "word-packed encode diverged from the per-bit reference encoder"
    t_hdec_ref, out_ref = _best_time(
        lambda: codec.decode_reference(blob), reps
    )
    t_hdec, out_fast = _best_time(lambda: codec.decode(blob), reps)
    assert np.array_equal(out_ref, out_fast)
    assert np.array_equal(out_fast, hdata)
    # The per-tile group shape of a 16³-tile ROI read: a stream of two
    # chunks, where decode cost is per round, not per byte. Reported
    # only (no *speedup* key): one best-of-N ratio is not a gate.
    small = hdata[:SMALL_STREAM_SYMBOLS]
    small_blob = HuffmanCodec(SMALL_STREAM_CHUNK).encode(small)
    t_sdec_ref, small_ref = _best_time(
        lambda: codec.decode_reference(small_blob), reps
    )
    t_sdec, small_fast = _best_time(lambda: codec.decode(small_blob), reps)
    assert np.array_equal(small_ref, small_fast), \
        "small-stream decode diverged from the reference decoder"
    assert np.array_equal(small_fast, small)

    # -- write-path set-up (reported only, no *speedup* key) -------------
    # Weights are memoized per geometry; clearing the memo before every
    # repetition times the cold cost a new grid shape pays once.
    def cold_weights(mode: str) -> list[float]:
        _level_error_weights.cache_clear()
        return level_error_weights(MultilevelTransform(weights_shape,
                                                       mode=mode))

    t_weights = {
        mode: _best_time(lambda: cold_weights(mode), reps)[0]
        for mode in ("hierarchical", "mgard")
    }
    freqs = rng.integers(1, 1 << 16, 256)
    t_lengths, _ = _best_time(
        lambda: [build_code_lengths(freqs) for _ in range(CODE_LENGTH_CALLS)],
        reps,
    )

    # -- RLE -------------------------------------------------------------
    rdata = np.repeat(
        rng.integers(0, 4, n // 64).astype(np.uint8), 64
    )[:n]
    t_renc, rblob = _best_time(lambda: rle_encode(rdata), reps)
    t_rdec, rout = _best_time(lambda: rle_decode(rblob), reps)
    assert np.array_equal(rout, rdata)

    mb = n / 1e6
    return {
        "benchmark": "hotpaths",
        "generated_unix": time.time(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "num_elements": n,
            "num_bitplanes": num_bitplanes,
            "reps": reps,
        },
        "bitplane_transpose": {
            "extract_reference_ms": t_ext_ref * 1e3,
            "extract_fast_ms": t_ext * 1e3,
            "extract_speedup": t_ext_ref / t_ext,
            "inject_reference_ms": t_inj_ref * 1e3,
            "inject_fast_ms": t_inj * 1e3,
            "inject_speedup": t_inj_ref / t_inj,
            "combined_speedup": (t_ext_ref + t_inj_ref) / (t_ext + t_inj),
        },
        "bitplane_codec": {
            "encode_seed_ms": t_enc_seed * 1e3,
            "encode_fast_ms": t_enc * 1e3,
            "encode_speedup": t_enc_seed / t_enc,
            "decode_seed_ms": t_dec_seed * 1e3,
            "decode_fast_ms": t_dec * 1e3,
            "decode_speedup": t_dec_seed / t_dec,
            "combined_speedup": (t_enc_seed + t_dec_seed) / (t_enc + t_dec),
            "encode_throughput_meps": mb / t_enc,
            "decode_throughput_meps": mb / t_dec,
        },
        "huffman": {
            "encode_reference_ms": t_henc_ref * 1e3,
            "encode_ms": t_henc * 1e3,
            "encode_speedup": t_henc_ref / t_henc,
            "decode_reference_ms": t_hdec_ref * 1e3,
            "decode_fast_ms": t_hdec * 1e3,
            "decode_speedup": t_hdec_ref / t_hdec,
            "encode_throughput_mbps": mb / t_henc,
            "decode_throughput_mbps": mb / t_hdec,
        },
        "huffman_small_stream": {
            "num_symbols": int(small.size),
            "chunk_symbols": SMALL_STREAM_CHUNK,
            "decode_reference_ms": t_sdec_ref * 1e3,
            "decode_fast_ms": t_sdec * 1e3,
            "decode_throughput_mbps": small.size / 1e6 / t_sdec,
        },
        "write_setup": {
            "weights_shape": list(weights_shape),
            "level_error_weights_cold_ms": {
                mode: t * 1e3 for mode, t in t_weights.items()
            },
            "build_code_lengths_256_symbols_us":
                t_lengths / CODE_LENGTH_CALLS * 1e6,
        },
        "rle": {
            "encode_ms": t_renc * 1e3,
            "decode_ms": t_rdec * 1e3,
            "encode_throughput_mbps": mb / t_renc,
            "decode_throughput_mbps": mb / t_rdec,
        },
    }


def write_results(results: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------
# pytest entry points (opt-in via the `bench` marker)
# ---------------------------------------------------------------------
def test_hotpaths_meet_speedup_floors():
    """Fast paths beat the seed paths by the PR's acceptance margins."""
    results = run_benchmarks()
    write_results(results)
    codec = results["bitplane_codec"]
    huff = results["huffman"]
    assert codec["combined_speedup"] >= MIN_CODEC_SPEEDUP, codec
    assert huff["decode_speedup"] >= MIN_HUFFMAN_SPEEDUP, huff
    assert huff["encode_speedup"] >= MIN_HUFFMAN_ENCODE_SPEEDUP, huff


def main(argv: list[str] | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    if "--smoke" in args:
        # Tiny sizes: the equality assertions inside run_benchmarks
        # still exercise every fast-vs-reference pair; no floors, no
        # baseline overwrite.
        run_benchmarks(n=1 << 14, reps=1, weights_shape=(16, 16, 16))
        print("bench_hotpaths smoke ok (tiny sizes, no floors, "
              "nothing written)")
        return
    results = run_benchmarks()
    path = write_results(results)
    print(f"wrote {path}")
    codec = results["bitplane_codec"]
    tr = results["bitplane_transpose"]
    huff = results["huffman"]
    print(
        f"transpose: extract {tr['extract_speedup']:.1f}x, "
        f"inject {tr['inject_speedup']:.1f}x "
        f"(combined {tr['combined_speedup']:.1f}x)"
    )
    print(
        f"bitplane codec: encode {codec['encode_speedup']:.1f}x, "
        f"decode {codec['decode_speedup']:.1f}x "
        f"(combined {codec['combined_speedup']:.1f}x)"
    )
    print(
        f"huffman: encode {huff['encode_speedup']:.1f}x, "
        f"decode {huff['decode_speedup']:.1f}x"
    )
    small = results["huffman_small_stream"]
    print(
        f"huffman small stream ({small['num_symbols']} symbols): decode "
        f"{small['decode_fast_ms']:.2f} ms vs reference "
        f"{small['decode_reference_ms']:.2f} ms"
    )
    setup = results["write_setup"]
    weights = setup["level_error_weights_cold_ms"]
    print(
        f"write set-up: cold level weights at {setup['weights_shape']} "
        f"{weights['hierarchical']:.1f} ms (hierarchical), "
        f"{weights['mgard']:.1f} ms (mgard); build_code_lengths "
        f"{setup['build_code_lengths_256_symbols_us']:.0f} us"
    )
    print(
        f"rle: encode {results['rle']['encode_throughput_mbps']:.0f} MB/s, "
        f"decode {results['rle']['decode_throughput_mbps']:.0f} MB/s"
    )


if __name__ == "__main__":
    main()
