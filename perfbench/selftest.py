"""Self-tests of the benchmark itself.

The seeded-slowdown test runs ``roi_sessions`` three ways on the same
seeds — unchanged, with a fixed sleep injected around every Huffman
decode from the benchmark side, and unchanged again — and checks that
the comparison flags the slowed set as worse and passes the unchanged
rerun. On this workload every Huffman decode falls in a session's first
step (the leading plane groups of each tile are the only ones that
compress well enough to pick Huffman; refinement steps decode RLE and
direct-copy groups), so the slowdown shows in ``first_step_ms_p50`` and
``retrieve_mbps``, not in ``step_ms_p50``. It takes a few minutes:

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402

SEEDS = (101, 102, 103)
SECONDS = 8
#: About 50 Huffman decodes fall in each session's first step (≈0.7 s),
#: so 10 ms each slows it by about 70%, well past the 25% bound.
SLOW_HUFFMAN_MS = 10.0
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _runs(tag: str, slow_ms: float = 0.0) -> dict[str, list[dict]]:
    out_dir = ROOT / ".perfbench" / "selftest"
    paths = []
    for seed in SEEDS:
        path = out_dir / f"{tag}-{seed}.json"
        subprocess.run(
            [sys.executable, str(HERE / "run.py"),
             "--workload", "roi_sessions", "--seed", str(seed),
             "--seconds", str(SECONDS), "--trace", "0",
             "--slow-huffman-ms", str(slow_ms), "--out", str(path)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=300,
        )
        paths.append(path)
    return compare.load(paths)


@pytest.fixture(scope="module")
def base():
    return _runs("base")


def test_slowed_huffman_decode_is_flagged(base):
    slowed = _runs("slow", SLOW_HUFFMAN_MS)
    verdict = compare.verdicts(base, slowed, BENCH["end_to_end"])
    assert verdict["roi_sessions", "first_step_ms_p50"]["worse"], verdict
    assert verdict["roi_sessions", "retrieve_mbps"]["worse"], verdict
    assert all(r["result"]["correct"] for r in slowed["roi_sessions"])


def test_unchanged_rerun_passes(base):
    rerun = _runs("rerun")
    assert compare.compare(base, rerun, BENCH["end_to_end"]) == 0


def _fake(fingerprint: dict) -> dict:
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in BENCH["end_to_end"]}
    return {"result": {"correct": True, "metrics": metrics},
            "detail": {"workload": "roi_sessions", "trace": 0,
                       "fingerprint": fingerprint}}


def test_different_fingerprints_refuse_a_verdict(capsys):
    out_dir = ROOT / ".perfbench" / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    a, b = out_dir / "fingerprint-a.json", out_dir / "fingerprint-b.json"
    a.write_text(json.dumps(_fake({"cpu_count": 2})))
    b.write_text(json.dumps(_fake({"cpu_count": 8})))
    status = compare.main(["compare", "--base", str(a), "--new", str(b)])
    assert status == 3
    assert "not comparable" in capsys.readouterr().out


def test_store_latency_is_recorded_in_benchmark_json():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    why = {w["name"]: w["why"] for w in BENCH["workloads"]}["roi_sessions"]
    assert f"{workloads.ROI_LATENCY_S * 1e3:g} ms" in why
