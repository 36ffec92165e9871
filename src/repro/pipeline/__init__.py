"""Pipeline optimization (paper Section 6.1) and multi-GPU scaling.

Large datasets are processed as sub-domains that stream through the
HDEM engines; Figure 4's dependency DAGs let input prefetch, kernels,
and output copies overlap while keeping the exclusive (yellow) lossless
stages correct. This package provides:

* :mod:`~repro.pipeline.dag` — the exact Fig. 4(a)/(b) DAG builders for
  refactoring and reconstruction, plus their serial baselines;
* :mod:`~repro.pipeline.scheduler` — stage-cost derivation from the
  kernel cost model and pipelined-vs-serial speedup evaluation (Fig. 9);
* :mod:`~repro.pipeline.executor` — runs *real* per-subdomain work in
  DAG order while accounting simulated time (results are real, timing
  is modeled);
* :mod:`~repro.pipeline.multigpu` — single-node weak scaling with host
  link contention and barrier overhead (Fig. 10, Fig. 14);
* :mod:`~repro.pipeline.retrieval` — the Fig. 4 stage discipline run on
  the *real* retrieval stack: bounded-window fetch/decode/recompose
  overlap for tiled and untiled progressive steps, bit-identical to the
  sequential paths.
"""

import importlib

# The DAG builders and the simulated executor need networkx, which is not
# a core dependency; the retrieval runtime (used by ``repro.core``) needs
# only numpy. Resolve each public name on first access so importing
# ``repro.pipeline.retrieval`` never pulls in networkx.
_EXPORTS = {
    "build_refactor_dag": "dag",
    "build_reconstruct_dag": "dag",
    "serial_chain": "dag",
    "StageCosts": "scheduler",
    "refactor_stage_costs": "scheduler",
    "reconstruct_stage_costs": "scheduler",
    "pipeline_speedup": "scheduler",
    "PipelinedExecutor": "executor",
    "RetrievalPipeline": "retrieval",
    "pipelined_reconstruct": "retrieval",
    "NodeSpec": "multigpu",
    "TALAPAS_NODE": "multigpu",
    "FRONTIER_NODE": "multigpu",
    "weak_scaling": "multigpu",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = list(_EXPORTS)
