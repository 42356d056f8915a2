"""Benchmark harnesses for the paper's evaluation.

* :mod:`repro.bench.workloads` — the evaluation workloads (the 10000
  64-byte-object list of Figure 5, plus graph shapes for ablations);
* :mod:`repro.bench.deepcall` — big-stack thread runner (the recursive
  tests go 10000+ frames deep);
* :mod:`repro.bench.figure5` — tests A1/A2/B1/B2 across swap-cluster
  sizes 20/50/100 and the NO-SWAP lower bound;
* :mod:`repro.bench.report` — paper-vs-measured tables and shape checks.
* :mod:`repro.bench.runner` — ``python -m repro bench <name|all>``: runs
  one of the swap benches (hotpath, delta, durability, codec,
  async_sched, topology, tenancy, scenarios) and checks the gates it
  declares.

Run the full Figure 5 reproduction with::

    python -m repro.bench.figure5
"""

from repro.bench.workloads import BenchNode, build_list, build_managed_list
from repro.bench.deepcall import run_deep
from repro.bench.figure5 import (
    Figure5Config,
    Figure5Result,
    run_figure5,
    run_single,
    TESTS,
    CLUSTER_SIZES,
)
from repro.bench.report import PAPER_FIGURE5, format_figure5_table, check_shape
from repro.bench.model import (
    TraversalModel,
    fit_traversal_model,
    holdout_error,
)
from repro.bench.sweep import Sweep
from repro.bench.hotpath import (
    HotPathConfig,
    HotPathReport,
    run_hotpath,
    format_table as format_hotpath_table,
)
from repro.bench.delta import (
    DeltaBenchConfig,
    DeltaBenchReport,
    run_delta_bench,
    format_table as format_delta_table,
)

__all__ = [
    "BenchNode",
    "build_list",
    "build_managed_list",
    "run_deep",
    "Figure5Config",
    "Figure5Result",
    "run_figure5",
    "run_single",
    "TESTS",
    "CLUSTER_SIZES",
    "PAPER_FIGURE5",
    "format_figure5_table",
    "check_shape",
    "TraversalModel",
    "fit_traversal_model",
    "holdout_error",
    "Sweep",
    "HotPathConfig",
    "HotPathReport",
    "run_hotpath",
    "format_hotpath_table",
    "DeltaBenchConfig",
    "DeltaBenchReport",
    "run_delta_bench",
    "format_delta_table",
]
