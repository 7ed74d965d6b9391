"""Command-line runner for the experiment harnesses.

Usage::

    python -m repro.experiments.runner list
    python -m repro.experiments.runner table3
    python -m repro.experiments.runner fig11 --preset full
    python -m repro.experiments.runner all --preset quick

Each experiment is run with either its ``quick`` preset (small graphs, seconds
per experiment — the configurations used by the unit tests) or its ``full``
preset (the configurations used by the benchmark suite, matching the numbers
in EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, Tuple

from repro.experiments import (
    fig7_consistency,
    fig8_scalability,
    fig9_partial_gather,
    fig10_outdegree,
    fig11_io_partial,
    fig12_io_broadcast,
    fig13_io_shadow,
    table1_datasets,
    table2_performance,
    table3_efficiency,
    table4_hops,
)

#: experiment name -> (module, quick kwargs, full kwargs)
EXPERIMENTS: Dict[str, Tuple[object, dict, dict]] = {
    "table1": (table1_datasets, {"size": "tiny"}, {"size": "small"}),
    "table2": (table2_performance,
               {"datasets": ["products"], "archs": ["sage"], "size": "tiny", "num_epochs": 2},
               {"datasets": ["ppi", "products", "mag240m"], "archs": ["sage", "gat"],
                "size": "tiny", "num_epochs": 4}),
    "table3": (table3_efficiency,
               {"size": "tiny", "num_workers": 16, "archs": ["sage"], "cost_sample_size": 64},
               {"size": "small", "num_workers": 32, "archs": ["sage", "gat"]}),
    "table4": (table4_hops,
               {"hops": (1, 2), "num_workers": 4, "cost_sample_size": 48},
               {"num_workers": 8}),
    "fig7": (fig7_consistency,
             {"fanouts": (2, 8), "num_runs": 4, "num_targets": 96, "size": "tiny",
              "num_epochs": 2},
             {"fanouts": (2, 5, 10, 25), "num_runs": 10, "num_targets": 256, "size": "tiny",
              "num_epochs": 4}),
    "fig8": (fig8_scalability,
             {"scales": (1000, 4000), "backend": "pregel", "num_workers": 4},
             {"scales": (2000, 8000, 32000), "backend": "mapreduce", "num_workers": 8}),
    "fig9": (fig9_partial_gather,
             {"num_nodes": 4000, "num_workers": 8, "hidden_dim": 16},
             {"num_nodes": 20000, "num_workers": 16}),
    "fig10": (fig10_outdegree,
              {"num_nodes": 4000, "num_workers": 8, "hidden_dim": 16},
              {"num_nodes": 20000, "num_workers": 16}),
    "fig11": (fig11_io_partial,
              {"num_nodes": 4000, "num_workers": 8, "hidden_dim": 16},
              {"num_nodes": 20000, "num_workers": 16}),
    "fig12": (fig12_io_broadcast,
              {"num_nodes": 4000, "num_workers": 8, "hidden_dim": 16},
              {"num_nodes": 20000, "num_workers": 16}),
    "fig13": (fig13_io_shadow,
              {"num_nodes": 4000, "num_workers": 8, "hidden_dim": 16},
              {"num_nodes": 20000, "num_workers": 16}),
}


def run_experiment(name: str, preset: str = "quick") -> str:
    """Run one experiment by name and return its formatted report."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    if preset not in ("quick", "full"):
        raise ValueError("preset must be 'quick' or 'full'")
    module, quick_kwargs, full_kwargs = EXPERIMENTS[name]
    kwargs = quick_kwargs if preset == "quick" else full_kwargs
    result = module.run(**kwargs)
    return module.format_result(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment", help="experiment name (e.g. table3, fig11), 'all' or 'list'")
    parser.add_argument("--preset", choices=["quick", "full"], default="quick",
                        help="quick = seconds per experiment; full = benchmark configuration")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        # perf_counter, not time.time: interval timing must be monotonic
        # (NTP steps would corrupt the reported duration), and it keeps the
        # runner consistent with every other timing site in the repo.
        started = time.perf_counter()
        try:
            report = run_experiment(name, args.preset)
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        print(report)
        print(f"[{name} finished in {time.perf_counter() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
