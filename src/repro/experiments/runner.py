"""Command-line runner for the paper's artifacts.

Usage::

    python -m repro.experiments.runner list
    python -m repro.experiments.runner table3
    python -m repro.experiments.runner fig11 --preset full
    python -m repro.experiments.runner all --preset full > EXPERIMENTS.md

Each artifact runs with either its ``quick`` preset (small graphs, seconds
per artifact — the configurations the unit tests use) or its ``full`` preset
(the configurations ``benchmarks/`` checks).  stdout is markdown — with
``all --preset full`` it is EXPERIMENTS.md, unedited — and each artifact's
``[… finished in …s]`` line goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple

from repro.experiments import figures, tables
from repro.experiments.records import Item, markdown


class Experiment(NamedTuple):
    """One paper artifact: its title, the function that returns its items,
    and the keyword arguments of its two presets."""

    title: str
    run: Callable[..., List[Item]]
    quick: Dict[str, Any]
    full: Dict[str, Any]


#: The only preset table: ``benchmarks/`` runs every ``full`` entry.
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment("Table I — summary of datasets", tables.table1,
                         {"size": "tiny"}, {"size": "small"}),
    "table2": Experiment("Table II — prediction performance (metric parity)", tables.table2,
                         {"datasets": ["products"], "archs": ["sage"], "size": "tiny",
                          "num_epochs": 2},
                         {"datasets": ["ppi", "products", "mag240m"], "archs": ["sage", "gat"],
                          "size": "tiny", "num_epochs": 4}),
    "table3": Experiment("Table III — time and resource usage on different systems",
                         tables.table3,
                         {"size": "tiny", "num_workers": 16, "archs": ["sage"],
                          "cost_sample_size": 64},
                         {"size": "small", "num_workers": 32, "archs": ["sage", "gat"]}),
    "table4": Experiment("Table IV — time and resource cost vs. hops", tables.table4,
                         {"hops": (1, 2), "num_workers": 4, "cost_sample_size": 48},
                         {"num_workers": 8}),
    "fig7": Experiment("Fig. 7 — prediction consistency under neighbour sampling", figures.fig7,
                       {"fanouts": (2, 8), "num_runs": 4, "num_targets": 96, "size": "tiny",
                        "num_epochs": 2},
                       {"fanouts": (2, 5, 10, 25), "num_runs": 10, "num_targets": 256,
                        "size": "tiny", "num_epochs": 4}),
    "fig8": Experiment("Fig. 8 — cost vs. data scale", figures.fig8,
                       {"scales": (1000, 4000), "backend": "pregel", "num_workers": 4},
                       {"scales": (2000, 8000, 32000), "backend": "mapreduce",
                        "num_workers": 8}),
    "fig9": Experiment("Fig. 9 — per-instance latency vs. in-edge records", figures.fig9,
                       {"num_nodes": 4000, "num_workers": 8, "hidden_dim": 16},
                       {"num_nodes": 20000, "num_workers": 16}),
    "fig10": Experiment("Fig. 10 — time variance for large out-degree strategies",
                        figures.fig10,
                        {"num_nodes": 4000, "num_workers": 8, "hidden_dim": 16},
                        {"num_nodes": 20000, "num_workers": 16}),
    "fig11": Experiment("Fig. 11 — input IO per instance (partial-gather)", figures.fig11,
                        {"num_nodes": 4000, "num_workers": 8, "hidden_dim": 16},
                        {"num_nodes": 20000, "num_workers": 16}),
    "fig12": Experiment("Fig. 12 — output IO per instance (broadcast)", figures.fig12,
                        {"num_nodes": 4000, "num_workers": 8, "hidden_dim": 16},
                        {"num_nodes": 20000, "num_workers": 16}),
    "fig13": Experiment("Fig. 13 — output IO per instance (shadow-nodes)", figures.fig13,
                        {"num_nodes": 4000, "num_workers": 8, "hidden_dim": 16},
                        {"num_nodes": 20000, "num_workers": 16}),
}

HEADER = """\
# The paper's artifacts, reproduced

Written by `python -m repro.experiments.runner all --preset {preset}`; not
edited by hand.  One row per reproduced number:

- **paper** — the value as the paper reports it, on its cluster and its
  datasets; the stand-ins here are thousands of times smaller.
- **simulated** — the reproduction's value: the analytic cost model's for
  times, bytes and cpu·min, else a count or a score.  It is a function of
  the code, and `benchmarks/` fails when this file no longer matches it.
- **host** — the same quantity on the host's clock, where the artifact
  measures one.  It changes from run to run.
- **setting** — the run behind a number that has a paper value; "gap to
  the paper open" marks a difference not yet explained.
"""


def run_experiment(name: str, preset: str = "quick") -> List[Item]:
    """Run one artifact by name with one of its presets and return its items."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    if preset not in ("quick", "full"):
        raise ValueError("preset must be 'quick' or 'full'")
    experiment = EXPERIMENTS[name]
    return experiment.run(**(experiment.quick if preset == "quick" else experiment.full))


def report(name: str, items: List[Item]) -> str:
    """The artifact's markdown section."""
    return markdown(EXPERIMENTS[name].title, items)


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
    if args.experiment == "all":
        print(HEADER.format(preset=args.preset))
    for name in names:
        # perf_counter, not time.time: interval timing must be monotonic
        # (NTP steps would corrupt the reported duration), and it keeps the
        # runner consistent with every other timing site in the repo.
        started = time.perf_counter()
        try:
            items = run_experiment(name, args.preset)
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        print(report(name, items) + "\n")
        print(f"[{name} finished in {time.perf_counter() - started:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
