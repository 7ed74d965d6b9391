"""The paper's artifacts — Tables I–IV and Figs. 7–13 — at their full presets.

This directory holds the paper's artifacts only.  Each test runs one entry
of ``repro.experiments.runner.EXPERIMENTS`` with its ``full`` preset, holds
the artifact's floors below (the shape of the paper's claim; the paper's
value sits in each record) and checks that EXPERIMENTS.md shows the
simulated values this run made, so a stale document fails here.
pytest-benchmark records each run's time; nothing asserts on it: wall clock
is judged by ``bench/`` against ``BENCHMARK.json``.
"""

from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.experiments.records import values
from repro.experiments.runner import EXPERIMENTS, HEADER, report, run_experiment

DOC = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
REGENERATE = "python -m repro.experiments.runner all --preset full > EXPERIMENTS.md"

Values = Dict[str, float]
FLOORS: Dict[str, Callable[[Values], None]] = {}


def floor(name: str) -> Callable[[Callable[[Values], None]], Callable[[Values], None]]:
    def register(check: Callable[[Values], None]) -> Callable[[Values], None]:
        FLOORS[name] = check
        return check
    return register


def tails(v: Values) -> List[float]:
    """Tail IO reductions of a threshold sweep, heuristic threshold first."""
    return [value for metric, value in v.items() if metric.startswith("tail IO reduction")]


@floor("table1")
def _(v: Values) -> None:
    assert sum(metric.endswith(" #node") for metric in v) == 4


@floor("table2")
def _(v: Values) -> None:
    assert sum(metric.endswith(" pregel") for metric in v) == 6
    assert v["max metric gap between pipelines"] < 1e-6


@floor("table3")
def _(v: Values) -> None:
    # Large speed-ups, Pregel ahead of MapReduce.
    assert v["sage pregel speedup over pyg_like"] > 10
    assert v["sage pregel resource saving over pyg_like"] > 10
    assert v["sage pregel time"] < v["sage mapreduce time"]


@floor("table4")
def _(v: Values) -> None:
    assert v["nbr10000 time growth 1→3 hops"] > v["ours time growth 1→3 hops"]
    assert v["nbr10000 3-hop OOM"]
    assert not v["ours 3-hop OOM"]


@floor("fig7")
def _(v: Values) -> None:
    # Smaller fanout -> more unstable predictions; InferTurbo never flips.
    assert v["sampling fanout=2 unstable nodes"] > v["sampling fanout=25 unstable nodes"]
    assert v["InferTurbo (full graph) unstable nodes"] == 0.0


@floor("fig8")
def _(v: Values) -> None:
    assert 0.8 < v["log-log slope of resource vs. edges"] < 1.2
    assert 0.8 < v["log-log slope of time vs. edges"] < 1.2


@floor("fig9")
def _(v: Values) -> None:
    assert v["partial-gather variance of instance time"] < v["base variance of instance time"]
    assert v["partial-gather max/mean instance time"] <= v["base max/mean instance time"]


@floor("fig10")
def _(v: Values) -> None:
    variance = {name: v[f"{name} variance of instance time"]
                for name in ("base", "SN", "BC", "SN+BC")}
    assert variance["SN"] < variance["base"]
    assert variance["BC"] < variance["base"]
    assert variance["SN+BC"] < variance["base"]
    assert variance["SN+BC"] <= min(variance["SN"], variance["BC"])


@floor("fig11")
def _(v: Values) -> None:
    assert v["total input IO reduction"] > 15
    assert v["tail (10 % most loaded) input IO reduction"] > 30


@floor("fig12")
def _(v: Values) -> None:
    heuristic, *lower = tails(v)
    assert heuristic > 20
    # Lower thresholds give only marginal additional benefit.
    assert max(heuristic, *lower) - heuristic < 30


@floor("fig13")
def _(v: Values) -> None:
    heuristic, *_, lowest = tails(v)
    assert heuristic > 10
    assert lowest >= heuristic - 5


def without_host(section: str) -> List[List[str]]:
    """Each line's cells, less the host column, whose values change run to run."""
    rows: List[List[str]] = []
    host = None
    for line in section.strip().splitlines():
        if not line.startswith("|"):
            rows.append([line])
            host = None
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if host is None:
            host = cells.index("host") if "host" in cells else len(cells)
        rows.append(cells[:host] + cells[host + 1:])
    return rows


def documented() -> Dict[str, str]:
    """EXPERIMENTS.md's sections by title."""
    head, *sections = DOC.read_text().split("\n## ")
    return {section.split("\n", 1)[0]: "## " + section for section in sections}


def test_experiments_md_is_the_full_preset_of_every_artifact():
    assert DOC.read_text().startswith(HEADER.format(preset="full")), REGENERATE
    assert list(documented()) == [experiment.title for experiment in EXPERIMENTS.values()]
    assert set(FLOORS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_paper_artifact(benchmark, name):
    items = benchmark.pedantic(run_experiment, args=(name, "full"), rounds=1, iterations=1)
    section = report(name, items)
    print()
    print(section)
    FLOORS[name](values(items))
    assert without_host(documented()[EXPERIMENTS[name].title]) == without_host(section), (
        f"EXPERIMENTS.md is stale: {REGENERATE}")
