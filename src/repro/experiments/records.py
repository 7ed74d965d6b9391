"""One record per reproduced number, and the markdown that shows them.

Every paper artifact (Tables I–IV, Figs. 7–13) is a function that returns
its items: one :class:`Record` per number it reproduces, with the paper's
value beside it, and — for a figure that plots one point per instance —
a :class:`Series` table.  :func:`markdown` renders an artifact's items;
the runner's ``all --preset full`` output is EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

Number = Union[int, float]


@dataclass(frozen=True)
class Record:
    """One reproduced number.

    ``simulated`` is the reproduction's value: the analytic cost model's for
    times, bytes and cpu·min, else a count or a score.  It is a function of
    the code.  ``host`` is the same quantity on the host's clock, where the
    artifact measures one; it changes from run to run.  ``paper`` is the
    value as the paper reports it ("" where it gives none); ``setting``
    names what differs from the paper's run where that matters.
    """

    artifact: str
    metric: str
    paper: Union[str, Number]
    simulated: Number
    host: Optional[float] = None
    unit: str = ""
    setting: str = ""


@dataclass(frozen=True)
class Series:
    """A figure's points: one row per ``index`` value, one column per configuration."""

    artifact: str
    index: str
    columns: Dict[str, Dict[int, Number]]


Item = Union[Record, Series]


def values(items: Sequence[Item]) -> Dict[str, Number]:
    """Each record's simulated value by metric name."""
    return {item.metric: item.simulated for item in items if isinstance(item, Record)}


def render(cell: Union[None, str, Number]) -> str:
    """One table cell: floats to three significant places, flags as yes/no."""
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)


def _table(headers: Sequence[str], rows: Sequence[Sequence[Union[None, str, Number]]]) -> List[str]:
    return ["| " + " | ".join(headers) + " |",
            "|" + " --- |" * len(headers),
            *("| " + " | ".join(render(cell) for cell in row) + " |" for row in rows)]


def markdown(title: str, items: Sequence[Item]) -> str:
    """An artifact's section: its records, then each of its series tables."""
    lines = [f"## {title}", ""]
    lines += _table(["metric", "paper", "simulated", "host", "unit", "setting"],
                    [[item.metric, item.paper, item.simulated, item.host, item.unit, item.setting]
                     for item in items if isinstance(item, Record)])
    for series in (item for item in items if isinstance(item, Series)):
        index = sorted(set().union(*series.columns.values()))
        lines += ["", *_table([series.index, *series.columns],
                              [[i, *(column.get(i, 0.0) for column in series.columns.values())]
                               for i in index])]
    return "\n".join(lines)
