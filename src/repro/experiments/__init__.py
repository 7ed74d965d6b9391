"""The paper's artifacts — one function per table / figure.

Every artifact is a plain function with laptop-sized defaults that returns
its items: one :class:`~repro.experiments.records.Record` per reproduced
number, with the paper's value beside it, and for a figure that plots one
point per instance a :class:`~repro.experiments.records.Series`.
``runner.EXPERIMENTS`` maps each artifact over its ``quick`` and ``full``
presets; ``benchmarks/`` checks the full ones, and the runner's
``all --preset full`` output is EXPERIMENTS.md.

=================  ==================================================
function           paper artefact
=================  ==================================================
tables.table1      Table I   — dataset summary
tables.table2      Table II  — accuracy parity (SAGE/GAT × 3 datasets)
tables.table3      Table III — time / cpu*min vs traditional pipelines
tables.table4      Table IV  — time / resource vs number of hops
figures.fig7       Fig. 7    — prediction consistency under sampling
figures.fig8       Fig. 8    — time / resource vs data scale
figures.fig9       Fig. 9    — per-instance latency vs in-degree skew
figures.fig10      Fig. 10   — variance of instance time per strategy
figures.fig11      Fig. 11   — input bytes per instance (partial-gather)
figures.fig12      Fig. 12   — output bytes per instance (broadcast)
figures.fig13      Fig. 13   — output bytes per instance (shadow-nodes)
=================  ==================================================
"""

from repro.experiments import common, figures, records, tables  # noqa: F401

__all__ = ["common", "figures", "records", "tables"]
