"""Tests for the experiment CLI runner."""

from __future__ import annotations

import inspect

import pytest

from repro.experiments import runner
from repro.experiments.records import Record


class TestRunner:
    def test_lists_all_experiments(self, capsys):
        assert runner.main(["list"]) == 0
        printed = capsys.readouterr().out.split()
        assert set(printed) == set(runner.EXPERIMENTS)

    def test_run_single_experiment(self, capsys):
        """stdout is the artifact's markdown; the timing line goes to stderr."""
        assert runner.main(["table1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("## Table I")
        assert "finished in" not in captured.out
        assert "finished in" in captured.err

    def test_run_experiment_function_quick(self):
        items = runner.run_experiment("fig9", preset="quick")
        assert all(item.artifact == "fig9" for item in items)
        assert "Fig. 9" in runner.report("fig9", items)

    def test_unknown_experiment_errors(self, capsys):
        assert runner.main(["table99"]) == 2

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            runner.run_experiment("table1", preset="huge")

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            runner.run_experiment("nope")

    def test_every_registered_experiment_has_both_presets(self):
        for name, experiment in runner.EXPERIMENTS.items():
            assert isinstance(experiment, runner.Experiment)
            signature = inspect.signature(experiment.run)
            signature.bind(**experiment.quick)
            signature.bind(**experiment.full)

    def test_records_name_their_artifact(self):
        items = runner.run_experiment("table1")
        assert all(isinstance(item, Record) and item.artifact == "table1" for item in items)
