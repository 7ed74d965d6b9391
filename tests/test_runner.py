"""Tests for the experiment CLI runner."""

from __future__ import annotations

import pytest

from repro.experiments import runner


class TestRunner:
    def test_lists_all_experiments(self, capsys):
        assert runner.main(["list"]) == 0
        printed = capsys.readouterr().out.split()
        assert set(printed) == set(runner.EXPERIMENTS)

    def test_run_single_experiment(self, capsys):
        assert runner.main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "finished in" in output

    def test_run_experiment_function_quick(self):
        report = runner.run_experiment("fig9", preset="quick")
        assert "Fig. 9" in report

    def test_unknown_experiment_errors(self, capsys):
        assert runner.main(["table99"]) == 2

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            runner.run_experiment("table1", preset="huge")

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            runner.run_experiment("nope")

    def test_every_registered_experiment_has_both_presets(self):
        for name, (module, quick_kwargs, full_kwargs) in runner.EXPERIMENTS.items():
            assert hasattr(module, "run")
            assert hasattr(module, "format_result")
            assert isinstance(quick_kwargs, dict)
            assert isinstance(full_kwargs, dict)
