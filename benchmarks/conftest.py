"""Benchmark-suite configuration.

This directory holds the paper's artifacts only: every benchmark regenerates
one of Tables I–IV or Figs. 7–13, asserts the reproduced values and prints the
reproduced rows, while pytest-benchmark records the harness runtime.  Runtimes
measure this reproduction's simulator, not the paper's cluster, and nothing
here asserts on them: wall clock is judged by ``bench/`` against
``BENCHMARK.json``.
"""

import pytest


def pytest_configure(config):
    # The benchmark files live outside the default testpaths; make sure
    # pytest-benchmark is active even when the plugin autoload is disabled.
    config.addinivalue_line("markers", "paper_artifact(name): paper table/figure regenerated")
