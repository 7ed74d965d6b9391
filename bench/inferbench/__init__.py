"""The benchmark harness behind bench/run.py (see bench/README.md)."""
