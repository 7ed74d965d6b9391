"""CLI entry point: ``python -m repro.analysis [paths...]``.

Prints each finding and one summary line.  Exit status: 0 when there are no
findings, 1 when there are any, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.lint import run_analysis
from repro.analysis.rules import RULES


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-specific static analysis (concurrency, determinism "
                    "and exception-hygiene contracts).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyse (default: src)")
    args = parser.parse_args(argv)

    findings = run_analysis(args.paths)
    for finding in findings:
        print(finding.describe())
    verdict = "FAIL" if findings else "OK"
    print(f"{verdict}: {len(findings)} finding(s) "
          f"[{len(RULES)} rule(s) over {', '.join(args.paths)}]")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
