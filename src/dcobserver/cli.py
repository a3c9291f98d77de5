"""Command-line scenario runner.

Exit codes: 0 all residual checks passed, 1 validation failure (a malformed
flag included), 2 a residual or convergence check failed, 3 I/O failure.
Flags and the config file are merged into one JSON object, and
``ScenarioConfig`` checks it as it checks every config.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .scenarios import (
    EXIT_IO,
    EXIT_OK,
    EXIT_RESIDUAL,
    EXIT_VALIDATION,
    SCENARIOS,
    ScenarioConfig,
    run_scenario,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcobserver",
        description=(
            "Simulate direct-coupled observers for closed linear quantum systems "
            "and emit figure CSVs, gnuplot scripts and a residual summary."
        ),
    )
    parser.add_argument("--scenario", choices=SCENARIOS, help="scenario to run")
    parser.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    parser.add_argument("--t-end", dest="t_end", type=float, help="simulation horizon")
    parser.add_argument("--dt", type=float, help="grid step")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")
    parser.add_argument("--tol", type=float, help="residual tolerance for pass/fail gates")
    return parser


def main(argv=None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
    except SystemExit as exc:  # --help exits 0; a usage error, printed by argparse, 2
        return EXIT_VALIDATION if exc.code else EXIT_OK
    config_file = flags.pop("config")
    raw: dict = {}
    if config_file is not None:
        try:
            raw = json.loads(config_file.read_bytes())  # bytes: json detects UTF-8, -16 or -32
        except OSError as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return EXIT_IO
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        if not isinstance(raw, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return EXIT_VALIDATION
    raw.update((key, value) for key, value in flags.items() if value is not None)
    if raw.get("scenario") is None:
        print("error: no scenario given (use --scenario or the config file)", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        bundle = run_scenario(ScenarioConfig.from_dict(raw))
    except ValueError as exc:  # a ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO

    checks = bundle.summary["checks"]
    for name, ok in sorted(checks.items()):
        print(f"{'pass' if ok else 'FAIL'}  {name}")
    print(f"wrote {len(bundle.csv_files)} csv files to {bundle.out_dir}")
    print(f"summary: {bundle.summary_file}")
    return EXIT_OK if bundle.passed else EXIT_RESIDUAL


if __name__ == "__main__":
    raise SystemExit(main())
