#!/usr/bin/env python
"""Run every experiment in the harness and capture the printed reports.

Each experiment's stdout is written to ``results/<name>.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import pathlib
import sys
import time

from repro.experiments import (
    fig1_phases,
    fig3_tradeoff,
    fig5_traffic,
    fig6_social,
    fig7_ablation,
    fig8_slo_sweep,
    runtime_overhead,
    validation,
)

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def capture(name: str, fn, **kwargs):
    RESULTS_DIR.mkdir(exist_ok=True)
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        result = fn(**kwargs)
    elapsed = time.perf_counter() - start
    text = buffer.getvalue() + f"\n[wall time: {elapsed:.1f}s]\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print(f"=== {name} ({elapsed:.1f}s) ===")
    print(text)
    sys.stdout.flush()
    return result


#: name -> (module.main, default kwargs).  The simulation-driven experiments
#: fan their runs across processes through the SweepRunner internally.
EXPERIMENTS = {
    "fig3_tradeoff": (fig3_tradeoff.main, {}),
    "fig1_phases": (fig1_phases.main, {"num_points": 12}),
    "validation": (validation.main, {}),
    "runtime_overhead": (runtime_overhead.main, {}),
    "fig7_ablation": (fig7_ablation.main, {"duration_s": 120}),
    "fig8_slo_sweep": (fig8_slo_sweep.main, {"duration_s": 120}),
    "fig5_traffic": (fig5_traffic.main, {"duration_s": 240}),
    "fig6_social": (fig6_social.main, {"duration_s": 240}),
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only",
        default="",
        help=f"comma-separated subset of experiments to run (available: {', '.join(EXPERIMENTS)})",
    )
    args = parser.parse_args(argv)
    selected = [name.strip() for name in args.only.split(",") if name.strip()] or list(EXPERIMENTS)
    unknown = set(selected) - set(EXPERIMENTS)
    if unknown:
        parser.error(f"unknown experiments: {sorted(unknown)}")
    for name in selected:
        fn, kwargs = EXPERIMENTS[name]
        capture(name, fn, **kwargs)
    print("all experiments complete")


if __name__ == "__main__":
    main()
