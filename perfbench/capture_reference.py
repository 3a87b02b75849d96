"""Write ``perfbench/reference.json``: the quality rows of every pinned set.

Usage (from the repository root)::

    python3 perfbench/capture_reference.py

Runs each workload's pinned quality sets through ``run_sweep`` and, to get
the per-trial spread the row check needs, replays the same trials one by one
through ``run_trial``; the replay must reproduce the sweep's rows exactly.
Capture once, at the commit whose behaviour is the reference, and commit the
file with the commit it came from recorded inside.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

from run import HERE, SRC, environment, make_config
from workloads import QUALITY_SEED, WORKLOADS, baseline_settings, quality_settings


def point_configs(config):
    """The per-point configs ``run_sweep`` derives for a sparsity or SNR sweep."""
    field = {"sparsity": "D", "snr": "snr_db"}[config.sweep_axis]
    cast = int if field == "D" else float
    for stream, value in enumerate(config.sweep_values):
        yield float(value), dataclasses.replace(
            config, sweep_axis="none", sweep_values=(), stream=stream, **{field: cast(value)}
        )


def reference_rows(harness, settings: dict[str, str]) -> list[dict]:
    config = make_config(harness, settings)
    rows = {(r.axis, r.detector): r for r in harness.run_sweep(config)}
    out = []
    for axis, pc in point_configs(config):
        records = [harness.run_trial(pc, t) for t in range(pc.trials)]
        for detector in config.detector_list():
            per = [rec.metrics[detector] for rec in records]
            mse = [m.channel_mse for m in per]
            row = rows[(axis, detector)]
            replay = tuple(float(np.mean(v)) for v in ([m.success for m in per], [m.ser for m in per], mse))
            if replay != (row.success_rate, row.ser, row.channel_mse):
                raise RuntimeError(f"trial replay {replay} does not reproduce row {row}")
            out.append({
                "axis": axis, "detector": detector, "trials": pc.trials,
                "success_rate": row.success_rate, "ser": row.ser, "channel_mse": row.channel_mse,
                "channel_mse_sd": float(np.std(mse)),
            })
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    import gfdetect.harness as harness

    reference = {"note": "pinned quality rows; see perfbench/README.md",
                 "quality_seed": QUALITY_SEED, "env": environment(QUALITY_SEED), "workloads": {}}
    for name, workload in WORKLOADS.items():
        parts = {"main": quality_settings(workload)}
        if baseline_settings(workload) is not None:
            parts["baselines"] = baseline_settings(workload)
        reference["workloads"][name] = {part: reference_rows(harness, s) for part, s in parts.items()}
        print(f"captured {name}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
