"""Workload definitions for the gfdetect benchmark.

Each workload is a sweep written in the package's own ``key=value``
configuration language (the keys of ``gfdetect.harness.apply_settings``), so
the benchmark depends only on the public configuration surface. All
workloads run with ``workers=1`` and the default ``N=40`` data symbols, so
the link stage runs in every trial.

A workload is measured in two parts:

* a *quality pass* on a pinned trial set (fixed seed, fixed trial count),
  whose rows are checked against ``reference.json`` and give the quality
  metrics. Its inputs never depend on ``--seed``, so its rates repeat
  exactly and any drop is a change in the program, not sampling noise;
* timed *batches*, each one ``run_sweep`` call over every sweep point with
  ``batch_trials`` trials per point and a batch seed derived from
  ``--seed``.

The lasso-only workloads also run the three baselines on a small pinned set
of their own geometry (``baseline_trials`` per point, untimed), so every
run reports a success rate for every detector.
"""

from __future__ import annotations

from dataclasses import dataclass

QUALITY_SEED = 1609  # pinned trial set of every quality pass
BASELINES = "msbl,bomp,mfocuss"


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict[str, str]
    batch_trials: int  # trials per sweep point in one timed batch
    quality_trials: int  # trials per sweep point in the pinned quality pass
    baseline_trials: int = 0  # pinned baseline-only trials per point (lasso workloads)


_FIG_GEOMETRY = {"K": "64", "L": "20", "M": "128", "N": "40", "workers": "1"}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # the paper's detector on the fig2 geometry, fresh dictionary per trial:
        # nn_lasso on a small lift, no dictionary reuse, no baselines
        Workload(
            name="lasso-sparsity",
            settings={**_FIG_GEOMETRY, "snr": "0", "sweep": "sparsity:2,4,6,8,10,12",
                      "detector": "cov-lasso", "redraw_pilots": "true"},
            batch_trials=4,
            quality_trials=20,
            baseline_trials=1,
        ),
        # the fig3 preset as shipped: MSBL-bound, so LASSO changes leave it flat
        Workload(
            name="all-snr",
            settings={**_FIG_GEOMETRY, "D": "10", "sweep": "snr:-10,-5,0,5,10",
                      "detector": "all", "redraw_pilots": "true"},
            batch_trials=1,
            quality_trials=4,
        ),
        # large K with one shared dictionary: 6.5 MB lift per trial; the
        # workload a lift-free core or a dictionary cache should speed up
        Workload(
            name="lasso-shared-largeK",
            settings={"K": "256", "L": "40", "M": "128", "N": "40", "workers": "1",
                      "D": "20", "sweep": "snr:0,5,10", "detector": "cov-lasso",
                      "redraw_pilots": "false"},
            batch_trials=2,
            quality_trials=10,
            baseline_trials=1,
        ),
    )
}


def quality_settings(workload: Workload) -> dict[str, str]:
    return {**workload.settings, "trials": str(workload.quality_trials), "seed": str(QUALITY_SEED)}


def baseline_settings(workload: Workload) -> dict[str, str] | None:
    if not workload.baseline_trials:
        return None
    return {**workload.settings, "detector": BASELINES,
            "trials": str(workload.baseline_trials), "seed": str(QUALITY_SEED)}


def batch_settings(workload: Workload, seed: int, batch: int) -> dict[str, str]:
    """Settings of timed batch ``batch`` of a run started with ``--seed seed``."""
    return {**workload.settings, "trials": str(workload.batch_trials),
            "seed": str(seed * 1_000_000 + batch)}


# slice of lasso-sparsity used by the report-only parallel probe
PROBE_SETTINGS = {**_FIG_GEOMETRY, "snr": "0", "D": "6", "detector": "cov-lasso", "trials": "16"}
