"""Monte Carlo experiment harness.

A sweep runs ``trials`` independent trials per axis value, each trial being
one full pipeline pass: draw activity and channel, synthesize pilot and data
observations, run the selected detectors, estimate channels and decode data
for each detected support, and score success (exact support match), symbol
error rate, and channel MSE. Per-trial random streams are derived from
``(seed, sweep_point, trial_index)`` so results are independent of execution
order and worker count.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import theory
from .baselines import MmvProblem, bomp, mfocuss, msbl
from .detect import detect_activity
from .errors import (
    ConditionViolatedError,
    ConfigError,
    InvalidParameterError,
    SingularSystemError,
)
from .link import (
    channel_mse,
    demodulate,
    draw_symbols,
    ls_channel_estimate,
    ls_data_decode,
    symbol_error_rate,
)
from .model import (
    Support,
    derive_rng,
    draw_channel_gaussian,
    draw_support,
    noise_variance,
    received_data,
    received_pilot,
)
from .pilots import gen_gaussian_dictionary, mutual_coherence

__all__ = [
    "ExperimentConfig",
    "TrialMetrics",
    "TrialRecord",
    "MetricsRow",
    "PRESETS",
    "run_trial",
    "run_sweep",
    "emit_csv",
    "parse_sweep",
    "apply_settings",
    "CONFIG_KEYS",
]

DETECTOR_NAMES = ("cov-lasso", "msbl", "bomp", "mfocuss")
GENIE_NAMES = ("pai", "paci")
_AXIS_FIELDS = {"sparsity": "D", "snr": "snr_db", "antennas": "M"}  # sweep axis -> field it sets
SWEEP_AXES = ("none", *_AXIS_FIELDS)  # "none" (unswept) first

_PILOT_STREAM = 0x70494C4F  # stream key for the shared dictionary draw
_NO_KEY = {"key": None}  # field metadata: no configuration key sets this field
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class ExperimentConfig:
    """All scenario and solver parameters for one experiment.

    This class declares the configuration language: a field is set by the
    key named in its ``key`` metadata, or else by its own name, and its
    value text is parsed by its annotation (see :func:`apply_settings`).
    """

    K: int = 64
    L: int = 20
    M: int = 128
    D: int = 10
    activity_prob: float | None = None
    snr_db: float = field(default=0.0, metadata={"key": "snr"})
    trials: int = 200
    seed: int = 0
    detector: str = "cov-lasso"
    sweep_axis: str = field(default="none", metadata=_NO_KEY)  # set by the ``sweep`` key
    sweep_values: tuple[float, ...] = field(default=(), metadata=_NO_KEY)
    N: int = 40
    lam: float | None = None
    known_sparsity: bool = True
    redraw_pilots: bool = True
    workers: int = 1
    stream: int = field(default=0, metadata=_NO_KEY)  # sweep-point index, set by the harness

    def validate(self) -> None:
        """Check the sweep's shape, then each field at every sweep point (not a swept base value)."""
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.sweep_axis!r}")
        if (self.sweep_axis != "none") != bool(self.sweep_values):
            raise ConfigError("a sweep needs both an axis and at least one value")
        if self.sweep_axis == "sparsity" and self.activity_prob is not None:
            raise ConfigError("sparsity sweeps require fixed-size activity")
        for value in self.sweep_values:
            if self.sweep_axis in ("sparsity", "antennas") and not float(value).is_integer():
                raise ConfigError(f"{self.sweep_axis} values must be integers, got {value}")
        for _, point in _sweep_points(self):
            point._check_fields()

    def _check_fields(self) -> None:
        if self.K < 1 or self.L < 1 or self.M < 1:
            raise ConfigError(f"K, L, M must be >= 1 (got K={self.K}, L={self.L}, M={self.M})")
        if self.activity_prob is None and not 0 <= self.D <= self.K:
            raise ConfigError(f"D must lie in [0, {self.K}], got {self.D}")
        if self.activity_prob is not None and not 0.0 <= self.activity_prob <= 1.0:
            raise ConfigError(f"activity_prob must lie in [0, 1], got {self.activity_prob}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.lam is not None and not 0 <= self.lam < math.inf:  # also rejects NaN
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.N < 0:
            raise ConfigError(f"N must be >= 0, got {self.N}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        self.detector_list()
        try:
            noise_variance(self.snr_db)
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from exc

    def detector_list(self) -> tuple[str, ...]:
        """Names in order, ``all`` giving the four detectors; entries are unpadded, names unrepeated."""
        names: list[str] = []
        for token in self.detector.split(","):
            for name in DETECTOR_NAMES if token == "all" else (token,):
                if name not in DETECTOR_NAMES and name not in GENIE_NAMES:
                    raise ConfigError(f"unknown detector {name!r}")
                if name in names:
                    raise ConfigError(f"detector {name!r} is named twice")
                names.append(name)
        return tuple(names)


@dataclass(frozen=True)
class TrialMetrics:
    success: bool
    ser: float
    channel_mse: float
    # wall clock is reported but never part of record identity
    runtime_ms: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class TrialRecord:
    metrics: dict[str, TrialMetrics]


@dataclass(frozen=True)
class MetricsRow:
    """One aggregated CSV row: one detector at one axis value."""

    axis: float
    detector: str
    success_rate: float
    ser: float
    channel_mse: float
    runtime_ms: float
    bound: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.success_rate <= 1.0:
            raise InvalidParameterError(f"success_rate must lie in [0, 1], got {self.success_rate}")
        if not 0.0 <= self.ser <= 1.0:
            raise InvalidParameterError(f"ser must lie in [0, 1], got {self.ser}")


PRESETS: dict[str, dict] = {
    # detection rate vs activity level
    "fig2": dict(sweep_axis="sparsity", sweep_values=(2, 4, 6, 8, 10, 12),
                 K=64, L=20, M=128, snr_db=0.0, detector="all"),
    # detection rate vs SNR at fixed activity
    "fig3": dict(sweep_axis="snr", sweep_values=(-10, -5, 0, 5, 10),
                 K=64, L=20, M=128, D=10, detector="all"),
    # detection rate vs antenna count
    "fig4": dict(sweep_axis="antennas", sweep_values=(16, 32, 64, 128, 256),
                 K=64, L=20, D=10, snr_db=0.0, detector="all"),
    # symbol error rate vs SNR, with genie references
    "fig5": dict(sweep_axis="snr", sweep_values=(-10, -5, 0, 5, 10),
                 K=64, L=20, M=500, D=6, N=40, detector="cov-lasso,msbl,pai,paci"),
    # symbol error rate vs activity level
    "fig6": dict(sweep_axis="sparsity", sweep_values=(2, 4, 6, 8, 10, 12),
                 K=64, L=20, M=500, snr_db=10.0, N=40, detector="cov-lasso,msbl,pai,paci"),
}
# one run gives both the SER and the channel-MSE column, so the channel
# estimation error figures reuse the SER setups
PRESETS["fig7"] = PRESETS["fig6"]  # channel estimation error vs activity level
PRESETS["fig8"] = PRESETS["fig5"]  # channel estimation error vs SNR


@functools.lru_cache(maxsize=1)  # one sweep reads one (L, K, seed)
def _shared_pilots(L: int, K: int, seed: int) -> np.ndarray:
    """The sweep's shared dictionary, drawn once from its own stream and reused."""
    S = gen_gaussian_dictionary(L, K, derive_rng(seed, _PILOT_STREAM))
    S.flags.writeable = False  # every trial of the sweep gets this same array
    return S


def _run_detector(
    name: str,
    Y_p: np.ndarray,
    S: np.ndarray,
    sigma_w2: float,
    support_true: Support,
    config: ExperimentConfig,
) -> Support:
    """Dispatch one detector.

    The comparison protocol mirrors the usual benchmark convention: the
    covariance detector consumes the activity-level prior when
    ``known_sparsity`` is on, block-OMP always needs it, while MSBL and
    M-FOCUSS decide the support from their own pruning rules.
    """
    D_true = support_true.size
    if name == "cov-lasso":
        D_known = D_true if config.known_sparsity else None
        return detect_activity(Y_p, S, sigma_w2, config.lam, D_known).support_hat
    if name in GENIE_NAMES:
        return support_true
    problem = MmvProblem.from_received_pilot(Y_p, S, sigma_w2)
    if name == "msbl":
        return msbl(problem)
    if name == "bomp":
        return bomp(problem, D_true)
    return mfocuss(problem)


def _score(
    name: str,
    support: Support,
    support_hat: Support,
    runtime_ms: float,
    H_active: np.ndarray,
    S: np.ndarray,
    Y_p: np.ndarray,
    Y_d: np.ndarray,
    true_symbols: np.ndarray,
) -> TrialMetrics:
    """Estimate/decode for one detected support and score it against truth.

    ``H_active`` is the ``M x D`` channel block of the true active nodes. Its
    estimate holds each true node's estimate and is zero where the node was
    missed, so channel MSE charges a missed node its full normalized power;
    SER runs over the union of true and detected supports. The estimates are
    placed before decoding, so a singular decoding step keeps them and a
    singular estimation step leaves them zero; either leaves zero decisions
    rather than aborting the trial.
    """
    detected = list(support_hat.indices)
    shared = set(support.indices).intersection(detected)
    true_found = [k in shared for k in support.indices]  # true nodes that were detected
    detected_true = [k in shared for k in detected]  # detected nodes that are true
    H_hat = np.zeros_like(H_active)
    est_symbols = np.zeros_like(true_symbols)
    try:
        # the genie's support is the true one, so its estimate is the true block
        H_detected = H_active if name == "paci" else ls_channel_estimate(Y_p, S[:, detected])
        H_hat[:, true_found] = H_detected[:, detected_true]
        est_symbols[detected] = demodulate(ls_data_decode(Y_d, H_detected))
    except SingularSystemError:
        pass
    return TrialMetrics(
        success=support_hat.indices == support.indices,
        ser=symbol_error_rate(true_symbols, est_symbols, support, support_hat),
        channel_mse=channel_mse(H_active, H_hat),
        runtime_ms=runtime_ms,
    )


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """One full pipeline pass, deterministic given ``(seed, stream, trial_index)``."""
    rng = derive_rng(config.seed, config.stream, trial_index)
    S = (
        gen_gaussian_dictionary(config.L, config.K, rng)
        if config.redraw_pilots
        else _shared_pilots(config.L, config.K, config.seed)
    )
    if config.activity_prob is not None:
        support = draw_support(config.K, rng, prob=config.activity_prob)
    else:
        support = draw_support(config.K, rng, size=config.D)
    active = list(support.indices)
    # the other channel columns are zero, so only the active ones enter H S^H and H X
    H_active = draw_channel_gaussian(config.M, support, rng)[:, active]
    sigma_w2 = noise_variance(config.snr_db)
    Y_p = received_pilot(H_active, S[:, active], sigma_w2, rng)

    # at N=0 these are empty blocks, whose draws leave the generator where it was
    symbols = draw_symbols((support.size, config.N), rng)
    true_symbols = np.zeros((config.K, config.N), dtype=complex)
    true_symbols[active] = symbols
    Y_d = received_data(H_active, symbols, sigma_w2, rng)

    metrics: dict[str, TrialMetrics] = {}
    for name in config.detector_list():
        start = time.perf_counter()
        support_hat = _run_detector(name, Y_p, S, sigma_w2, support, config)
        runtime_ms = (time.perf_counter() - start) * 1e3
        metrics[name] = _score(name, support, support_hat, runtime_ms, H_active, S, Y_p, Y_d, true_symbols)
    return TrialRecord(metrics)


def _sweep_points(config: ExperimentConfig) -> list[tuple[float, ExperimentConfig]]:
    if config.sweep_axis == "none":
        return [(0.0, config)]
    name = _AXIS_FIELDS[config.sweep_axis]
    cast = float if name == "snr_db" else int  # values checked by validate()
    return [
        (float(value), dataclasses.replace(config, stream=i, **{name: cast(value)}))
        for i, value in enumerate(config.sweep_values)
    ]


def _point_bound(pc: ExperimentConfig) -> float | None:
    """Theoretical success floor for this point, when it is well defined.

    Needs a fixed penalty, a shared pilot dictionary and a fixed activity
    level; every trial's channels are Gaussian with unit variances. The rest
    of the floor's domain (at least two pilot columns, ``D >= 1``, nonzero
    noise and a coherence that admits ``D``) is checked by
    ``mutual_coherence`` and :func:`theory.evaluate_recovery_bound`; a point
    outside it gets ``None``.
    """
    if pc.lam is None or pc.redraw_pilots or pc.activity_prob is not None:
        return None
    S = _shared_pilots(pc.L, pc.K, pc.seed)
    try:
        return theory.evaluate_recovery_bound(
            lam=pc.lam,
            mu=mutual_coherence(S),
            D=pc.D,
            L=pc.L,
            M=pc.M,
            sigma_w2=noise_variance(pc.snr_db),
            S_infnorm=float(np.max(np.abs(S))),
            sigma_min2=1.0,
        )
    except (InvalidParameterError, ConditionViolatedError):
        return None


def run_sweep(config: ExperimentConfig) -> list[MetricsRow]:
    """Run all sweep points and aggregate per-detector metric rows.

    With ``workers > 1`` one process pool runs the trials of every point.
    Its workers are spawned with one BLAS thread each, so a script that
    calls this with ``workers > 1`` needs the ``if __name__ == "__main__":``
    guard. A ``cov-lasso`` row carries the point's recovery floor wherever
    :func:`_point_bound` defines it.
    """
    config.validate()
    points = _sweep_points(config)
    configs = [pc for _, pc in points for _ in range(config.trials)]
    indices = list(range(config.trials)) * len(points)
    if config.workers > 1:
        # imported here: the process-pool machinery adds about 30 ms to a cold
        # start (the CLI's included, on a 2-core host), and a one-process
        # sweep never uses it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(configs) // (8 * config.workers))
        # a forked worker would inherit the parent's loaded BLAS with its
        # threads; a spawned one loads its own, which reads these variables at
        # load. Workers start as trials are submitted, so the variables stay
        # set until the pool has shut down
        saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
        try:
            with ProcessPoolExecutor(config.workers, multiprocessing.get_context("spawn")) as pool:
                records = list(pool.map(run_trial, configs, indices, chunksize=chunksize))
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    else:
        records = list(map(run_trial, configs, indices))
    rows: list[MetricsRow] = []
    for p, (value, pc) in enumerate(points):
        point_records = records[p * config.trials:(p + 1) * config.trials]
        bound = _point_bound(pc)
        for name in pc.detector_list():
            per = [rec.metrics[name] for rec in point_records]
            rows.append(
                MetricsRow(
                    axis=value,
                    detector=name,
                    success_rate=float(np.mean([m.success for m in per])),
                    ser=float(np.mean([m.ser for m in per])),
                    channel_mse=float(np.mean([m.channel_mse for m in per])),
                    runtime_ms=float(np.mean([m.runtime_ms for m in per])),
                    bound=bound if name == "cov-lasso" else None,
                )
            )
    return rows


CSV_HEADER = "axis,detector,success_rate,ser,channel_mse,runtime_ms,bound"


def emit_csv(rows: list[MetricsRow], destination) -> None:
    """Write aggregated rows as CSV with six significant digits.

    ``destination`` may be a path or an open text file. The ``bound`` cell is
    empty for rows without a computed bound.
    """
    if not rows:
        raise InvalidParameterError("no rows to emit")
    lines = [CSV_HEADER]
    for row in rows:
        bound = "" if row.bound is None else f"{row.bound:.6g}"
        lines.append(
            f"{row.axis:.6g},{row.detector},{row.success_rate:.6g},{row.ser:.6g},"
            f"{row.channel_mse:.6g},{row.runtime_ms:.6g},{bound}"
        )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def parse_sweep(spec: str) -> tuple[str, tuple[float, ...]]:
    """Parse ``axis:v1,v2,...`` sweep syntax: an exact axis name, then unpadded numbers."""
    axis, _, values = spec.partition(":")
    if axis not in _AXIS_FIELDS:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    try:
        return axis, tuple(_parse_float(tok) for tok in values.split(","))
    except ValueError as exc:  # an empty, padded or non-number entry, or a second ':'
        raise ConfigError(f"malformed sweep spec {spec!r}, expected axis:v1,v2,... of numbers") from exc


def _parse_int(text: str) -> int:
    """An int as ``str`` writes it."""
    try:
        if str(value := int(text)) == text:
            return value
    except ValueError:
        pass
    raise ValueError("expected an integer")


def _parse_float(text: str) -> float:
    """A finite int as ``str`` writes it, or a non-NaN float as ``repr`` writes it."""
    try:
        value = float(text)
        as_repr = text == repr(value) and not math.isnan(value)
        if as_repr or (math.isfinite(value) and text == str(int(text))):
            return value
    except ValueError:
        pass
    raise ValueError("expected a number")


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("expected true or false")
    return text == "true"


def _parse_optional_float(text: str) -> float | None:
    try:
        return None if text == "auto" else _parse_float(text)
    except ValueError:
        raise ValueError("expected a number or auto") from None


# value parser per field annotation
_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "float | None": _parse_optional_float,
    "bool": _parse_bool,
    "str": str,
}

# configuration key -> (field it sets, parser of its value text)
_SETTERS = {
    key: (f.name, _PARSERS[f.type])
    for f in dataclasses.fields(ExperimentConfig)
    if (key := f.metadata.get("key", f.name)) is not None
}
CONFIG_KEYS = (*_SETTERS, "sweep")


def apply_settings(config: ExperimentConfig, settings: dict[str, str]) -> ExperimentConfig:
    """Overlay string settings (CLI flags or a settings dict) onto a configuration.

    An integer is written as ``str`` writes one, a number as ``repr`` writes an int or
    a non-NaN float, and a boolean as ``true`` or ``false``; ``auto`` unsets ``lam``
    or ``activity_prob``. :meth:`ExperimentConfig.validate` checks the ranges.
    """
    updates: dict = {}
    for key, value in settings.items():
        if key == "sweep":
            updates["sweep_axis"], updates["sweep_values"] = parse_sweep(value)
            continue
        if key not in _SETTERS:
            raise ConfigError(f"unknown configuration key {key!r}")
        name, parse = _SETTERS[key]
        try:
            updates[name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
    return dataclasses.replace(config, **updates)
