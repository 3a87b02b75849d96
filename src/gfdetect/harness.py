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
import math
import time
from concurrent.futures import ProcessPoolExecutor
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
    despread_symbols,
    draw_symbols,
    ls_channel_estimate,
    ls_data_decode,
    spread_symbols,
    symbol_error_rate,
)
from .model import (
    Support,
    complex_normal,
    derive_rng,
    draw_channel_gaussian,
    draw_channel_ula,
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
    "parse_config_file",
    "apply_settings",
    "CONFIG_KEYS",
]

DETECTOR_NAMES = ("cov-lasso", "msbl", "bomp", "mfocuss")
GENIE_NAMES = ("pai", "paci")
_AXIS_FIELDS = {"sparsity": "D", "snr": "snr_db", "antennas": "M"}  # sweep axis -> field it sets
SWEEP_AXES = ("none", *_AXIS_FIELDS)  # "none" (unswept) first
_MAX_SWEEP_POINTS = 10_000  # a start:step:stop range may not ask for more

_PILOT_STREAM = 0x70494C4F  # stream key for the shared dictionary draw
_NO_KEY = {"key": None}  # field metadata: no configuration key sets this field


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
    channel: str = "gaussian"
    paths: int = 200
    lam: float | None = None
    use_known_sparsity: bool = field(default=True, metadata={"key": "known_sparsity"})
    spread_length: int = field(default=0, metadata={"key": "spread"})
    redraw_pilots: bool = True
    compute_bound: bool = field(default=False, metadata={"key": "bound"})
    workers: int = 1
    stream: int = field(default=0, metadata=_NO_KEY)  # sweep-point index, set by the harness

    def validate(self) -> None:
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
        if self.paths < 1:
            raise ConfigError(f"paths must be >= 1, got {self.paths}")
        if self.spread_length < 0:
            raise ConfigError(f"spread_length must be >= 0, got {self.spread_length}")
        if self.channel not in ("gaussian", "ula"):
            raise ConfigError(f"unknown channel model {self.channel!r}")
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.sweep_axis!r}")
        if self.sweep_axis != "none" and not self.sweep_values:
            raise ConfigError("sweep requires at least one axis value")
        if self.sweep_axis == "sparsity" and self.activity_prob is not None:
            raise ConfigError("sparsity sweeps require fixed-size activity")
        self.detector_list()
        for value in self.sweep_values:
            if self.sweep_axis == "sparsity" and not (float(value).is_integer() and 0 <= value <= self.K):
                raise ConfigError(f"sparsity values must be integers in [0, {self.K}], got {value}")
            if self.sweep_axis == "antennas" and not (float(value).is_integer() and value >= 1):
                raise ConfigError(f"antenna counts must be positive integers, got {value}")
        snrs = self.sweep_values if self.sweep_axis == "snr" else ()
        try:
            for snr_db in (self.snr_db, *snrs):
                noise_variance(snr_db)
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from exc

    def detector_list(self) -> tuple[str, ...]:
        names: list[str] = []
        for token in self.detector.split(","):
            token = token.strip()
            if not token:
                continue
            if token == "all":
                names.extend(DETECTOR_NAMES)
            elif token in DETECTOR_NAMES or token in GENIE_NAMES:
                names.append(token)
            else:
                raise ConfigError(f"unknown detector {token!r}")
        if not names:
            raise ConfigError("no detector selected")
        # preserve order, drop duplicates
        return tuple(dict.fromkeys(names))


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


def _shared_pilots(config: ExperimentConfig) -> np.ndarray:
    return gen_gaussian_dictionary(config.L, config.K, derive_rng(config.seed, _PILOT_STREAM))


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
    ``use_known_sparsity`` is on, block-OMP always needs it, while MSBL and
    M-FOCUSS decide the support from their own pruning rules.
    """
    D_true = support_true.size
    if name == "cov-lasso":
        D_known = D_true if config.use_known_sparsity else None
        return detect_activity(Y_p, S, sigma_w2, config.lam, D_known).support_hat
    if name in GENIE_NAMES:
        return support_true
    problem = MmvProblem.from_received_pilot(Y_p, S, sigma_w2)
    if name == "msbl":
        return msbl(problem)
    if name == "bomp":
        return bomp(problem, D_true)
    if name == "mfocuss":
        return mfocuss(problem)
    raise ConfigError(f"unknown detector {name!r}")


def _score(
    name: str,
    support: Support,
    support_hat: Support,
    runtime_ms: float,
    H: np.ndarray,
    S: np.ndarray,
    Y_p: np.ndarray,
    Y_d: np.ndarray | None,
    true_symbols: np.ndarray,
    codes: np.ndarray | None,
) -> TrialMetrics:
    """Estimate/decode for one detected support and score it against truth.

    The ``M x K`` estimate keeps zero columns for nodes that were not
    estimated, so channel MSE over the true support charges a missed node its
    full normalized power; SER runs over the union of true and detected
    supports. A singular estimation or decoding step leaves zero estimates
    and zero decisions rather than aborting the trial.
    """
    detected = list(support_hat.indices)
    H_hat = np.zeros_like(H)
    est_symbols = np.zeros_like(true_symbols)
    try:
        if name == "paci":
            H_hat[:, detected] = H[:, detected]
        else:
            H_hat[:, detected] = ls_channel_estimate(Y_p, S[:, detected])
        if Y_d is not None and detected:
            soft = ls_data_decode(Y_d, H_hat[:, detected])
            if codes is not None:
                soft = despread_symbols(soft, codes[detected])
            est_symbols[detected] = demodulate(soft)
    except SingularSystemError:
        pass
    true_active = list(support.indices)
    return TrialMetrics(
        success=support_hat.indices == support.indices,
        ser=symbol_error_rate(true_symbols, est_symbols, support, support_hat),
        channel_mse=channel_mse(H[:, true_active], H_hat[:, true_active]),
        runtime_ms=runtime_ms,
    )


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """One full pipeline pass, deterministic given ``(seed, stream, trial_index)``."""
    rng = derive_rng(config.seed, config.stream, trial_index)
    S = (
        gen_gaussian_dictionary(config.L, config.K, rng)
        if config.redraw_pilots
        else _shared_pilots(config)
    )
    if config.activity_prob is not None:
        support = draw_support(config.K, rng, prob=config.activity_prob)
    else:
        support = draw_support(config.K, rng, size=config.D)
    if config.channel == "ula":
        H = draw_channel_ula(config.M, config.paths, support, rng)
    else:
        H = draw_channel_gaussian(config.M, support, rng)
    sigma_w2 = noise_variance(config.snr_db)
    Y_p = received_pilot(H, S, sigma_w2, rng)

    active = list(support.indices)
    true_symbols = np.zeros((config.K, config.N), dtype=complex)
    codes = None
    Y_d = None
    if config.N > 0:
        symbols = draw_symbols((support.size, config.N), rng)
        true_symbols[active] = symbols
        tx = symbols
        if config.spread_length > 1:
            codes = complex_normal(rng, (config.K, config.spread_length))
            codes /= np.linalg.norm(codes, axis=1, keepdims=True)
            tx = spread_symbols(symbols, codes[active])
        Y_d = received_data(H[:, active], tx, sigma_w2, rng)

    metrics: dict[str, TrialMetrics] = {}
    for name in config.detector_list():
        start = time.perf_counter()
        support_hat = _run_detector(name, Y_p, S, sigma_w2, support, config)
        runtime_ms = (time.perf_counter() - start) * 1e3
        metrics[name] = _score(
            name, support, support_hat, runtime_ms, H, S, Y_p, Y_d, true_symbols, codes,
        )
    return TrialRecord(metrics)


def _trial_task(args: tuple[ExperimentConfig, int]) -> TrialRecord:
    return run_trial(*args)


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

    Needs a fixed penalty, a shared pilot dictionary of at least two
    columns, the Gaussian channel with unit variances, a fixed activity
    level, and nonzero noise.
    """
    if (
        pc.lam is None
        or pc.redraw_pilots
        or pc.channel != "gaussian"
        or pc.activity_prob is not None
        or pc.D < 1
    ):
        return None
    sigma_w2 = noise_variance(pc.snr_db)
    if sigma_w2 <= 0:
        return None
    S = _shared_pilots(pc)
    sigma_w = math.sqrt(sigma_w2)
    try:
        inputs = theory.BoundInputs(
            lam=pc.lam,
            mu=mutual_coherence(S),
            D=pc.D,
            L=pc.L,
            M=pc.M,
            sigma_max_1=1.0,
            sigma_max_2=1.0,
            sigma_w_max_1=sigma_w,
            sigma_w_max_2=sigma_w,
            S_infnorm=float(np.max(np.abs(S))),
            sigma_min2=1.0,
        )
        return theory.evaluate_recovery_bound(inputs)
    except (InvalidParameterError, ConditionViolatedError):
        return None


def run_sweep(config: ExperimentConfig) -> list[MetricsRow]:
    """Run all sweep points and aggregate per-detector metric rows.

    With ``workers > 1`` one process pool runs the trials of every point.
    """
    config.validate()
    points = _sweep_points(config)
    tasks = [(pc, i) for _, pc in points for i in range(config.trials)]
    if config.workers > 1:
        chunksize = max(1, len(tasks) // (8 * config.workers))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(_trial_task, tasks, chunksize=chunksize))
    else:
        records = [run_trial(pc, i) for pc, i in tasks]
    rows: list[MetricsRow] = []
    for p, (value, pc) in enumerate(points):
        point_records = records[p * config.trials:(p + 1) * config.trials]
        bound = _point_bound(pc) if pc.compute_bound else None
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
    """Parse ``axis:start:step:stop`` or ``axis:v1,v2,...`` sweep syntax."""
    parts = spec.split(":")
    axis = parts[0].strip()
    if axis not in _AXIS_FIELDS:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    try:
        if len(parts) == 4:
            start, step, stop = (float(p) for p in parts[1:])
            if not all(map(math.isfinite, (start, step, stop))):
                raise ConfigError(f"non-finite sweep range in {spec!r}")
            if step == 0 or (stop - start) * step < 0:
                raise ConfigError(f"unreachable sweep range in {spec!r}")
            span = (stop - start) / step + 1e-9  # inf if the range overflows
            if span >= _MAX_SWEEP_POINTS:
                raise ConfigError(f"sweep range {spec!r} has over {_MAX_SWEEP_POINTS} points")
            count = int(math.floor(span)) + 1
            values = tuple(start + i * step for i in range(count))
        elif len(parts) == 2:
            values = tuple(float(tok) for tok in parts[1].split(",") if tok.strip())
        else:
            raise ConfigError(f"malformed sweep spec {spec!r}")
    except ConfigError:
        raise
    except ValueError as exc:  # a token that is not a number
        raise ConfigError(f"malformed sweep spec {spec!r}") from exc
    if not values:
        raise ConfigError(f"sweep spec {spec!r} has no values")
    return axis, values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"boolean expected, got {text!r}")


def _parse_optional_float(text: str) -> float | None:
    return None if text.strip().lower() in ("auto", "none", "") else float(text)


# value parser per field annotation
_PARSERS = {
    "int": int,
    "float": float,
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


def parse_config_file(path) -> dict[str, str]:
    """Read flat ``key=value`` settings; '#' starts a comment."""
    settings: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            settings[key.strip()] = value.strip()
    return settings


def apply_settings(config: ExperimentConfig, settings: dict[str, str]) -> ExperimentConfig:
    """Overlay string settings (config file or CLI) onto a configuration."""
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
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return dataclasses.replace(config, **updates)
