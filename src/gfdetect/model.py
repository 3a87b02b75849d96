"""Activity patterns, channel draws, and received-signal synthesis.

All randomness flows through explicit ``numpy.random.Generator`` instances.
Monte Carlo streams are derived from ``(master_seed, *stream_indices)`` so
that trials are reproducible, order-independent, and safe to run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "Support",
    "noise_variance",
    "derive_rng",
    "complex_normal",
    "draw_support",
    "steering_vector",
    "draw_channel_ula",
    "draw_channel_gaussian",
    "received_pilot",
    "received_data",
]

_HALF_WAVELENGTH = 0.5  # uniform-linear-array element spacing, in wavelengths


def derive_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Build an independent generator keyed by ``(master_seed, *stream)``.

    Two calls with the same key return generators producing identical
    sequences; distinct keys give statistically independent streams.
    """
    entropy = (int(master_seed),) + tuple(int(s) for s in stream)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def complex_normal(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples.

    The variance is split evenly between the real and imaginary parts, so
    ``E[|z|^2] == variance``.
    """
    if not 0 <= variance < math.inf:  # also rejects NaN
        raise InvalidParameterError(f"variance must be finite and nonnegative, got {variance}")
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass(frozen=True)
class Support:
    """Set of active node indices out of ``K`` total nodes.

    Indices are stored strictly increasing; ``size`` is the activity level.
    """

    indices: tuple[int, ...]
    K: int

    def __post_init__(self) -> None:
        if self.K < 0:
            raise InvalidParameterError(f"K must be nonnegative, got {self.K}")
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 or i >= self.K for i in idx):
            raise InvalidParameterError(f"support indices must lie in [0, {self.K})")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidParameterError("support indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)


def noise_variance(snr_db: float) -> float:
    """Receiver noise variance per complex entry, ``10^(-snr_db/10)``.

    With unit average symbol energy the operating SNR is ``1 / variance``.
    ``snr_db = +inf`` gives 0.0, i.e. noiseless; a variance that is NaN or
    beyond the float range (``-inf`` dB or an overflow) is rejected.
    """
    try:
        variance = 10.0 ** (-snr_db / 10.0)
    except OverflowError:  # the variance is beyond the float range
        variance = math.inf
    if not math.isfinite(variance):
        raise InvalidParameterError(f"noise variance must be finite and >= 0, got {variance}")
    return variance


def draw_support(
    K: int,
    rng: np.random.Generator,
    *,
    size: int | None = None,
    prob: float | None = None,
) -> Support:
    """Draw an activity pattern over ``K`` nodes.

    Exactly one of ``size`` (uniformly random subset of that cardinality) or
    ``prob`` (independent Bernoulli activation per node) must be given.
    """
    if K < 1:
        raise InvalidParameterError(f"K must be >= 1, got {K}")
    if (size is None) == (prob is None):
        raise InvalidParameterError("specify exactly one of size= or prob=")
    if size is not None:
        if not 0 <= size <= K:
            raise InvalidParameterError(f"size must be in [0, {K}], got {size}")
        idx = np.sort(rng.choice(K, size=int(size), replace=False))
    else:
        if not 0.0 <= prob <= 1.0:
            raise InvalidParameterError(f"prob must be in [0, 1], got {prob}")
        idx = np.flatnonzero(rng.random(K) < prob)
    return Support(tuple(int(i) for i in idx), K)


def steering_vector(M: int, theta) -> np.ndarray:
    """Half-wavelength uniform-linear-array response for arrival angle ``theta``.

    Element ``m`` equals ``exp(-2j*pi*m*cos(theta)/2)`` (``theta`` in
    radians). A scalar angle gives a length-``M`` vector; a 1-D array of
    angles gives an ``M x len(theta)`` matrix, one column per angle.
    """
    if M < 1:
        raise InvalidParameterError(f"M must be >= 1, got {M}")
    phase = _HALF_WAVELENGTH * np.cos(np.asarray(theta, dtype=float))
    antenna = np.arange(M).reshape((M,) + (1,) * phase.ndim)
    return np.exp(-2j * np.pi * antenna * phase)


def draw_channel_ula(M: int, paths: int, support: Support, rng: np.random.Generator) -> np.ndarray:
    """Geometric multipath ``M x K`` channel on a uniform linear array.

    Each active column superposes ``paths`` planar wavefronts with standard
    complex Gaussian gains and arrival angles uniform on [-pi/2, pi/2]; the
    1/sqrt(paths) normalization keeps the per-entry power at one. With many
    paths the columns are well approximated by the Gaussian model.
    """
    if M < 1:
        raise InvalidParameterError(f"M must be >= 1, got {M}")
    if paths < 1:
        raise InvalidParameterError(f"paths must be >= 1, got {paths}")
    H = np.zeros((M, support.K), dtype=complex)
    for k in support.indices:
        gains = complex_normal(rng, paths)
        thetas = rng.uniform(-np.pi / 2, np.pi / 2, paths)
        H[:, k] = steering_vector(M, thetas) @ gains / math.sqrt(paths)
    return H


def draw_channel_gaussian(
    M: int,
    support: Support,
    rng: np.random.Generator,
    variances=None,
) -> np.ndarray:
    """Favorable-propagation ``M x K`` channel: i.i.d. complex Gaussian active columns.

    Columns outside the support are exactly zero. ``variances`` may be a
    scalar or one value per active node (default 1); entries are uncorrelated
    across antennas and across nodes.
    """
    if M < 1:
        raise InvalidParameterError(f"M must be >= 1, got {M}")
    var = np.broadcast_to(np.asarray(1.0 if variances is None else variances, dtype=float),
                          (support.size,)).copy()
    if not np.all((var > 0) & (var < math.inf)):  # also rejects NaN
        raise InvalidParameterError("active-node variances must be positive and finite")
    H = np.zeros((M, support.K), dtype=complex)
    if support.size:
        block = complex_normal(rng, (M, support.size)) * np.sqrt(var)[None, :]
        H[:, list(support.indices)] = block
    return H


def received_pilot(H: np.ndarray, S: np.ndarray, sigma_w2: float, rng: np.random.Generator) -> np.ndarray:
    """Received training-phase signal ``H @ S^H`` plus white noise.

    ``H`` is an ``M x K`` channel and ``S`` the ``L x K`` pilot code.
    Returns the ``M x L`` observation. ``sigma_w2`` is the noise variance per
    complex entry; zero yields the exact matrix product and draws nothing.
    """
    Hm = np.asarray(H)
    S = np.asarray(S)
    if Hm.ndim != 2 or S.ndim != 2 or Hm.shape[1] != S.shape[1]:
        raise InvalidParameterError(
            f"channel ({Hm.shape}) and pilots ({S.shape}) must share a node count"
        )
    return _observe(Hm, S.conj().T, sigma_w2, rng)


def received_data(
    H_active: np.ndarray,
    symbols: np.ndarray,
    sigma_w2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received data-phase signal ``H_active @ symbols`` plus white noise.

    ``H_active`` is ``M x K_a`` (active columns only) and ``symbols`` is the
    ``K_a x N`` matrix of modulation symbols.
    """
    Hm = np.asarray(H_active)
    D = np.asarray(symbols)
    if Hm.ndim != 2 or D.ndim != 2 or Hm.shape[1] != D.shape[0]:
        raise InvalidParameterError(
            f"inner dimensions must agree, got {Hm.shape} and {D.shape}"
        )
    return _observe(Hm, D, sigma_w2, rng)


def _observe(A: np.ndarray, B: np.ndarray, sigma_w2: float, rng: np.random.Generator) -> np.ndarray:
    """``A @ B`` plus white noise of variance ``sigma_w2``; none is drawn when it is zero."""
    if not 0 <= sigma_w2 < math.inf:  # also rejects NaN
        raise InvalidParameterError(f"noise variance must be finite and >= 0, got {sigma_w2}")
    Y = A @ B
    if sigma_w2 > 0:
        Y = Y + complex_normal(rng, Y.shape, sigma_w2)
    return Y
