"""Covariance-domain activity detection for grant-free massive-MIMO uplink.

The package simulates sporadic uplink transmission to a large antenna array:
``model`` draws activity, channels, and observations; ``pilots`` builds
non-orthogonal training dictionaries and their coherence statistics;
``detect`` recovers the active set from the sample covariance of the pilot
observation via a nonnegative LASSO on the Kronecker-lifted dictionary;
``baselines`` provides MSBL, block-OMP, and M-FOCUSS for comparison;
``link`` estimates channels and decodes data for a detected support;
``theory`` evaluates the analytic success-probability floor; and ``harness``
runs Monte Carlo sweeps behind the ``gfdetect`` CLI. Each name is imported
from its module, e.g. ``from gfdetect.harness import run_sweep``.
"""

__version__ = "0.1.0"
