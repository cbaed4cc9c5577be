"""The RB decay fit A p^m + B against scipy's curve_fit, the reference it
replaced; scipy is a test-only dependency."""

import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeWarning, curve_fit

from spinctl.experiments.rb import P_BOUND_ATOL, P_START, _fit_decay

RB_NOISY_LENGTHS = (1, 5, 10, 25, 50, 100)
# Survival of test_noiseless_rb_decays_with_p_at_one: its global minimum is
# at p ~ 0.001, the local one from P_START is pinned at p = 1.
PINNED_THREE = ((1, 10, 50), (1.0, 0.9975, 1.0))
# Three lengths, a pinned at 1, p inside: a fit with no residual freedom.
THREE_LENGTHS = ((1, 8, 24), (0.98, 0.9, 0.7))
# Six lengths rising slowly: p pinned at 1 with residual freedom left.
PINNED_SIX = (RB_NOISY_LENGTHS, (0.90, 0.905, 0.90, 0.91, 0.92, 0.93))


def reference_fit(lengths, survival):
    """(a, b, p) and stderrs from curve_fit with the settings the RB fit had."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, pcov = curve_fit(
            lambda m, a, b, p: a * p**m + b,
            np.asarray(lengths, dtype=float),
            np.asarray(survival, dtype=float),
            p0=(0.5, 0.5, P_START),
            bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
            maxfev=20_000,
        )
    return popt, np.sqrt(np.diag(pcov))


def ssr(params, lengths, survival):
    a, b, p = params
    m = np.asarray(lengths, dtype=float)
    return float(np.sum((a * p**m + b - np.asarray(survival)) ** 2))


def at_bound(p):
    return min(p, 1.0 - p) < P_BOUND_ATOL


def synthetic_curves(n_curves=200, seed=2011):
    rng = np.random.default_rng(seed)
    m = np.asarray(RB_NOISY_LENGTHS, dtype=float)
    for _ in range(n_curves):
        p = rng.uniform(0.95, 0.9995)
        a, b = rng.uniform(0.4, 0.6, size=2)
        yield RB_NOISY_LENGTHS, a * p**m + b + rng.normal(0.0, 0.02, size=m.size)


def assert_matches_reference(lengths, survival):
    """No worse a fit than curve_fit's, the same bound flag, and stderr inf
    at the same places; returns both p stderrs."""
    ref, ref_err = reference_fit(lengths, survival)
    new, new_err, pinned = _fit_decay(lengths, survival)
    assert ssr(new, lengths, survival) <= ssr(ref, lengths, survival) * (1 + 1e-9)
    assert pinned == at_bound(ref[2])
    assert np.isinf(new_err[2]) == np.isinf(ref_err[2])
    return new_err[2], ref_err[2]


def test_fit_reproduces_curve_fit_local_solution():
    for lengths, survival in [*synthetic_curves(), PINNED_THREE, THREE_LENGTHS]:
        new_err, ref_err = assert_matches_reference(lengths, survival)
        if np.isfinite(ref_err):
            assert new_err == pytest.approx(ref_err, rel=0.01)


def test_p_stderr_is_inf_only_with_three_lengths_or_fewer():
    (_, _, p), err, pinned = _fit_decay(*PINNED_THREE)
    assert pinned and p == 1.0 and np.isinf(err[2])
    # At p = 1 only a + b is determined.  curve_fit leaves the split wherever
    # its path stopped, and p_stderr scales as 1 / a, so only finiteness is
    # compared; the new fit takes the minimum-norm split.
    new_err, ref_err = assert_matches_reference(*PINNED_SIX)
    (a, b, p), _, pinned = _fit_decay(*PINNED_SIX)
    assert pinned and p == 1.0 and a == b
    assert 0.0 < new_err < 0.01 and np.isfinite(ref_err)
