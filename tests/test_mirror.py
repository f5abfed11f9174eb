"""Oscillatory integral Phi: vanishing window, residue series, cross checks.

The closed-form oracles were frozen from 30-digit mpmath evaluations:
2*besselk(0, 2*sqrt(q)) for the 2-torus integral,
meijerg([[],[]], [[0,0,0],[]], q) for the 3-torus one, and Phi itself at
n = 3, m = 3, q = 1 (u = 2) for the contour rule.
"""

import math

import numpy as np
import pytest
import scipy.special

from gamma_monodromy import mirror as mr
from gamma_monodromy.numerics import NumericsError

J3 = {0.5: 0.4782844214521623, 1.0: 0.22778774549906688,
      2.0: 0.08478354799680299, 10.0: 0.0017533146068215747,
      100.0: 1.148247563067305e-09}
J4 = {0.5: 0.3757021237846899, 1.0: 0.16404160674837606,
      2.0: 0.06077103396208862, 10.0: 0.0025030566951819923,
      100.0: 6.846405092429212e-07, 1000.0: 3.357669316706924e-14}
INVERSION_N3_Q1 = 0.90923943249776
# Phi(n=3, m=3, q=1) at lambda = ratio * u; Gauss-Legendre on the truncated
# line read 2.9957e-10 at 1.0001 u
PHI33 = {1.5: 0.43616936203784354629, 1.0001: 3.0168488664925214693e-10}


def phi_mellin_barnes(n, q, m, lam):
    """Contour value of Phi at a single point."""
    cfg = mr.make_mb_config(n, q, m, max(abs(lam), mr.u_of_q(n, q)), 1e-7)
    return complex(mr.phi_mb_batch(n, q, m, np.array([lam]), cfg)[0])


def mellin_inversion_j(n, q):
    """J(q) = (1/2 pi i) int q^{-x} Gamma(x)^{n-1} dx on Re x = 1, by the
    Gauss-Legendre panels of ``_gamma_line``."""
    _, w, vals = mr._gamma_line(n, q)
    return float(((vals @ w) / (2.0 * math.pi)).real)


def test_u_of_q_examples():
    assert mr.u_of_q(3, 1.0) == 2.0
    assert abs(mr.u_of_q(4, 8.0) - 6.0) < 1e-14


def test_error_estimate_certifies_config():
    cfg = mr.make_mb_config(3, 1.0, 3, 3.0, 1e-4)
    assert cfg.error_estimate <= 1e-4
    tight = mr.make_mb_config(3, 1.0, 3, 3.0, 1e-10)
    assert tight.h < cfg.h and tight.nodes > cfg.nodes
    assert tight.error_estimate <= 1e-10
    # roundoff, not the rule, sets the floor of a tolerance beyond reach
    floor = mr.make_mb_config(3, 1.0, 3, 3.0, 1e-20)
    assert 1e-20 < floor.error_estimate < 1e-13
    # at m = 1 the tail |b|^(-3/2) leaves too much beyond the cut at u
    with pytest.raises(NumericsError):
        mr.make_mb_config(3, 1.0, 1, 3.0, 1e-7)


def test_contour_matches_frozen_references():
    cfg = mr.make_mb_config(3, 1.0, 3, 3.0, 1e-10)
    got = mr.phi_mb_batch(3, 1.0, 3, 2.0 * np.array(list(PHI33)), cfg)
    assert np.all(got.imag == 0.0)
    assert abs(got[0] - PHI33[1.5]) < 2e-15
    assert abs(got[1] - PHI33[1.0001]) < 1e-16


def test_contour_vanishes_at_the_edge():
    # omega = (n-1) log(lambda/u) is 0 or 2e-12 here: the node map's floor
    # on |omega| keeps the rule finite and the lower cut negligible
    cfg = mr.make_mb_config(3, 1.0, 3, 2.0, 1e-7)
    lams = 2.0 * np.array([1.0, 1.0 + 1e-12, 1.0 - 1e-12])
    assert np.max(np.abs(mr.phi_mb_batch(3, 1.0, 3, lams, cfg))) < 1e-15


def test_error_estimate_bounds_the_true_error():
    # Phi(u) = 0 and the frozen references give the true error
    for tol in (1e-4, 1e-7, 1e-10):
        cfg = mr.make_mb_config(3, 1.0, 3, 3.0, tol)
        got = mr.phi_mb_batch(3, 1.0, 3, np.array([2.0, 3.0, 2.0002]), cfg)
        err = np.abs(got - np.array([0.0, PHI33[1.5], PHI33[1.0001]]))
        assert np.max(err) <= cfg.error_estimate <= tol


def test_cached_rule_is_read_only():
    _, phi, weights, _ = mr._de_rule(0.025)
    for arr in (phi, weights, *mr._torus_rule(3), *mr._torus_rule(4),
                *mr._residue_table(3, 1.0, 3, 60)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_tail_bound_needs_decaying_integrand():
    with pytest.raises(ValueError):
        mr.make_mb_config(3, 1.0, 0, 3.0, 1e-7)


def test_contour_rejects_lambda_off_the_positive_axis():
    # the rule's nodes are placed for a real frequency omega
    cfg = mr.make_mb_config(3, 1.0, 3, 3.0, 1e-6)
    for lam in (3.0 + 1.0j, -1.0):
        with pytest.raises(ValueError):
            mr.phi_mb_batch(3, 1.0, 3, np.array([3.0, lam]), cfg)


def test_phi_vanishes_on_the_window():
    out = mr.zero_region_scan(3, 1.0, 3, npts=10)
    assert out["max_abs"] < 1e-6


def test_residue_series_matches_contour():
    for n, q, m, lam in ((3, 1.0, 3, 3.0), (3, 1.0, 3, 4.5),
                         (3, 0.5, 3, 2.5), (4, 1.0, 4, 4.0)):
        ser = mr.phi_residue_series(n, q, m, lam, terms=50)
        mb = phi_mellin_barnes(n, q, m, lam)
        assert abs(ser - mb) < 1e-6 * max(1.0, abs(mb))


def test_residue_series_array_equals_scalar_calls():
    for n, m in ((3, 3), (4, 4), (3, 6)):
        # 70 lambdas: more than one block of the series
        lams = mr.u_of_q(n, 1.0) * np.linspace(1.05, 4.0, 70)
        got = mr.phi_residue_series(n, 1.0, m, lams)
        want = np.array([mr.phi_residue_series(n, 1.0, m, lv) for lv in lams])
        assert isinstance(mr.phi_residue_series(n, 1.0, m, lams[0]), complex)
        assert np.array_equal(got, want)


def test_residue_series_domain_guards():
    with pytest.raises(ValueError):
        mr.phi_residue_series(3, 1.0, 3, 1.9)
    with pytest.raises(ValueError):
        mr.phi_residue_series(3, -1.0, 3, 5.0)
    with pytest.raises(ValueError):
        mr.make_mb_config(3, 0.0, 3, 3.0, 1e-7)


def test_residue_series_overflow_guard():
    # factorial growth of the residue at deep integer centers must fail
    # loudly, not return garbage
    with pytest.raises(NumericsError):
        mr.phi_residue_series(3, 1.0, 3, 5.0, terms=120)


def test_local_exponent_near_the_edge():
    fit = mr.local_exponent_fit(3, 1.0, 3)
    assert abs(fit["slope"] - 2.5) < 0.02
    assert fit["r2"] >= 0.999
    # raising the derivative level shifts the local power by one
    fit4 = mr.local_exponent_fit(3, 1.0, 4)
    assert abs(fit4["slope"] - 3.5) < 0.02


def test_exponent_fit_rejects_noise(monkeypatch):
    rng = np.random.default_rng(7)

    def noisy(n, q, m, lams, cfg):
        return np.asarray(rng.uniform(1e-9, 1e-6, size=len(lams)),
                          dtype=complex)

    monkeypatch.setattr(mr, "phi_mb_batch", noisy)
    with pytest.raises(mr.FitQualityError):
        mr.local_exponent_fit(3, 1.0, 3)


def test_oscillatory_j_against_bessel():
    for q, want in J3.items():
        got = mr.oscillatory_j(3, q)
        assert abs(got - want) < 1e-13 * want
        # same constant through scipy's Bessel implementation
        bessel = 2.0 * scipy.special.k0(2.0 * math.sqrt(q))
        assert abs(got - bessel) < 1e-13 * bessel


def test_oscillatory_j_against_meijer_g():
    for q, want in J4.items():
        assert abs(mr.oscillatory_j(4, q) - want) < 1e-13 * want


def test_oscillatory_j_rejects_other_n():
    with pytest.raises(ValueError):
        mr.oscillatory_j(5, 1.0)


def test_oscillatory_j_monotone_in_q():
    for n in (3, 4):
        vals = [mr.oscillatory_j(n, q) for q in (0.5, 1.0, 1.5, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_torus_profile_against_bessel():
    # F_2(sigma) = 2 K_0(2 e^{sigma/2}), the u-integral of the n = 4 slice;
    # its smallest value, at sigma = 10, is about 1e-130
    wprof, _ = mr._torus_rule(4)
    sigma, w = mr._gl_panels(*mr._SIGMA_BOX[4])
    want = 2.0 * scipy.special.k0(2.0 * np.exp(0.5 * sigma))
    assert np.min(want) > 1e-290
    assert np.max(np.abs(wprof / w - want) / want) < 1e-13


def test_mellin_inversion_j_matches():
    for q, want in J3.items():
        assert abs(mellin_inversion_j(3, q) - want) < 1e-9
    assert abs(mellin_inversion_j(4, 1.0) - J4[1.0]) < 1e-8


def test_inversion_counts_its_j_work():
    for n in (3, 4):
        first = mr.inversion_consistency(n, 1.0)
        again = mr.inversion_consistency(n, 1.0)
        assert first["j_calls"] > 0
        assert (first["j_calls"], first["j_nodes"]) == (again["j_calls"],
                                                       again["j_nodes"])
    # n = 4: at most 1,000 sigma nodes per J
    assert first["j_nodes"] <= 1000 * first["j_calls"]


def test_inversion_consistency_two_routes():
    out = mr.inversion_consistency(3, 1.0)
    assert out["rel_diff"] < 1e-12
    assert abs(out["lhs"].real) < 1e-8
    assert abs(out["lhs"].imag - INVERSION_N3_Q1) < 1e-6
    assert mr.inversion_consistency(4, 1.0)["rel_diff"] < 1e-12


def test_laplace_spot_check_p1():
    out = mr.laplace_spot_check(3, 1.0, 3)
    assert np.max(out["rel_errors"]) < 1e-4
    assert out["extension_sensitivity"] < 1e-6


def test_laplace_residual_is_not_the_truncation():
    # the compared integral runs past the truncation point whose effect
    # extension_sensitivity reports, so the residual sits well below it
    out = mr.laplace_spot_check(3, 1.0, 3)
    assert np.max(out["rel_errors"]) < 1e-2 * out["extension_sensitivity"]
