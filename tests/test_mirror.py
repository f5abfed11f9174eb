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
from gamma_monodromy.numerics import (NumericsError, jet_exp, jet_mul,
                                      jet_recip, log_gamma_jet,
                                      recip_gamma_jet)

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
# the lambda-free folded integrand G(b) = q^{-x} Gamma(x)^(n-1) u^{i(n-1)b}
# / (Gamma((n-1)x + c) x) at x = 1 + ib, q = 0.7, keyed by (n, m, b); from
# 40-digit mpmath.  Through log_gamma_array the two log Gamma cancel six
# digits at b = 3e4 and read 1e-10 off these
FAR_G = {
    (3, 3, 20.0): complex(4.908127035884244e-6, 7.3007392184341252e-6),
    (3, 3, 450.0): complex(1.1477601676801899e-10, 1.1676992924854211e-10),
    (3, 3, 3e4): complex(4.7851043753404009e-17, 4.7863406870005103e-17),
    (3, 3, 1e6): complex(2.2380522869839083e-22, 2.2380696319563443e-22),
    (3, 6, 20.0): complex(-1.3101149393551199e-10, 2.915420315701536e-11),
    (3, 6, 450.0): complex(-1.6277214766661926e-19, 1.5474439051157113e-19),
    (3, 6, 3e4): complex(-2.2164522047711586e-31, 2.2147720321705381e-31),
    (3, 6, 1e6): complex(-2.7976080215800115e-41, 2.7975443767214782e-41),
    (4, 4, 20.0): complex(4.395568494682848e-8, -2.6380471554999999e-8),
    (4, 4, 450.0): complex(3.0351400199636963e-14, -2.9697143196200775e-14),
    (4, 4, 3e4): complex(1.8620265652713278e-22, -1.8614180578810457e-22),
    (4, 4, 1e6): complex(2.6119369315463283e-29, -2.6119113201792051e-29),
    (4, 7, 20.0): complex(5.0166308788646928e-14, 2.2769378994146237e-13),
    (4, 7, 450.0): complex(1.1890310052729321e-23, 1.2508697769949372e-23),
    (4, 7, 3e4): complex(2.5528320443260716e-37, 2.5547734074152163e-37),
    (4, 7, 1e6): complex(9.6736827500566343e-49, 9.6739033662816647e-49),
    (10, 10, 20.0): complex(-2.038175255325361e-24, 4.7566923795076819e-25),
    (10, 10, 450.0): complex(-9.7600217250628984e-39, 9.2886100566192453e-39),
    (10, 10, 3e4): complex(-6.7313047185397689e-58, 6.7263100325911201e-58),
    (10, 10, 1e6): complex(-6.882023304400757e-74, 6.8818700536436855e-74),
    (10, 13, 20.0): complex(1.0083769975346663e-32, -3.5476369204455038e-31),
    (10, 13, 450.0): complex(-1.3812617669525342e-49, -1.4851402445622289e-49),
    (10, 13, 3e4): complex(-3.4167304878579223e-74, -3.4204455649003212e-74),
    (10, 13, 1e6): complex(-9.4401021898501001e-95, -9.4404099596801202e-95),
}
# nodes evaluated per lambda at each step h: the rule's 10.4/h nodes less
# its axis tail
EVALUATED_NODES = {0.1: 174, 0.05: 354, 0.025: 720, 0.0125: 1463,
                   0.00625: 2969, 0.003125: 6021}


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
    _, phi, weights, _, moments = mr._de_rule(0.025)
    for arr in (phi, weights, moments, mr._far_series(3, 3)[2],
                mr._axis_jet(3, 1.0, 3), *mr._torus_rule(3),
                *mr._torus_rule(4), *mr._residue_table(3, 1.0, 3, 60)):
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


def residue_table_per_pole(n, q, m, terms):
    """(exponent, log_scale, p) of ``mr._residue_table`` built pole by pole
    from Gamma jets at each centre: 1/Gamma at -d peeled d times, its
    reciprocal and power, and 1/Gamma at c - (n-1) d from log Gamma
    jets."""
    order = n + 1
    c = mr._c_exp(n, m)
    logq = math.log(q)
    qjet = np.array([(-logq) ** t / math.factorial(t)
                     for t in range(order + 1)], dtype=complex)
    scale = np.array([(n - 1.0) ** t for t in range(order + 1)])
    expo = np.empty(terms)
    log_scales = np.empty(terms, dtype=complex)
    poly = np.zeros((terms, n), dtype=complex)
    for d in range(terms):
        rg = recip_gamma_jet(-d, order + 1)
        rg1 = rg[1]
        gamma_reg = jet_recip(rg[1:order + 2] / rg1)
        log_scale = -(n - 1) * np.log(complex(rg1)) + d * logq
        prod = gamma_reg.copy()
        for _ in range(n - 2):
            prod = jet_mul(prod, gamma_reg)
        center = c - (n - 1) * d
        rounded = round(center)
        if abs(center - rounded) < 1e-9 and rounded <= 0:
            gjet = recip_gamma_jet(rounded, order) * scale
            nz = int(np.flatnonzero(np.abs(gjet) > 0.0)[0])
            s0 = gjet[nz]
            gjet = gjet / s0
            log_scale += np.log(complex(s0))
        else:
            lg = log_gamma_jet(center, order)
            lg0 = lg.copy()
            lg0[0] = 0.0
            gjet = jet_exp(-lg0) * scale
            log_scale -= lg[0]
        prod = jet_mul(prod, jet_mul(qjet, gjet))
        if d == 0:
            idx = n - 1
        else:
            xinv = np.array([-(1.0 / d) * d ** (-t)
                             for t in range(order + 1)], dtype=complex)
            prod = jet_mul(prod, xinv)
            idx = n - 2
        expo[d] = -(n - 1) * d + c - 1
        log_scales[d] = log_scale
        poly[d, :idx + 1] = [complex(prod[idx - t]) * (n - 1.0) ** t
                             / math.factorial(t) for t in range(idx + 1)]
    return expo, log_scales, poly


def _series_terms(table, lam):
    """The terms exp(log_scale + exponent log lam) p[d, t] log(lam)^t of
    the residue series, one row per pole."""
    expo, log_scale, poly = table
    ll = math.log(lam)
    return (np.exp(log_scale + expo * ll)[:, None] * poly
            * ll ** np.arange(poly.shape[1]))


def test_residue_table_recurrence_matches_per_pole_jets():
    # every term within 1e-13 of the largest, where the series is summed
    for n in (3, 4):
        for m in range(n, n + 4):
            for q in (0.5, 1.0, 2.0):
                table = mr._residue_table(n, q, m, 60)
                oracle = residue_table_per_pole(n, q, m, 60)
                assert np.array_equal(table[0], oracle[0])
                for ratio in (1.05, 1.5, 4.0):
                    lam = ratio * mr.u_of_q(n, q)
                    got = _series_terms(table, lam)
                    want = _series_terms(oracle, lam)
                    assert (np.max(np.abs(got - want))
                            <= 1e-13 * np.max(np.abs(want)))


def test_contour_value_does_not_depend_on_the_batch():
    # a lambda's value is the same bits alone or among others, so the
    # probes that make_mb_config caches are the ones it would recompute
    lams = mr.u_of_q(4, 1.3) * np.linspace(0.05, 4.0, 23)
    for h in (0.05, 0.0125):
        vals, mags = mr._phi_de(4, 1.3, 5, lams, h)
        for lam, val, mag in zip(lams, vals, mags):
            one_val, one_mag = mr._phi_de(4, 1.3, 5, np.array([lam]), h)
            assert one_val[0] == val and one_mag[0] == mag
    mr._probe.cache_clear()
    first = mr.make_mb_config(4, 1.3, 5, 6.0, 1e-9)
    assert mr._probe.cache_info().hits == 0
    again = mr.make_mb_config(4, 1.3, 5, 6.0, 1e-9)
    assert mr._probe.cache_info().hits > 0 and again == first


def test_edge_probes_are_kept_across_configs(monkeypatch):
    # make_mb_config probes u and lam_max one lambda at a time; a second
    # config for the same (n, q, m) reads every u probe from the cache, so
    # only the new lam_max is evaluated, once per h
    calls = []
    phi_de = mr._phi_de

    def counted(n, q, m, lams, h):
        calls.append((list(lams), h))
        return phi_de(n, q, m, lams, h)

    monkeypatch.setattr(mr, "_phi_de", counted)
    mr._probe.cache_clear()
    mr.make_mb_config(3, 0.8, 4, 5.0, 1e-9)
    calls.clear()
    mr.make_mb_config(3, 0.8, 4, 6.0, 1e-9)
    steps = [h for _, h in calls]
    assert calls and all(lams == [6.0] for lams, _ in calls)
    assert len(set(steps)) == len(steps)


def test_far_series_against_mpmath():
    for (n, m, b), want in FAR_G.items():
        assert b >= mr._far_series(n, m)[0]
        got = complex(mr._folded(n, 0.7, m, np.array([b]))[0])
        assert abs(got - want) <= 1e-13 * abs(want)


def test_evaluated_nodes_pinned():
    for h, count in EVALUATED_NODES.items():
        big_m, phi, weights, nsin, _ = mr._de_rule(h)
        full_m, full_phi, full_w, full_nsin = mr._de_nodes(h)
        tail = full_m / mr._OMEGA_FLOOR * full_phi < mr._TAIL_B
        assert big_m == full_m and len(phi) == count
        assert np.array_equal(phi, full_phi[~tail])
        assert np.array_equal(weights, full_w[~tail])
        assert nsin == np.count_nonzero(~tail[:full_nsin])
        # the tail is the lowest t of each kind
        assert not tail[full_nsin - 1] and not tail[-1]
        assert tail[0] and tail[full_nsin]


@pytest.mark.parametrize("n", [3, 4])
def test_axis_tail_moments_match_the_direct_sum(n):
    # the tail's part of both rule sums against the sums over its nodes,
    # G from log_gamma_array; measured in sum_j w_j |G(b_j)| over the
    # whole rule, the scale of the rule's roundoff
    q = 1.3
    for m in (n, n + 3):
        kappa = mr._axis_jet(n, q, m)
        for h in EVALUATED_NODES:
            big_m, phi, weights, nsin = mr._de_nodes(h)
            moments = mr._de_rule(h)[4]
            tail = big_m / mr._OMEGA_FLOOR * phi < mr._TAIL_B
            sine = np.arange(len(phi)) < nsin
            for omega in (0.0, 4e-4, 0.5, -0.5):
                stretch = big_m / max(abs(omega), mr._OMEGA_FLOOR)
                b = stretch * phi
                g = mr._folded(n, q, m, b)
                scale = weights @ np.abs(g)
                cos_part = tail & ~sine
                sin_part = tail & sine
                direct = (weights[cos_part] @ (np.cos(omega * b[cos_part])
                                               * g.real[cos_part])
                          - weights[sin_part] @ (np.sin(omega * b[sin_part])
                                                 * g.imag[sin_part]))
                direct_mag = weights[tail] @ np.abs(g[tail])
                val, mag = mr._axis_tail(kappa, moments, np.array([omega]),
                                         np.array([stretch]))
                assert abs(val[0] - direct) <= 1e-16 * scale
                assert abs(mag[0] - direct_mag) <= 1e-16 * scale


def test_residue_series_overflow_guard():
    # factorial growth of the residue at deep integer centers must fail
    # loudly, not return garbage
    with pytest.raises(NumericsError):
        mr.phi_residue_series(3, 1.0, 3, 5.0, terms=120)


@pytest.mark.parametrize("n, m", [(3, 1), (5, 2)])
@pytest.mark.parametrize("q", [1.0, 0.7])
def test_residue_series_at_integer_c_is_a_derivative(n, m, q):
    # c = m + 1/2 - n/2 = 0: the table of Phi_m starts from the 1/Gamma jet
    # at the pole c itself.  d Phi_{m+1} / d lambda = Phi_m, by central
    # differences; the worst reading is 5.5e-11 relative
    assert mr._c_exp(n, m) == 0.0
    for ratio in (1.5, 2.5, 4.0):
        lam = ratio * mr.u_of_q(n, q)
        h = 1e-5 * lam
        upper, lower = (mr.phi_residue_series(n, q, m + 1, lam + s * h,
                                              terms=40) for s in (1, -1))
        want = mr.phi_residue_series(n, q, m, lam, terms=40)
        assert abs((upper - lower) / (2 * h) - want) < 1e-8 * abs(want)


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


def test_laplace_edge_in_tau_reaches_roundoff():
    # lambda = u + (lam_break - u) tau^2 absorbs the t^(m - 1/2) of Phi at
    # u; equal panels in lambda read 1.3e-14 and 4.3e-14 here
    for q in (1.0, 2.0):
        out = mr.laplace_spot_check(3, q, 3)
        assert np.max(out["rel_errors"]) < 5e-15


def test_laplace_edge_takes_32_contour_lambdas(monkeypatch):
    seen = []
    contour = mr.phi_mb_batch

    def counting(n, q, m, lams, cfg):
        seen.append(np.array(lams, dtype=float))
        return contour(n, q, m, lams, cfg)

    monkeypatch.setattr(mr, "phi_mb_batch", counting)
    mr.laplace_spot_check(3, 1.0, 3)
    lams = np.concatenate(seen)
    u = mr.u_of_q(3, 1.0)
    assert lams.size == 32
    assert np.all((lams > u) & (lams < 1.5 * u))
