"""Kernel-level checks: special functions, jets, branches, paths, ODE."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_monodromy import numerics as nx

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# log_gamma / polygamma
# ---------------------------------------------------------------------------

def test_log_gamma_reference_points():
    assert abs(nx.log_gamma(1.0)) < 1e-13
    assert abs(nx.log_gamma(5.0) - math.log(24.0)) < 1e-12
    assert abs(nx.log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13


def test_log_gamma_matches_exp_on_disk():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = complex(rng.uniform(-49, 49), rng.uniform(-49, 49))
        if nx._is_nonpositive_integer(z) or abs(z) > 50:
            continue
        if abs(z - round(z.real)) < 1e-2 and z.real <= 0:
            continue  # too close to a pole for the relative target
        g = cmath.exp(nx.log_gamma(z))
        # Gamma(z+1) = z*Gamma(z) as an independent consistency probe
        g1 = cmath.exp(nx.log_gamma(z + 1))
        assert abs(g1 - z * g) <= 1e-12 * abs(g1)


def test_log_gamma_pole_error():
    with pytest.raises(nx.PoleError):
        nx.log_gamma(0.0)
    with pytest.raises(nx.PoleError):
        nx.log_gamma(-4.0)


def test_polygamma_reference_values():
    assert abs(nx.polygamma(0, 1.0) + EULER_GAMMA) < 1e-12
    assert abs(nx.polygamma(0, 2.0) - (1.0 - EULER_GAMMA)) < 1e-12
    assert abs(nx.polygamma(1, 1.0) - math.pi ** 2 / 6) < 1e-12


def test_polygamma_recurrence_random_grid():
    rng = np.random.default_rng(11)
    count = 0
    while count < 100:
        z = complex(rng.uniform(0.05, 20), rng.uniform(-20, 20))
        if abs(z) > 20:
            continue
        lhs = nx.polygamma(0, z + 1) - nx.polygamma(0, z)
        assert abs(lhs - 1.0 / z) < 1e-11
        count += 1


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_recip_gamma_jet_trivial_points():
    assert abs(nx.recip_gamma_jet(1.0, 0).c[0] - 1.0) < 1e-13
    assert abs(nx.recip_gamma_jet(-3.0, 0).c[0]) < 1e-13
    j = nx.recip_gamma_jet(0.0, 1).c
    assert abs(j[0]) < 1e-13
    assert abs(j[1] - 1.0) < 1e-12


def test_recip_gamma_jet_finite_difference():
    # derivative of 1/Gamma at a generic point vs central difference
    z = 1.7 - 0.3j
    h = 1e-4  # large enough that the second difference is not all roundoff
    jet = nx.recip_gamma_jet(z, 2).c
    f = lambda w: cmath.exp(-nx.log_gamma(w))
    d1 = (f(z + h) - f(z - h)) / (2 * h)
    d2 = (f(z + h) - 2 * f(z) + f(z - h)) / h ** 2
    assert abs(jet[1] - d1) < 1e-7
    assert abs(2 * jet[2] - d2) < 1e-6


def test_recip_gamma_jet_pole_center_small_values():
    # entire function: values at Gamma poles are finite and start with zeros
    j = nx.recip_gamma_jet(-6.0, 3).c
    assert abs(j[0]) < 1e-12
    assert abs(j[1] - 720.0) < 1e-9 * 720  # derivative is (-1)^6 * 6!


def test_recip_times_gamma_is_one():
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = complex(rng.uniform(0.2, 10), rng.uniform(-5, 5))
        val = nx.recip_gamma_jet(z, 0).c[0] * cmath.exp(nx.log_gamma(z))
        assert abs(val - 1.0) < 1e-10


def test_jet_mul_matches_polynomial_product():
    a = np.array([1.0, 2.0, 3.0], dtype=complex)
    b = np.array([4.0, 5.0, 6.0], dtype=complex)
    c = nx.jet_mul(a, b)
    assert np.allclose(c, [4.0, 13.0, 28.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=6),
       st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=6))
def test_jet_mul_commutative(xs, ys):
    k = min(len(xs), len(ys))
    a = np.array(xs[:k], dtype=complex)
    b = np.array(ys[:k], dtype=complex)
    ab = nx.jet_mul(a, b)
    ba = nx.jet_mul(b, a)
    assert np.max(np.abs(ab - ba)) <= 1e-12 * max(1.0, np.max(np.abs(ab)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                   allow_infinity=False),
                min_size=2, max_size=6))
def test_jet_recip_roundtrip(xs):
    a = np.array(xs, dtype=complex)
    a[0] += 4.0  # keep the constant term away from zero
    r = nx.jet_recip(a)
    prod = nx.jet_mul(a, r)
    unit = np.zeros_like(prod)
    unit[0] = 1.0
    assert np.max(np.abs(prod - unit)) < 1e-10


def test_jet_exp_log_gamma_consistency():
    # exp of the logGamma jet should reproduce Gamma itself at order 0
    z = 2.3 + 0.4j
    lg = nx.log_gamma_jet(z, 4)
    g = nx.Jet(nx.jet_exp(lg.c))
    assert abs(g.c[0] - cmath.exp(nx.log_gamma(z))) < 1e-11 * abs(g.c[0])


def test_jet_order_cap():
    with pytest.raises(ValueError):
        nx.jet_variable(0.0, nx.MAX_JET_ORDER + 1)


# ---------------------------------------------------------------------------
# branch states and powers
# ---------------------------------------------------------------------------

def test_branch_state_consistency():
    b = nx.principal_branch(2.0 + 1.0j)
    b.check()
    assert abs(cmath.exp(b.log_value) - b.base) < 1e-12 * abs(b.base)
    bad = nx.BranchState(1.0, 1.0j)
    with pytest.raises(nx.NumericsError):
        bad.check()


def test_branch_power_principal():
    assert abs(nx.branch_power(nx.principal_branch(1.0), 7.3) - 1.0) < 1e-14
    b = nx.principal_branch(math.e)
    assert abs(nx.branch_power(b, 2.0) - math.e ** 2) < 1e-13


def test_branch_power_after_winding():
    # one counterclockwise turn around 0: sqrt picks up a sign
    b = nx.principal_branch(1.0, winding=1)
    assert abs(nx.branch_power(b, 0.5) + 1.0) < 1e-13


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def unit_circle(start: complex = 1.0) -> list:
    a0 = cmath.phase(start)
    return [nx.Arc(0.0, abs(start), a0, a0 + 2 * math.pi)]


def test_validate_path_accepts_joined_pieces():
    p = [nx.Segment(0.0, 1.0), nx.Segment(1.0, 1.0 + 1.0j)]
    nx.validate_path(p)


def test_validate_path_rejects_gap():
    p = [nx.Segment(0.0, 1.0), nx.Segment(1.0 + 1e-6, 2.0)]
    with pytest.raises(ValueError):
        nx.validate_path(p)


def test_validate_path_closed():
    nx.validate_path(unit_circle(), closed=True)
    with pytest.raises(ValueError):
        nx.validate_path([nx.Segment(0.0, 1.0)], closed=True)


def test_reverse_path_endpoints():
    p = [nx.Segment(1.0, 2.0), nx.Arc(0.0, 2.0, 0.0, math.pi / 2)]
    r = nx.reverse_path(p)
    assert abs(r[0].start - p[-1].end) < 1e-15
    assert abs(r[-1].end - p[0].start) < 1e-15
    nx.validate_path(r)


def test_scale_path_maps_points():
    w = 2.0j
    p = [nx.Segment(1.0, 2.0), nx.Arc(0.0, 2.0, 0.0, 1.0)]
    s = nx.scale_path(p, w)
    for orig, img in zip(p, s):
        for t in (0.0, 0.37, 1.0):
            assert abs(img.point(t) - w * orig.point(t)) < 1e-12


# ---------------------------------------------------------------------------
# ode_continue
# ---------------------------------------------------------------------------

def scalar(a: complex, size: int = 1) -> np.ndarray:
    return a * np.eye(size, dtype=complex)


def test_ode_zero_rhs_identity():
    y0 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    y1, br, _ = nx.ode_continue(scalar(0.0, 2), scalar(0.0, 2),
                                unit_circle(), y0)
    assert np.max(np.abs(y1 - y0)) < 1e-12
    # branch picked up one full turn
    assert abs(br.log_value.imag - 2 * math.pi) < 1e-9


def test_ode_halfpower_monodromy():
    # lam y' = y/2
    y0 = np.array([1.0 + 0.0j])
    y1, _, _ = nx.ode_continue(scalar(0.0), scalar(0.5), unit_circle(), y0)
    assert abs(y1[0] + 1.0) < 1e-9


def test_ode_fullpower_monodromy_trivial():
    y0 = np.array([1.0 + 0.0j])
    y1, _, _ = nx.ode_continue(scalar(0.0), scalar(1.0), unit_circle(), y0)
    assert abs(y1[0] - 1.0) < 1e-9


def test_ode_composability():
    # P then Q equals P||Q
    tol = 1e-10
    y0 = np.array([1.0 + 0.5j, -0.25j])
    upper = np.array([[0.0, 1.0], [-1.0, 0.0]])
    euler = scalar(0.0, 2)
    p = [nx.Segment(1.0, 2.0 + 1.0j)]
    qq = [nx.Segment(2.0 + 1.0j, 3.0 - 0.5j)]
    ya, bra, _ = nx.ode_continue(euler, upper, p, y0)
    yb, _, _ = nx.ode_continue(euler, upper, qq, ya, branch0=bra)
    yc, _, _ = nx.ode_continue(euler, upper, p + qq, y0)
    assert np.max(np.abs(yb - yc)) < 3 * tol


def test_ode_reversibility():
    # (lam - 0.2i) y' = [[0, 2], [1, 0]] y
    tol = 1e-10
    y0 = np.array([0.3 + 1.0j, 0.8])
    upper = np.array([[0.0, 2.0], [1.0, 0.0]])
    euler = scalar(0.2j, 2)
    p = [nx.Arc(0.0, 1.5, 0.0, math.pi), nx.Segment(-1.5, -2.5)]
    y1, br, _ = nx.ode_continue(euler, upper, p, y0)
    y2, _, _ = nx.ode_continue(euler, upper, nx.reverse_path(p), y1,
                               branch0=br)
    assert np.max(np.abs(y2 - y0)) < 3 * tol


def test_ode_segment_into_singular_point_raises():
    y0 = np.array([1.0 + 0.0j])
    path = [nx.Segment(0.5, 1.0)]  # runs straight into the singularity
    with pytest.raises(nx.NumericsError):
        nx.ode_continue(scalar(1.0), scalar(1.0), path, y0)


def test_ode_branch_tracks_windings():
    y0 = np.array([1.0 + 0.0j])
    two_turns = [nx.Arc(0.0, 1.0, 0.0, 4 * math.pi)]
    _, br, _ = nx.ode_continue(scalar(0.0), scalar(0.0), two_turns, y0)
    assert abs(br.log_value.imag - 4 * math.pi) < 1e-8
    br.check()


def test_ode_loop_around_one_of_two_singular_points():
    # E = diag(1, 1.5+0.25i): circling lambda = 1 only multiplies the first
    # component by exp(2 pi i 0.3); the path passes 0.25 from the second
    # singular point, whose component comes back unchanged
    euler = np.diag([1.0, 1.5 + 0.25j])
    upper = np.diag([0.3, 0.7])
    path = [nx.Segment(3.0, 1.3), nx.Arc(1.0, 0.3, 0.0, 2 * math.pi),
            nx.Segment(1.3, 3.0)]
    y0 = np.array([1.0 + 0.0j, 1.0 + 0.0j])
    y1, br, err = nx.ode_continue(euler, upper, path, y0)
    assert abs(y1[0] - cmath.exp(2j * math.pi * 0.3)) < 1e-13
    assert abs(y1[1] - 1.0) < 1e-13
    # the loop does not wind around the origin
    assert abs(br.log_value - math.log(3.0)) < 1e-14
    assert 0.0 <= err < 1e-13


# ---------------------------------------------------------------------------
# linear algebra helpers
# ---------------------------------------------------------------------------

def test_eig_unit_minus_diagonal():
    m = np.diag([-1.0, 1.0, 1.0]).astype(complex)
    v = nx.eig_unit_minus(m, 1e-8)
    assert abs(abs(v[0]) - 1.0) < 1e-10
    assert np.max(np.abs(v[1:])) < 1e-10


def test_eig_unit_minus_identity_ambiguous():
    with pytest.raises(nx.EigenAmbiguityError):
        nx.eig_unit_minus(np.eye(3, dtype=complex), 1e-8)


def test_eig_unit_minus_householder():
    rng = np.random.default_rng(5)
    u = rng.normal(size=4)
    u = u / np.linalg.norm(u)
    h = np.eye(4) - 2.0 * np.outer(u, u)
    v = nx.eig_unit_minus(h.astype(complex), 1e-9)
    # eigenvector for -1 is the reflection normal, up to phase
    overlap = abs(np.vdot(u, v))
    assert abs(overlap - 1.0) < 1e-9


def test_eig_unit_minus_deterministic_phase():
    rng = np.random.default_rng(9)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    u = u / np.linalg.norm(u)
    h = np.eye(3) - 2.0 * np.outer(u, u.conj())
    v1 = nx.eig_unit_minus(h, 1e-9)
    v2 = nx.eig_unit_minus(h, 1e-9)
    assert np.max(np.abs(v1 - v2)) < 1e-12


def test_check_inverse_well_conditioned():
    rng = np.random.default_rng(2)
    for n in (2, 8, 32):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m += n * np.eye(n)  # keep it comfortably invertible
        inv = nx.check_inverse(m, 1e-10)
        assert np.max(np.abs(m @ inv - np.eye(n))) < 1e-10


def test_check_inverse_raises_on_bad_conditioning():
    # Hilbert-type matrix: inversion succeeds but the residual is garbage
    n = 13
    m = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)],
                 dtype=complex)
    with pytest.raises((nx.NumericsError, np.linalg.LinAlgError)):
        nx.check_inverse(m, 1e-10)
