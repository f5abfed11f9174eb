"""Kernel-level checks: special functions, jets, branches, paths, ODE."""

import cmath
import math
import subprocess
import sys

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


# psi^(k)(z) from 30-digit mpmath, rounded to double; 1.46 sits near the
# zero of psi, -2.5 is a negative half-integer where psi^(12) is 1e11 times
# smaller than its largest shift term; -60.5 and -178.5 are reached by
# reflection, and -178.5 lies past the deepest centre of the residue series
POLYGAMMA_REFS = [
    (0, -60.5, 4.110885061353463),
    (3, -60.5, 194.81817325787839),
    (12, -60.5, -1.5012037448676867e-14),
    (0, -178.5, 5.187387106250826),
    (3, -178.5, 194.8181817192951),
    (12, -178.5, -3.6883425687507057e-20),
    (0, 0.5, -1.9635100260214235),
    (0, 1.0, -0.5772156649015329),
    (0, 1.46, -0.0015805619870834522),
    (0, 7.5, 1.9467574842460869),
    (0, -2.5, 1.103156640645243),
    (0, 0.3 + 4j, complex(1.3849293523158994, 1.6210197716815968)),
    (0, 15 - 12j, complex(2.9350234898466327, -0.6912214059558269)),
    (1, 0.5, 4.934802200544679),
    (1, 1.0, 1.6449340668482264),
    (1, 1.46, 0.9691196215098878),
    (1, 7.5, 0.1426158966967038),
    (1, -2.5, 9.539246644989124),
    (1, 0.3 + 4j, complex(-0.012670063832095277, -0.25068810261755137)),
    (1, 15 - 12j, complex(0.04093756104705762, 0.03386342965014345)),
    (2, 0.5, -16.82879664423432),
    (2, 1.0, -2.4041138063191885),
    (2, 1.46, -0.8880630425818332),
    (2, 7.5, -0.020305252536644666),
    (2, -2.5, -0.1082040516417274),
    (2, 0.3 + 4j, complex(0.06302186862849432, -0.006423313820031893)),
    (2, 15 - 12j, complex(-0.0005297686603296614, -0.0027723269195575606)),
    (5, 0.5, 7691.113548602436),
    (5, 1.0, 122.0811674381339),
    (5, 1.46, 13.024059586928812),
    (5, 7.5, 0.0013927076560043099),
    (5, -2.5, 15382.140048026304),
    (5, 0.3 + 4j, complex(-0.006479818735702193, -0.02447079677877429)),
    (5, 15 - 12j, complex(-9.665130972860771e-06, -3.11338076967304e-06)),
    (11, 0.5, 163499521134.7588),
    (11, 1.0, 39926622.987731084),
    (11, 1.46, 426348.4194083104),
    (11, 7.5, 0.0016490341849347435),
    (11, -2.5, 326999042257.0655),
    (11, 0.3 + 4j, complex(0.7456623129270022, 1.1044858006936065)),
    (11, 15 - 12j, complex(9.006958118101919e-09, 3.3256962541409754e-08)),
    (12, 0.5, -3923983571677.6094),
    (12, 1.0, -479060379.8898314),
    (12, 1.46, -3501449.8370378995),
    (12, 7.5, -0.0025431917396943953),
    (12, -2.5, -42.17265738445786),
    (12, 0.3 + 4j, complex(-3.2742172429061003, 2.444843248251452)),
    (12, 15 - 12j, complex(8.281540248416534e-09, -1.8342629224247997e-08)),
]


@pytest.mark.parametrize("k,z,ref", POLYGAMMA_REFS)
def test_polygamma_frozen_references(k, z, ref):
    assert abs(nx.polygamma(k, z) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_polygamma_reflection_keeps_relative_accuracy():
    # the frozen test above is absolute below |psi| = 1; psi^(12) at a
    # negative half-integer is psi^(12)(1 - z) exactly and is tiny
    for k, z, ref in POLYGAMMA_REFS:
        if z in (-60.5, -178.5):
            assert abs(nx.polygamma(k, z) - ref) <= 1e-14 * abs(ref)


def test_polygamma_order_and_pole_errors():
    with pytest.raises(ValueError):
        nx.polygamma(nx.MAX_JET_ORDER + 1, 1.0)
    with pytest.raises(nx.PoleError):
        nx.polygamma(3, -2.0)


def test_import_leaves_mpmath_unloaded():
    code = ("import sys, gamma_monodromy.cli, gamma_monodromy.suite; "
            "print('mpmath' in sys.modules, "
            "'scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_recip_gamma_jet_trivial_points():
    assert abs(nx.recip_gamma_jet(1.0, 0)[0] - 1.0) < 1e-13
    assert abs(nx.recip_gamma_jet(-3.0, 0)[0]) < 1e-13
    j = nx.recip_gamma_jet(0.0, 1)
    assert abs(j[0]) < 1e-13
    assert abs(j[1] - 1.0) < 1e-12


def test_recip_gamma_jet_finite_difference():
    # derivative of 1/Gamma at a generic point vs central difference
    z = 1.7 - 0.3j
    h = 1e-4  # large enough that the second difference is not all roundoff
    jet = nx.recip_gamma_jet(z, 2)
    f = lambda w: cmath.exp(-nx.log_gamma(w))
    d1 = (f(z + h) - f(z - h)) / (2 * h)
    d2 = (f(z + h) - 2 * f(z) + f(z - h)) / h ** 2
    assert abs(jet[1] - d1) < 1e-7
    assert abs(2 * jet[2] - d2) < 1e-6


def test_recip_gamma_jet_pole_center_small_values():
    # entire function: values at Gamma poles are finite and start with zeros
    j = nx.recip_gamma_jet(-6.0, 3)
    assert abs(j[0]) < 1e-12
    assert abs(j[1] - 720.0) < 1e-9 * 720  # derivative is (-1)^6 * 6!


def test_recip_times_gamma_is_one():
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = complex(rng.uniform(0.2, 10), rng.uniform(-5, 5))
        val = nx.recip_gamma_jet(z, 0)[0] * cmath.exp(nx.log_gamma(z))
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
    g = nx.jet_exp(lg)
    assert abs(g[0] - cmath.exp(nx.log_gamma(z))) < 1e-11 * abs(g[0])


def test_jet_order_cap():
    with pytest.raises(ValueError):
        nx.recip_gamma_jet(0.0, nx.MAX_JET_ORDER + 1)


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


def reverse_piece(p):
    if isinstance(p, nx.Segment):
        return nx.Segment(p.z1, p.z0)
    return nx.Arc(p.center, p.radius, p.angle1, p.angle0)


def reverse_path(path):
    return [reverse_piece(p) for p in reversed(path)]


def test_reverse_path_endpoints():
    p = [nx.Segment(1.0, 2.0), nx.Arc(0.0, 2.0, 0.0, math.pi / 2)]
    r = reverse_path(p)
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
    y2, _, _ = nx.ode_continue(euler, upper, reverse_path(p), y1,
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
