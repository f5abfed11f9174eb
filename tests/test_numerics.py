"""Kernel-level checks: special functions, jets, branches, paths, ODE."""

import cmath
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_monodromy import monodromy as md
from gamma_monodromy import numerics as nx
from gamma_monodromy import periods as pd
from gamma_monodromy.cohomology import make_proj
from gamma_monodromy.quantum import quantum_mult_proj, sseries_proj
from oracles import (branch_power, continue_path, full_path, local_solutions,
                     ode_continue)

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
        if z.real <= 0 or abs(z) > 50:
            continue
        g = cmath.exp(nx.log_gamma(z))
        # Gamma(z+1) = z*Gamma(z) as an independent consistency probe
        g1 = cmath.exp(nx.log_gamma(z + 1))
        assert abs(g1 - z * g) <= 1e-12 * abs(g1)


def test_log_gamma_pole_error():
    # poles and the rest of Re z <= 0 alike
    for z in (0.0, -4.0, -2.5, 1e-300j, -0.5 + 3j):
        with pytest.raises(ValueError):
            nx.log_gamma(z)


def _log_gamma_grids():
    """The line 1 + ib out to |b| = 1e7, the contour lines (n-1)(1+ib) + c
    of the suite's Phi (n = 3, 4, m = n), the discs |z - 1|, |z - 2| <= 0.2
    and the real segment (0, 60]."""
    b = np.concatenate([np.linspace(-10.0, 10.0, 2001),
                        np.geomspace(1e-12, 1e7, 400),
                        -np.geomspace(1e-12, 1e7, 400)])
    grids = {"line": 1.0 + 1j * b}
    for n in (3, 4):
        c = n + 0.5 - n / 2.0
        grids["contour n=%d" % n] = (n - 1) * (1.0 + 1j * b) + c
    radius = 0.2 * np.sqrt(np.linspace(0.0, 1.0, 40))[:, None]
    angle = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 60))[None, :]
    for center in (1.0, 2.0):
        grids["disc %g" % center] = (center + radius * angle).ravel()
    grids["real"] = np.concatenate([np.linspace(0.01, 60.0, 6000),
                                    np.geomspace(1e-8, 0.01, 50)]) + 0j
    return grids


def _mod_2pi_error(got, want):
    d = got - want
    d = d.real + 1j * ((d.imag + math.pi) % (2.0 * math.pi) - math.pi)
    return np.abs(d) / np.maximum(1.0, np.abs(want))


@pytest.mark.parametrize("name,z", list(_log_gamma_grids().items()))
def test_log_gamma_array_matches_scipy(name, z):
    # scipy is a test-only oracle; the two agree mod 2 pi i
    want = scipy.special.loggamma(z)
    assert np.max(_mod_2pi_error(nx.log_gamma_array(z), want)) < 1e-14


@pytest.mark.parametrize("name,z", list(_log_gamma_grids().items()))
def test_log_gamma_scalar_matches_scipy(name, z):
    z = z[::7]
    got = np.array([nx.log_gamma(v) for v in z])
    assert np.max(_mod_2pi_error(got, scipy.special.loggamma(z))) < 1e-14


def test_log_gamma_array_value_does_not_depend_on_the_batch():
    # in the Taylor disc about 1 each point is summed to its own depth:
    # alone, beside a point at the disc's edge, or among all of them
    z = _log_gamma_grids()["disc 1"]
    z = z[np.abs(z - 1.0) <= 0.08]
    alone = np.array([nx.log_gamma_array(z[i:i + 1])[0]
                      for i in range(len(z))])
    edge = np.array([nx.log_gamma_array(np.array([v, 1.0 + 0.0799j]))[0]
                     for v in z])
    assert np.array_equal(nx.log_gamma_array(z), alone)
    assert np.array_equal(edge, alone)


def test_log_gamma_array_rejects_left_half_plane():
    with pytest.raises(ValueError):
        nx.log_gamma_array(np.array([1.0, -0.5 + 1j]))


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
# zero of psi
POLYGAMMA_REFS = [
    (0, 0.5, -1.9635100260214235),
    (0, 1.0, -0.5772156649015329),
    (0, 1.46, -0.0015805619870834522),
    (0, 7.5, 1.9467574842460869),
    (0, 0.3 + 4j, complex(1.3849293523158994, 1.6210197716815968)),
    (0, 15 - 12j, complex(2.9350234898466327, -0.6912214059558269)),
    (1, 0.5, 4.934802200544679),
    (1, 1.0, 1.6449340668482264),
    (1, 1.46, 0.9691196215098878),
    (1, 7.5, 0.1426158966967038),
    (1, 0.3 + 4j, complex(-0.012670063832095277, -0.25068810261755137)),
    (1, 15 - 12j, complex(0.04093756104705762, 0.03386342965014345)),
    (2, 0.5, -16.82879664423432),
    (2, 1.0, -2.4041138063191885),
    (2, 1.46, -0.8880630425818332),
    (2, 7.5, -0.020305252536644666),
    (2, 0.3 + 4j, complex(0.06302186862849432, -0.006423313820031893)),
    (2, 15 - 12j, complex(-0.0005297686603296614, -0.0027723269195575606)),
    (5, 0.5, 7691.113548602436),
    (5, 1.0, 122.0811674381339),
    (5, 1.46, 13.024059586928812),
    (5, 7.5, 0.0013927076560043099),
    (5, 0.3 + 4j, complex(-0.006479818735702193, -0.02447079677877429)),
    (5, 15 - 12j, complex(-9.665130972860771e-06, -3.11338076967304e-06)),
    (11, 0.5, 163499521134.7588),
    (11, 1.0, 39926622.987731084),
    (11, 1.46, 426348.4194083104),
    (11, 7.5, 0.0016490341849347435),
    (11, 0.3 + 4j, complex(0.7456623129270022, 1.1044858006936065)),
    (11, 15 - 12j, complex(9.006958118101919e-09, 3.3256962541409754e-08)),
    (12, 0.5, -3923983571677.6094),
    (12, 1.0, -479060379.8898314),
    (12, 1.46, -3501449.8370378995),
    (12, 7.5, -0.0025431917396943953),
    (12, 0.3 + 4j, complex(-3.2742172429061003, 2.444843248251452)),
    (12, 15 - 12j, complex(8.281540248416534e-09, -1.8342629224247997e-08)),
]


@pytest.mark.parametrize("k,z,ref", POLYGAMMA_REFS)
def test_polygamma_frozen_references(k, z, ref):
    assert abs(nx.polygamma(k, z) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_polygamma_order_and_pole_errors():
    with pytest.raises(ValueError):
        nx.polygamma(nx.MAX_JET_ORDER + 1, 1.0)
    for z in (-2.0, 0.0, -2.5, -0.5 + 3j):
        with pytest.raises(ValueError):
            nx.polygamma(3, z)


def test_import_leaves_mpmath_unloaded():
    # nor scipy, even after a contour evaluation: the runtime needs numpy
    code = ("import sys, numpy, gamma_monodromy.cli, gamma_monodromy.suite; "
            "from gamma_monodromy import mirror; "
            "cfg = mirror.make_mb_config(3, 1.0, 3, 3.0, 1e-6); "
            "mirror.phi_mb_batch(3, 1.0, 3, numpy.array([3.0]), cfg); "
            "print('mpmath' in sys.modules, "
            "'scipy.integrate' in sys.modules, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False False"


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


def test_recip_gamma_jet_matches_mpmath_at_half_integers():
    # every center the period series and the residue table start from lies
    # in 1/2 Z; below Re z = 5.5 the jet is built from linear factors, and
    # the zero of 1/Gamma at a nonpositive integer comes out exact
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for x in np.arange(-30.5, 14.0, 0.5):
            ref = [complex(c) for c in
                   mpmath.taylor(mpmath.rgamma, mpmath.mpf(float(x)), 12)]
            for k in (8, 12):
                got = nx.recip_gamma_jet(float(x), k)
                for g, r in zip(got, ref):
                    if r == 0:
                        assert g == 0, (x, k)
                    else:
                        assert abs(g - r) <= 1e-12 * abs(r), (x, k)


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
# tables built as deep as read
# ---------------------------------------------------------------------------

def test_prefix_growth_rule():
    counts = []

    def build(count):
        counts.append(count)
        out = np.arange(count, dtype=float)
        out.flags.writeable = False
        return out

    table = nx.Prefix(build, 201)
    assert counts == [] and table.value is None
    first = table.read(1)
    assert counts == [48] and len(first) == table.built == 48
    assert table.read(48) is first and counts == [48]
    for count, built in ((49, 96), (150, 192), (193, 201), (500, 201),
                         (0, 201)):
        assert len(table.read(count)) == table.built == built
    assert counts == [48, 96, 192, 201]
    # a grown value replaces the old one whole
    assert len(first) == 48 and not first.flags.writeable
    assert table.value[:48].tobytes() == first.tobytes()
    # a short table is built whole at the first read
    assert len(nx.Prefix(build, 30).read(1)) == 30 and counts[-1] == 30


def test_prefix_build_that_raises_changes_nothing():
    # a cached S-series whose deeper build overflows (under the CLI's
    # errstate) must not later hand out its shorter table as the deeper one
    def build(count):
        if count > 48:
            raise FloatingPointError("overflow")
        return np.arange(count, dtype=float)

    table = nx.Prefix(build, 201)
    first = table.read(10)
    for _ in range(2):
        with pytest.raises(FloatingPointError):
            table.read(60)
    assert table.built == 48 and table.read(48) is first


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
    assert abs(branch_power(nx.principal_branch(1.0), 7.3) - 1.0) < 1e-14
    b = nx.principal_branch(math.e)
    assert abs(branch_power(b, 2.0) - math.e ** 2) < 1e-13


def test_branch_power_after_winding():
    # one counterclockwise turn around 0: sqrt picks up a sign
    b = nx.principal_branch(1.0, winding=1)
    assert abs(branch_power(b, 0.5) + 1.0) < 1e-13


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def unit_circle(start: complex = 1.0) -> list:
    a0 = cmath.phase(start)
    return [md.Arc(0.0, abs(start), a0, a0 + 2 * math.pi)]


def reverse_piece(p):
    if isinstance(p, md.Segment):
        return md.Segment(p.end, p.start)
    return md.Arc(p.center, p.radius, p.angle1, p.angle0)


def reverse_path(path):
    return [reverse_piece(p) for p in reversed(path)]


# ---------------------------------------------------------------------------
# ode_continue
# ---------------------------------------------------------------------------

def scalar(a: complex, size: int = 1) -> np.ndarray:
    return a * np.eye(size, dtype=complex)


def test_ode_zero_rhs_identity():
    y0 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    y1, _, _ = continue_path(scalar(0.0, 2), scalar(0.0, 2),
                             unit_circle(), y0)
    assert np.max(np.abs(y1 - y0)) < 1e-12


def test_ode_zero_length_segment_returns_y0():
    y0 = np.array([[1.0 + 2.0j, 2.0], [3.0, 4.0 - 1e-300j]])
    for z in (1.0, 2.5 - 0.5j):
        y1, err, work = ode_continue(np.diag([1.0, 2.0]),
                                     np.array([[0.3, 1.0], [0.0, 0.7]]),
                                     z, z, y0)
        assert np.array_equal(y1, y0) and y1 is not y0
        assert err == 0.0 and work == (0, 0)


def test_ode_halfpower_monodromy():
    # lam y' = y/2
    y0 = np.array([1.0 + 0.0j])
    y1, _, _ = continue_path(scalar(0.0), scalar(0.5), unit_circle(), y0)
    assert abs(y1[0] + 1.0) < 1e-9


def test_ode_fullpower_monodromy_trivial():
    y0 = np.array([1.0 + 0.0j])
    y1, _, _ = continue_path(scalar(0.0), scalar(1.0), unit_circle(), y0)
    assert abs(y1[0] - 1.0) < 1e-9


def test_ode_composability():
    # P then Q equals the straight segment from P's start to Q's end: the
    # singular point 0 lies outside the triangle between them
    tol = 1e-10
    y0 = np.array([1.0 + 0.5j, -0.25j])
    upper = np.array([[0.0, 1.0], [-1.0, 0.0]])
    euler = scalar(0.0, 2)
    ya, _, _ = ode_continue(euler, upper, 1.0, 2.0 + 1.0j, y0)
    yb, _, _ = ode_continue(euler, upper, 2.0 + 1.0j, 3.0 - 0.5j, ya)
    yc, _, _ = ode_continue(euler, upper, 1.0, 3.0 - 0.5j, y0)
    assert np.max(np.abs(yb - yc)) < 3 * tol


def test_ode_reversibility():
    # (lam - 0.2i) y' = [[0, 2], [1, 0]] y
    tol = 1e-10
    y0 = np.array([0.3 + 1.0j, 0.8])
    upper = np.array([[0.0, 2.0], [1.0, 0.0]])
    euler = scalar(0.2j, 2)
    p = [md.Arc(0.0, 1.5, 0.0, math.pi), md.Segment(-1.5, -2.5)]
    y1, _, _ = continue_path(euler, upper, p, y0)
    y2, _, _ = continue_path(euler, upper, reverse_path(p), y1)
    assert np.max(np.abs(y2 - y0)) < 3 * tol


def test_ode_segment_into_singular_point_raises():
    y0 = np.array([1.0 + 0.0j])
    # runs straight into the singularity
    with pytest.raises(nx.NumericsError):
        ode_continue(scalar(1.0), scalar(1.0), 0.5, 1.0, y0)


def test_ode_loop_around_one_of_two_singular_points():
    # E = diag(1, 1.5+0.25i): circling lambda = 1 only multiplies the first
    # component by exp(2 pi i 0.3); the path passes 0.25 from the second
    # singular point, whose component comes back unchanged
    euler = np.diag([1.0, 1.5 + 0.25j])
    upper = np.diag([0.3, 0.7])
    path = [md.Segment(3.0, 1.3), md.Arc(1.0, 0.3, 0.0, 2 * math.pi),
            md.Segment(1.3, 3.0)]
    y0 = np.array([1.0 + 0.0j, 1.0 + 0.0j])
    y1, err, _ = continue_path(euler, upper, path, y0)
    assert abs(y1[0] - cmath.exp(2j * math.pi * 0.3)) < 1e-13
    assert abs(y1[1] - 1.0) < 1e-13
    assert 0.0 <= err < 1e-13


# ---------------------------------------------------------------------------
# sum_series against its term-by-term form
# ---------------------------------------------------------------------------

def _sum_series_termwise(first, step, message):
    """Test oracle: sum_series with the terms formed and tested one at a
    time, the loop the blocked form must reproduce bit for bit."""
    eps = np.finfo(float).eps
    term = first
    acc = first.copy()
    small = 0
    for j in range(nx._TERM_CAP):
        term = step(j, term)
        scale = np.max(np.abs(acc), axis=0)
        rel = float(np.max(np.max(np.abs(term), axis=0)
                           / np.where(scale > 0, scale, 1.0)))
        small = small + 1 if rel <= eps else 0
        if small == 2:
            return acc, rel, j
        acc += term
    raise nx.NumericsError(message)


def _termwise(fn, args):
    """fn(*args) with the term-by-term oracle in place of sum_series."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nx, "sum_series", _sum_series_termwise)
        return fn(*args)


def _assert_same_series(fn, args):
    """fn(*args), a continuation or _local_solutions, gives the same bits
    with sum_series and with the term-by-term oracle."""
    got = fn(*args)
    want = _termwise(fn, args)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    return got


def _assert_term_cap_boundary(monkeypatch, fn, args, n_terms, match):
    """fn(*args), whose series stops on term index n_terms - 1, fits in
    _TERM_CAP = n_terms, the same bits in both forms, and raises in both
    below it."""
    monkeypatch.setattr(nx, "_TERM_CAP", n_terms)
    _assert_same_series(fn, args)
    monkeypatch.setattr(nx, "_TERM_CAP", n_terms - 1)
    with pytest.raises(nx.NumericsError, match=match):
        fn(*args)
    with pytest.raises(nx.NumericsError, match=match):
        _termwise(fn, args)


def _proj_model(n, q_log):
    """(space, product, S-series) of P^{n-2} at q = exp(q_log)."""
    q = cmath.exp(q_log)
    return (make_proj(n - 2), quantum_mult_proj(n - 2, q),
            sseries_proj(n - 2, q, pd.SERIES_CAP))


def _reflection_loops(n, q_log, level):
    """(euler, upper, path, I_base, branch0) of every loop k of P^{n-2} at
    q = exp(q_log): the whole closed loop, walked from the base point."""
    space, product, sser = _proj_model(n, q_log)
    upper = space.theta - (level + 0.5) * np.eye(space.size)
    calls = []
    for k in range(n - 1):
        path = full_path(md.gamma_loop(n, q_log, k))
        branch0 = nx.principal_branch(path[0].start)
        i_base = pd.fundamental_solution(space, product, sser, level, branch0,
                                         md.BASE_SERIES_TOL).value
        calls.append((product.euler_mult, upper, path, i_base, branch0))
    return calls


def _frobenius_calls(n, q_log, level):
    """The arguments of the _local_solutions call that monodromy_matrix
    makes on every loop k of P^{n-2} at q = exp(q_log)."""
    space, product, sser = _proj_model(n, q_log)
    calls = []
    local = md._local_solutions

    def record(*args):
        calls.append(args)
        return local(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(md, "_local_solutions", record)
        for k in range(n - 1):
            md.monodromy_matrix(space, product, sser, level,
                                md.gamma_loop(n, q_log, k),
                                md.BASE_SERIES_TOL)
    return calls


# P^3 at the reflections anchor q = 1.8 exp(0.75 pi i), level -n
P3_Q_LOG = math.log(1.8) + 0.75j * math.pi
# the projective model of the twisted n = 4 theory at Q = 0.6
TWISTED4_Q_LOG = 1j * math.pi - 3 * math.log(0.6)


@pytest.fixture(scope="module")
def p3_loops():
    return _reflection_loops(5, P3_Q_LOG, -5)


@pytest.fixture(scope="module")
def twisted4_loops():
    return _reflection_loops(4, TWISTED4_Q_LOG, -4)


@pytest.fixture(scope="module")
def frobenius_calls():
    return (_frobenius_calls(5, P3_Q_LOG, -5)
            + _frobenius_calls(4, TWISTED4_Q_LOG, -4))


def test_ode_blocked_matches_termwise_small_systems():
    y0 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    _assert_same_series(continue_path, (scalar(0.0, 2), scalar(0.0, 2),
                                        unit_circle(), y0))
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    path = [md.Segment(1.0, 2.0 + 1.0j), md.Segment(2.0 + 1.0j, 3.0 - 0.5j)]
    _assert_same_series(continue_path, (scalar(0.0, 2), rot, path,
                                        np.array([1.0 + 0.5j, -0.25j])))
    swap = np.array([[0.0, 2.0], [1.0, 0.0]])
    arc = [md.Arc(0.0, 1.5, 0.0, math.pi), md.Segment(-1.5, -2.5)]
    _assert_same_series(continue_path, (scalar(0.2j, 2), swap, arc,
                                        np.array([0.3 + 1.0j, 0.8])))
    euler = np.diag([1.0, 1.5 + 0.25j])
    around = [md.Segment(3.0, 1.3), md.Arc(1.0, 0.3, 0.0, 2 * math.pi),
              md.Segment(1.3, 3.0)]
    _assert_same_series(continue_path, (euler, np.diag([0.3, 0.7]), around,
                                        np.ones((2, 3), dtype=complex)))


def test_ode_blocked_matches_termwise_1d():
    y1 = _assert_same_series(continue_path,
                             (scalar(0.0), scalar(0.5), unit_circle(),
                              np.array([1.0 + 0.0j])))[0]
    assert y1.shape == (1,)


def _stop_terms(fn, args):
    """The index of the stopping term of every sum_series that fn(*args)
    runs."""
    stops = []
    real = nx.sum_series

    def record(*series):
        out = real(*series)
        stops.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nx, "sum_series", record)
        fn(*args)
    return stops


@pytest.mark.parametrize("block", [1, 3, 8])
def test_ode_blocked_matches_termwise_p3_loops(p3_loops, monkeypatch, block):
    # the whole loops, each arc a 16-gon, take 190 steps, which stop on
    # terms 7 to 28: with blocks of 3, 49 stop on a block's first term,
    # after a small term that ends the block before, and 141 inside a
    # block; with blocks of 8, 5 and 185
    monkeypatch.setattr(nx, "_TBLOCK", block)
    steps = sum(_assert_same_series(continue_path, args[:4])[2][0]
                for args in p3_loops)
    assert steps == 190
    if block > 1:
        stops = [j for args in p3_loops
                 for j in _stop_terms(continue_path, args[:4])]
        first = sum(j % block == 0 for j in stops)
        assert 0 < first < len(stops) == steps


def test_ode_blocked_matches_termwise_twisted4(twisted4_loops):
    for args in twisted4_loops:
        _assert_same_series(continue_path, args[:4])


@pytest.mark.parametrize("block", [1, 3, 8])
def test_frobenius_blocked_matches_termwise(frobenius_calls, monkeypatch,
                                            block):
    # the four series of P^3 stop on term 24, on the first term of a block
    # of 3 and of 8, after a small term that ends the block before; the
    # three of the twisted n = 4 model on term 21, the first term of a block
    # of 3, and inside the third block of 8
    monkeypatch.setattr(nx, "_TBLOCK", block)
    terms = [_assert_same_series(md._local_solutions, args)[2]
             for args in frobenius_calls]
    assert terms == [24] * 4 + [21] * 3


def test_frobenius_matrix_steps_match_the_entrywise_recurrence(
        frobenius_calls):
    # stepping by the matrices B_J reorders the recurrence's rounding only:
    # the same stopping term, and every column within 64 eps of its scale,
    # on P^3, the twisted n = 4 model and P^8
    eps = np.finfo(float).eps
    for args in frobenius_calls + _frobenius_calls(10, 0.3j, -10):
        got, want = md._local_solutions(*args), local_solutions(*args)
        assert got[2] == want[2]
        scale = np.max(np.abs(want[0]), axis=0)
        assert np.max(np.abs(got[0] - want[0]) / scale) < 64 * eps


def _outer_branch(loop, branch0):
    """The branch at the outer point that the leading big-circle arc of a
    k > 0 loop reaches: the arc moves log lambda by i (angle1 - angle0)."""
    arc = loop[0]
    log = nx._resync_log(arc.end, branch0.log_value
                         + 1j * (arc.angle1 - arc.angle0))
    return nx.BranchState(loop[1].start, log)


def test_ode_counts_repeat_and_match_monodromy(p3_loops):
    # a k > 0 loop continues nothing: monodromy_matrix sums the period
    # series at the way in's end, where continuing the way in from the
    # series at the outer point lands, and counts that series' terms
    loop = md.gamma_loop(5, P3_Q_LOG, 2)
    euler, upper, _, i_base, branch0 = p3_loops[2]
    space, product, sser = _proj_model(5, P3_Q_LOG)
    outer = _outer_branch(loop, branch0)
    i_outer = pd.fundamental_solution(space, product, sser, -5, outer,
                                      md.BASE_SERIES_TOL).value
    runs = [ode_continue(euler, upper, loop.way_in.start, loop.way_in.end,
                         i_outer) for _ in range(2)]
    steps, terms = runs[0][2]
    assert runs[1][2] == runs[0][2]
    assert steps > 0 and 2 * steps <= terms < nx._TERM_CAP * steps
    sol = pd.fundamental_solution(
        space, product, sser, -5,
        nx.BranchState(loop.way_in.end, nx._resync_log(loop.way_in.end,
                                                       outer.log_value)),
        md.BASE_SERIES_TOL)
    i_in = sol.value
    assert np.max(np.abs(runs[0][0] - i_in)) < 1e-11 * np.max(np.abs(i_in))
    res = md.monodromy_matrix(space, product, sser, -5, loop,
                              md.BASE_SERIES_TOL)
    assert res.counters["series_terms"] == sol.terms
    assert 0 < res.counters["frobenius_terms"] < nx._TERM_CAP
    assert res.residuals["cond_in"] == float(np.linalg.cond(i_in))
    assert res.residuals["truncation"] == (sol.truncation_error
                                           / float(np.max(np.abs(i_in))))
    # the whole loop, each arc a 16-gon, takes 51 steps and 1015 terms,
    # the inward segment 1 and 24
    whole_steps, whole_terms = continue_path(
        euler, upper, full_path(loop), i_base)[2]
    assert 10 * steps < whole_steps and 10 * terms < whole_terms


def test_big_circle_arc_continuation_matches_series(p3_loops):
    # what the loops no longer walk: continuing the base-point periods
    # along the leading arc lands on the period series at the arc's end,
    # on the branch that monodromy_matrix takes there
    space, product, sser = _proj_model(5, P3_Q_LOG)
    for euler, upper, loop, i_base, branch0 in p3_loops[1:]:
        y = continue_path(euler, upper, loop[:1], i_base)[0]
        want = pd.fundamental_solution(space, product, sser, -5,
                                       _outer_branch(loop, branch0),
                                       md.BASE_SERIES_TOL).value
        assert np.max(np.abs(y - want)) < 1e-11 * np.max(np.abs(want))


def test_ode_term_cap_raises(monkeypatch):
    monkeypatch.setattr(nx, "_TERM_CAP", 13)
    with pytest.raises(nx.NumericsError,
                       match="Taylor series did not converge"):
        continue_path(scalar(0.0), scalar(0.5), unit_circle(),
                      np.array([1.0 + 0.0j]))


@pytest.mark.parametrize("block", [3, 8])
def test_ode_term_cap_boundary(monkeypatch, block):
    # one step, which stops on term index `summed`
    args = (scalar(0.0, 2), np.array([[0.0, 1.0], [-1.0, 0.0]]),
            1.0, 1.0 + 0.4j, np.array([1.0 + 0.5j, -0.25j]))
    steps, summed = ode_continue(*args)[2]
    assert steps == 1
    monkeypatch.setattr(nx, "_TBLOCK", block)
    _assert_term_cap_boundary(monkeypatch, ode_continue, args,
                              summed + 1, "Taylor series did not converge")


@pytest.mark.parametrize("block", [3, 8])
def test_frobenius_term_cap_boundary(frobenius_calls, monkeypatch, block):
    args = frobenius_calls[1]
    monkeypatch.setattr(nx, "_TBLOCK", block)
    _assert_term_cap_boundary(monkeypatch, md._local_solutions, args,
                              md._local_solutions(*args)[2] + 1,
                              "local series did not converge")
