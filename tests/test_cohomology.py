"""Ring models, Gamma class, Chern character, Euler pairing, HRR identity."""

import dataclasses
import math

import numpy as np
import pytest

from gamma_monodromy import numerics as nx
from gamma_monodromy.cohomology import (
    KClass,
    SpaceMismatchError,
    chern_character,
    euler_char,
    euler_pairing,
    exceptional_sheaf,
    exceptional_twist,
    gamma_class,
    intersection_pairing,
    line_bundle,
    make_blproj,
    make_proj,
    make_twisted,
    psi_map,
    ring_exp,
)

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# space construction and structural invariants
# ---------------------------------------------------------------------------

def validate_space(space, tol=0.0):
    """Structural invariants; returns the residuals actually achieved."""
    g = space.pairing
    res = {}
    res["pairing_symmetry"] = float(np.max(np.abs(g - g.T)))
    res["pairing_nondegenerate"] = float(abs(np.linalg.det(g)))
    comp = 0.0
    for a in range(space.size):
        for b in range(space.size):
            if g[a, b] != 0.0 and space.degrees[a] + space.degrees[b] != space.dim:
                comp = 1.0
    res["pairing_degree"] = comp
    th = space.theta
    res["theta_skew"] = float(np.max(np.abs(th @ g + g @ th)))
    r = space.rho
    res["commutator"] = float(np.max(np.abs(th @ r - r @ th + r)))
    acc = np.linalg.matrix_power(r, space.dim + 1)
    res["rho_nilpotent"] = float(np.max(np.abs(acc)))
    if tol:
        bad = {k: v for k, v in res.items()
               if (k == "pairing_nondegenerate" and v < 1e-12)
               or (k != "pairing_nondegenerate" and v > tol)}
        if bad:
            raise ValueError("space invariants violated: %r" % bad)
    return res


def test_validate_all_supported_spaces():
    for m in range(1, 9):
        validate_space(make_proj(m), tol=1e-12)
    for n in range(2, 9):
        validate_space(make_twisted(n), tol=1e-12)
        validate_space(make_blproj(n), tol=1e-12)


def test_make_space_range_errors():
    with pytest.raises(ValueError):
        make_proj(0)
    with pytest.raises(ValueError):
        make_proj(9)
    with pytest.raises(ValueError):
        make_blproj(1)


def test_blproj3_cup_and_pairing_examples():
    bl = make_blproj(3)
    e = bl.basis_vector("e")
    e2 = bl.basis_vector("e^2")
    h = bl.basis_vector("h")
    h3 = bl.basis_vector("h^3")
    # e * e^2 = e^3 = +h^3 (top class) when n = 3
    assert np.max(np.abs(bl.cup_vec(e, e2) - h3)) < 1e-14
    assert abs(bl.pair(e, e2) - 1.0) < 1e-14
    # positive-degree pullbacks kill the exceptional block
    assert np.max(np.abs(bl.cup_vec(h, e))) < 1e-14


def test_blproj_top_sign_alternates():
    for n in (2, 3, 4, 5):
        bl = make_blproj(n)
        acc = bl.basis_vector("e")
        for _ in range(n - 1):
            acc = bl.cup_vec(acc, bl.basis_vector("e"))
        top = bl.basis_vector("h" if n == 1 else "h^%d" % n)
        assert np.max(np.abs(acc - (-1.0) ** (n - 1) * top)) < 1e-14


def test_theta_diagonal_values():
    sp = make_proj(4)
    th = np.diag(sp.theta)
    assert np.allclose(th, sp.dim / 2.0 - sp.degrees)


def test_theta_skew_and_commutator_exact():
    for sp in (make_proj(3), make_blproj(4), make_twisted(5)):
        g = sp.pairing
        th = sp.theta
        assert np.max(np.abs(th @ g + g @ th)) == 0.0
        assert np.max(np.abs(th @ sp.rho - sp.rho @ th + sp.rho)) == 0.0


def test_rho_nilpotent():
    for sp in (make_proj(5), make_blproj(4), make_twisted(4)):
        assert np.max(np.abs(np.linalg.matrix_power(sp.rho, sp.dim + 1))) == 0.0


def test_rho_powers_cached_read_only():
    for sp in (make_proj(5), make_blproj(4), make_twisted(4)):
        pows = sp.rho_powers
        assert pows.shape == (sp.depth, sp.size, sp.size)
        for k in range(sp.depth):
            assert np.array_equal(pows[k], np.linalg.matrix_power(sp.rho, k))
        assert np.max(np.abs(sp.rho @ pows[-1])) == 0.0
        with pytest.raises(ValueError):
            pows[0, 0, 0] = 2.0


def test_euler_pairing_factors_cached_read_only():
    # exp(pi i theta) and exp(pi i rho), set once with rho
    for sp in (make_proj(5), make_blproj(4), make_twisted(4)):
        th = np.exp(1j * math.pi * np.diag(sp.theta))
        assert np.array_equal(sp.exp_pi_i_theta, th)
        want = sum(np.linalg.matrix_power(1j * math.pi * sp.rho, k)
                   / math.factorial(k) for k in range(sp.depth))
        assert np.max(np.abs(sp.exp_pi_i_rho - want)) < 1e-14 * np.max(
            np.abs(want))
        for arr in (sp.exp_pi_i_theta, sp.exp_pi_i_rho):
            with pytest.raises(ValueError):
                arr[0] = 2.0
        flat = dataclasses.replace(sp, rho=np.zeros_like(sp.rho))
        assert np.array_equal(flat.exp_pi_i_rho, np.eye(sp.size))
        assert not np.array_equal(sp.exp_pi_i_rho, np.eye(sp.size))


def test_models_are_cached_frozen_values():
    assert make_proj(3) is make_proj(3)
    assert make_twisted(4) is make_twisted(4)
    assert make_blproj(3) is make_blproj(3)
    for sp in (make_proj(3), make_twisted(4), make_blproj(3)):
        arrays = {k: v for k, v in vars(sp).items()
                  if isinstance(v, np.ndarray)}
        assert set(arrays) >= {"degrees", "cup", "pairing", "rho", "theta",
                               "rho_powers", "exp_pi_i_theta",
                               "exp_pi_i_rho"}
        assert ("delta" in arrays) == (sp.kind != "proj")
        for arr in arrays.values():
            with pytest.raises(ValueError):
                arr.flat[0] = 7.0
        assert isinstance(sp.basis, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sp.rho = np.zeros_like(sp.rho)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sp.depth = 1
    # identity hashing: the model keys caches without hashing its arrays
    assert len({make_proj(3), make_proj(3), make_twisted(5)}) == 2


# ---------------------------------------------------------------------------
# Gamma class
# ---------------------------------------------------------------------------

def test_gamma_class_p1():
    sp = make_proj(1)
    g = gamma_class(sp)
    assert abs(g[0] - 1.0) < 1e-14
    assert abs(g[1] - (-2.0 * EULER_GAMMA)) < 1e-12


def test_gamma_class_degree_zero_is_one():
    for sp in (make_proj(3), make_blproj(3)):
        assert abs(gamma_class(sp)[0] - 1.0) < 1e-14


def test_gamma_factorization_on_blowup():
    # product formula: pullback part times Gamma(1-e)^n Gamma(1+e)
    for n in (2, 3, 4):
        bl = make_blproj(n)
        e = bl.basis_vector("e")
        h = bl.basis_vector("h")
        lg = nx.log_gamma_jet(1.0, bl.dim)
        lg[0] = 0.0
        # pullback of the ambient-space Gamma class: (n+1) copies of
        # log Gamma(1 + h)
        amb = ring_exp(bl, (n + 1) * sum(lg[k] * _ring_pow(bl, h, k)
                                         for k in range(1, bl.dim + 1)))
        minus = sum(lg[k] * (-1.0) ** k * _ring_pow(bl, e, k)
                    for k in range(1, bl.dim + 1))
        plus = sum(lg[k] * _ring_pow(bl, e, k) for k in range(1, bl.dim + 1))
        fac = ring_exp(bl, n * minus + plus)
        prod = bl.cup_vec(amb, fac)
        assert np.max(np.abs(gamma_class(bl) - prod)) < 1e-10


def _ring_pow(sp, v, k):
    acc = sp.unit()
    for _ in range(k):
        acc = sp.cup_vec(acc, v)
    return acc


def test_gamma_reflection_jet_identity():
    # Gamma(1-w)Gamma(1+w) = (2 pi i w / (exp(2 pi i w) - 1)) exp(pi i w)
    # as truncated jets in a nilpotent variable
    order = 6
    lg = nx.log_gamma_jet(1.0, order)
    lg[0] = 0.0
    lg_minus = lg * np.array([(-1.0) ** k for k in range(order + 1)])
    lhs = nx.jet_exp(lg + lg_minus)
    den = np.array([(2j * math.pi) ** k / math.factorial(k + 1)
                    for k in range(order + 1)], dtype=complex)
    half = np.array([(1j * math.pi) ** k / math.factorial(k)
                     for k in range(order + 1)], dtype=complex)
    rhs = nx.jet_mul(nx.jet_recip(den), half)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# ---------------------------------------------------------------------------
# Chern character and Euler characteristics
# ---------------------------------------------------------------------------

def test_chern_character_structure_sheaf():
    sp = make_proj(3)
    ch = chern_character(sp, line_bundle(0))
    assert np.max(np.abs(ch - sp.unit())) < 1e-14


def test_chern_character_o1_p2():
    sp = make_proj(2)
    ch = chern_character(sp, line_bundle(1))
    assert np.allclose(ch, [1.0, 1.0, 0.5])


def test_chern_character_exceptional_twist():
    bl = make_blproj(3)
    ch = chern_character(bl, exceptional_twist(2))
    # exp(2e) truncated in the ring
    e = bl.basis_vector("e")
    want = ring_exp(bl, 2.0 * e)
    assert np.max(np.abs(ch - want)) < 1e-13


def test_exceptional_sheaf_top_power():
    # (1 - exp(-e))^n lands on the top class with the alternating sign
    for n in (2, 3, 4):
        bl = make_blproj(n)
        one_minus = bl.unit() - ring_exp(bl, -bl.basis_vector("e"))
        acc = bl.unit()
        for _ in range(n):
            acc = bl.cup_vec(acc, one_minus)
        top = bl.basis_vector("h^%d" % n)
        assert np.max(np.abs(acc - (-1.0) ** (n - 1) * top)) < 1e-12


def test_euler_char_projective_examples():
    assert abs(euler_char(make_proj(2), line_bundle(0), line_bundle(0)) - 1) < 1e-9
    assert abs(euler_char(make_proj(2), line_bundle(0), line_bundle(1)) - 3) < 1e-9
    assert abs(euler_char(make_proj(1), line_bundle(1), line_bundle(0)) - 0) < 1e-9


def test_euler_char_integrality_on_blowup():
    bl = make_blproj(3)
    classes = [line_bundle(0), line_bundle(1), exceptional_twist(1),
               exceptional_sheaf(0), exceptional_sheaf(-1)]
    for a in classes:
        for b in classes:
            val = euler_char(bl, a, b)
            assert abs(val - round(val.real)) < 1e-9
            assert abs(val.imag) < 1e-9


# ---------------------------------------------------------------------------
# psi map and pairings
# ---------------------------------------------------------------------------

def test_psi_p1_structure_sheaf():
    sp = make_proj(1)
    v = psi_map(sp, line_bundle(0), 0.0)
    assert abs(v[0] - 1.0) < 1e-12
    assert abs(v[1] - (-2.0 * EULER_GAMMA)) < 1e-11


def test_psi_q_branch_shift_is_ring_twist():
    sp = make_proj(3)
    q_log = 0.37 + 0.21j
    a = psi_map(sp, line_bundle(2), q_log + 2j * math.pi)
    b = sp.cup_vec(psi_map(sp, line_bundle(2), q_log),
                   ring_exp(sp, -2j * math.pi * sp.basis_vector("p")))
    assert np.max(np.abs(a - b)) < 1e-10


def test_hrr_identity_projective_grid():
    # Euler pairing of psi images reproduces the sheaf Euler characteristic
    for m in (1, 2, 3, 4, 5, 6):
        sp = make_proj(m)
        for qa in (0.0, 0.4 + 0.3j * math.pi):
            for j in range(-2, 3):
                for k in range(-1, 3):
                    lhs = euler_pairing(sp, psi_map(sp, line_bundle(j), qa),
                                        psi_map(sp, line_bundle(k), qa))
                    rhs = euler_char(sp, line_bundle(j), line_bundle(k))
                    assert abs(lhs - rhs) < 1e-9


def test_hrr_identity_blowup():
    bl = make_blproj(3)
    qpair = (0.1 - 0.2j, 0.05 + 0.3j)
    classes = [line_bundle(0), line_bundle(1), exceptional_twist(-1),
               exceptional_sheaf(0), exceptional_sheaf(1)]
    for a in classes:
        for b in classes:
            lhs = euler_pairing(bl, psi_map(bl, a, qpair),
                                psi_map(bl, b, qpair))
            rhs = euler_char(bl, a, b)
            assert abs(lhs - rhs) < 1e-9


def test_exceptional_sheaf_self_pairing_is_one():
    for n in (2, 3, 4):
        bl = make_blproj(n)
        v = psi_map(bl, exceptional_sheaf(0), (0.0, 0.0))
        assert abs(euler_pairing(bl, v, v) - 1.0) < 1e-9


def test_intersection_pairing_symmetric():
    sp = make_proj(4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=sp.size) + 1j * rng.normal(size=sp.size)
        b = rng.normal(size=sp.size) + 1j * rng.normal(size=sp.size)
        assert intersection_pairing(sp, a, b) == intersection_pairing(sp, b, a)


def test_psi_map_rejects_twisted_model():
    tw = make_twisted(3)
    with pytest.raises(SpaceMismatchError):
        psi_map(tw, line_bundle(0), 0.0)


def test_kclass_algebra():
    k = line_bundle(2) - line_bundle(0)
    assert k.dual().terms == (("H", -2, 1), ("H", 0, -1))
    s = exceptional_sheaf(1)
    assert s.terms == (("E", 1, 1), ("E", 0, -1))
