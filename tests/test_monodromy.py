"""Loops, monodromy matrices, and reflection vectors."""

import cmath
import math

import numpy as np
import pytest

from gamma_monodromy import monodromy as md
from gamma_monodromy.cohomology import (euler_char, line_bundle, make_proj,
                                        psi_map)
from gamma_monodromy.numerics import (Arc, BranchState, NumericsError,
                                      validate_path)
from gamma_monodromy.periods import MatrixSolution
from gamma_monodromy.quantum import quantum_mult_proj, sseries_proj

TOL = 1e-10
CAP = 120


def _setup(n, q_log=0.0):
    m = n - 2
    space = make_proj(m)
    q = cmath.exp(complex(q_log))
    return space, quantum_mult_proj(m, q), sseries_proj(m, q, CAP)


def proj_punctures(n, q_log):
    """Eigenvalues (n-1) eta^{-2k} q^{1/(n-1)} of the Euler product, ordered
    by k = 0 .. n-2, on the branch q^{1/(n-1)} = exp(q_log/(n-1))."""
    w = cmath.exp(complex(q_log) / (n - 1))
    return np.array([(n - 1) * w * cmath.exp(-2j * math.pi * k / (n - 1))
                     for k in range(n - 1)])


def reflection_action(space, alpha, x):
    """x - (x|alpha) alpha."""
    return (np.asarray(x, complex)
            - md.intersection_pairing(space, x, alpha) * alpha)


def reflection_matrix(space, alpha):
    cols = [reflection_action(space, alpha, col)
            for col in np.eye(space.size, dtype=complex)]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# loop construction
# ---------------------------------------------------------------------------

def test_punctures_p1():
    got = proj_punctures(3, 0.0)
    want = np.array([2.0, -2.0])
    assert np.max(np.abs(got - want)) < 1e-14


def test_gamma_loop_closed_and_based_at_big_circle():
    for n in (3, 4, 5):
        for k in range(n - 1):
            for q_log in (0.0, 0.7j):
                loop = md.gamma_loop(n, q_log, k)
                validate_path(loop, closed=True, tol=1e-9)
                base = 2.0 * (n - 1) * cmath.exp(complex(q_log) / (n - 1))
                assert abs(loop[0].start - base) < 1e-12


def test_gamma_loop_avoids_other_punctures():
    # distance from every loop point to every other singular point stays
    # positive, sampled densely
    n, k = 4, 1
    loop = md.gamma_loop(n, 0.0, k)
    punctures = proj_punctures(n, 0.0)
    others = [u for j, u in enumerate(punctures) if j != k]
    ts = np.linspace(0.0, 1.0, 101)
    for piece in loop:
        pts = np.array([piece.point(t) for t in ts])
        for u in others:
            assert np.min(np.abs(pts - u)) > 0.3


def test_gamma_loop_range_errors():
    with pytest.raises(ValueError):
        md.gamma_loop(3, 0.0, -1)
    with pytest.raises(ValueError):
        md.gamma_loop(3, 0.0, 2)


# ---------------------------------------------------------------------------
# monodromy matrices
# ---------------------------------------------------------------------------

def test_contractible_loop_is_identity():
    space, prod, sser = _setup(3)
    loop = [Arc(6.0, 1.0, 0.0, 2.0 * math.pi)]
    res = md.monodromy_matrix(space, prod, sser, -3, loop, TOL)
    assert np.max(np.abs(res.matrix - np.eye(space.size))) < 1e-7


def test_loop_must_rejoin_its_base_along_the_series_circle():
    # arcs about 0 outside the guard come from the series; a loop made of
    # them alone, or one that does not turn back along them, has no local
    # piece to read C from
    space, prod, sser = _setup(3)
    r = md.base_radius(3)
    for loop in ([Arc(0.0, r, 0.0, 2.0 * math.pi)],
                 md.gamma_loop(3, 0.0, 1)[:-1]):
        with pytest.raises(ValueError, match="same arcs"):
            md.monodromy_matrix(space, prod, sser, -3, loop, TOL)


def test_reflections_on_p1_match_gamma_classes():
    n = 3
    space, prod, sser = _setup(n)
    for k in range(n - 1):
        loop = md.gamma_loop(n, 0.0, k)
        res = md.monodromy_matrix(space, prod, sser, -n, loop, TOL)
        cand = psi_map(space, line_bundle(k), 0.0)
        alpha = md.reflection_vector(res, space, candidate=cand)
        assert np.max(np.abs(alpha - cand)) < 1e-6
        assert res.residuals["pairing"] < 1e-8
        assert res.residuals["eigen"] < 1e-7
        assert abs(np.linalg.det(res.matrix) + 1.0) < 1e-8
        scale = max(1.0, float(np.max(np.abs(res.matrix))))
        invol = np.max(np.abs(res.matrix @ res.matrix - np.eye(space.size)))
        assert invol / scale < 1e-8
        # the matrix sends alpha to -alpha and fixes its orthogonal
        assert np.max(np.abs(res.matrix @ alpha + alpha)) < 1e-6


def test_reflection_covariance_in_q():
    # moving q moves the candidate classes with it
    n, q_log = 3, 0.4
    space, prod, sser = _setup(n, q_log)
    loop = md.gamma_loop(n, q_log, 1)
    res = md.monodromy_matrix(space, prod, sser, -n, loop, TOL)
    cand = psi_map(space, line_bundle(1), q_log)
    alpha = md.reflection_vector(res, space, candidate=cand)
    assert np.max(np.abs(alpha - cand)) < 1e-6


def test_gram_matrix_of_reflection_vectors():
    n = 4
    space, prod, sser = _setup(n)
    alphas = []
    for k in range(n - 1):
        loop = md.gamma_loop(n, 0.0, k)
        res = md.monodromy_matrix(space, prod, sser, -n, loop, TOL)
        cand = psi_map(space, line_bundle(k), 0.0)
        alphas.append(md.reflection_vector(res, space, candidate=cand))
    for i in range(n - 1):
        for j in range(n - 1):
            got = md.intersection_pairing(space, alphas[i], alphas[j])
            want = (euler_char(space, line_bundle(i), line_bundle(j))
                    + euler_char(space, line_bundle(j), line_bundle(i)))
            assert abs(got - want) < 1e-6


def test_composite_loops_give_big_circle():
    n = 3
    space, prod, sser = _setup(n)
    mats = []
    for k in range(n - 1):
        loop = md.gamma_loop(n, 0.0, k)
        mats.append(md.monodromy_matrix(space, prod, sser, -n, loop,
                                        TOL).matrix)
    prod_desc = np.eye(space.size, dtype=complex)
    for c in reversed(mats):
        prod_desc = prod_desc @ c
    big = md.big_circle_matrix(space, prod, sser, -n, md.base_radius(n), TOL)
    assert np.max(np.abs(prod_desc - big)) < 1e-8


# ---------------------------------------------------------------------------
# reflection vector extraction
# ---------------------------------------------------------------------------

def _algebraic_result(space, alpha):
    mat = reflection_matrix(space, alpha)
    return md.MonodromyResult(matrix=mat)


def test_reflection_matrix_algebraic_properties():
    space = make_proj(2)
    alpha = psi_map(space, line_bundle(1), 0.0)
    mat = reflection_matrix(space, alpha)
    scale = max(1.0, float(np.max(np.abs(mat))))
    assert np.max(np.abs(mat @ mat - np.eye(space.size))) < 1e-12 * scale
    assert np.max(np.abs(mat @ alpha + alpha)) < 1e-12 * np.max(np.abs(alpha))
    assert abs(np.linalg.det(mat) + 1.0) < 1e-10
    # the reflection is an isometry of the pairing it reflects in
    gram = np.array([[md.intersection_pairing(space, a, b)
                      for b in np.eye(space.size)]
                     for a in np.eye(space.size)])
    assert np.max(np.abs(mat.T @ gram @ mat - gram)) < 1e-10 * scale


def test_reflection_vector_candidate_fixes_sign():
    space = make_proj(1)
    cand = psi_map(space, line_bundle(0), 0.0)
    res = _algebraic_result(space, cand)
    plus = md.reflection_vector(res, space, candidate=cand)
    res2 = _algebraic_result(space, cand)
    minus = md.reflection_vector(res2, space, candidate=-cand)
    assert np.max(np.abs(plus - cand)) < 1e-12
    assert np.max(np.abs(plus + minus)) < 1e-10
    assert md.intersection_pairing(space, plus, cand).real > 0.0


def test_reflection_vector_default_sign_is_deterministic():
    space = make_proj(1)
    cand = psi_map(space, line_bundle(0), 0.0)
    res = _algebraic_result(space, cand)
    a1 = md.reflection_vector(res, space)
    res2 = _algebraic_result(space, cand)
    a2 = md.reflection_vector(res2, space)
    assert np.max(np.abs(a1 - a2)) == 0.0
    lead = a1[np.flatnonzero(np.abs(a1) > 1e-8)[0]]
    assert lead.real >= 0.0


def test_reflection_vector_requires_minus_one_eigenvalue():
    space = make_proj(1)
    res = md.MonodromyResult(matrix=np.eye(2, dtype=complex))
    with pytest.raises(NumericsError):
        md.reflection_vector(res, space)


def test_reflection_vector_rejects_rank_two_defect():
    # the product of two reflections moves a plane, so C - I has rank two
    space = make_proj(2)
    mats = [reflection_matrix(space, psi_map(space, line_bundle(k), 0.0))
            for k in (0, 1)]
    res = md.MonodromyResult(matrix=mats[0] @ mats[1])
    with pytest.raises(NumericsError, match="not a reflection"):
        md.reflection_vector(res, space)


def test_reflection_vector_rejects_transvection():
    # I + N has C - I of rank one, but its only eigenvalue is 1
    space = make_proj(2)
    mat = np.eye(3, dtype=complex)
    mat[0, 2] = 5.0
    res = md.MonodromyResult(matrix=mat)
    with pytest.raises(NumericsError, match="not a reflection"):
        md.reflection_vector(res, space)


def test_reflection_vector_rejects_isotropic_direction():
    # p on the projective line squares to zero, so no vector proportional
    # to it can be normalized to square 2
    space = make_proj(1)
    res = md.MonodromyResult(matrix=np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(NumericsError, match="isotropic"):
        md.reflection_vector(res, space)


def test_ill_conditioned_period_matrix_raises(monkeypatch):
    space, prod, sser = _setup(3)

    def fake(space_, product_, sser_, level_, branch_, tol_):
        bad = np.diag([1.0, 1e-12]).astype(complex)
        return MatrixSolution(space_, level_, bad, branch_, 0.0, 0)

    monkeypatch.setattr(md, "fundamental_solution", fake)
    loop = md.gamma_loop(3, 0.0, 0)
    with pytest.raises(md.IllConditionedError):
        md.monodromy_matrix(space, prod, sser, -3, loop, TOL)


def test_proj_reflection_check_complex_branch():
    # P^2 at q = e^{0.5 pi i}: the loops, the candidate and the period
    # level all follow the branch log q = 0.5 pi i
    q = BranchState(1j, 0.5j * math.pi)
    for k in range(3):
        out = md.proj_reflection_check(4, q, k)
        assert (out["n"], out["k"], out["m"]) == (4, k, 4)
        assert out["sign"] in (1, -1)
        assert out["residual"] < 1e-5
        assert np.max(np.abs(out["alpha"] - out["sign"] * out["candidate"])) \
            < 1e-5
        assert out["monodromy"].residuals["pairing"] < 1e-6


def test_proj_reflection_check_rejects_mismatched_branch():
    with pytest.raises(NumericsError):
        md.proj_reflection_check(3, BranchState(1.0, 0.1), 0)


# q = 1, 0.55 e^{-0.8 pi i} and 1.8 e^{0.75 pi i}, each on its principal branch
_QS = [BranchState(mod * cmath.exp(1j * math.pi * arg),
                   math.log(mod) + 1j * math.pi * arg)
       for mod, arg in ((1.0, 0.0), (0.55, -0.8), (1.8, 0.75))]


@pytest.fixture(scope="module")
def proj_checks():
    """proj_reflection_check for every loop of P^1 .. P^4 at each of _QS."""
    return {(n, i): [md.proj_reflection_check(n, q, k) for k in range(n - 1)]
            for n in range(3, 7) for i, q in enumerate(_QS)}


def test_proj_reflection_check_p4(proj_checks):
    for i in range(len(_QS)):
        for out in proj_checks[6, i]:
            assert out["residual"] < 1e-5
            assert out["monodromy"].residuals["rank_one"] < 1e-12


def test_monodromy_is_integral_in_exceptional_basis(proj_checks):
    # in the basis P = [Psi(O(0)) .. Psi(O(n-2))] the k-th loop is the
    # integer reflection I - e_k (chi(O(k),O(j)) + chi(O(j),O(k)))_j
    for (n, _), outs in proj_checks.items():
        space = make_proj(n - 2)
        basis = np.column_stack([out["candidate"] for out in outs])
        for k, out in enumerate(outs):
            want = np.eye(n - 1)
            want[k] -= [(euler_char(space, line_bundle(k), line_bundle(j))
                         + euler_char(space, line_bundle(j),
                                      line_bundle(k))).real
                        for j in range(n - 1)]
            got = np.linalg.solve(basis, out["monodromy"].matrix @ basis)
            assert np.max(np.abs(got - want)) < 1e-6


# ---------------------------------------------------------------------------
# twisted reflections
# ---------------------------------------------------------------------------

def test_twisted_reflection_constant_is_sign():
    out = md.twisted_reflection_check(3, 1.0, 0, tol=TOL)
    assert out["constant_deviation"] < 1e-4
    assert out["fit_residual"] < 1e-6
    assert abs(out["exceptional_pairing"] - 1.0) < 1e-10


def test_twisted_reflection_check_rejects_bad_q():
    with pytest.raises(ValueError):
        md.twisted_reflection_check(3, -1.0, 0)
    with pytest.raises(ValueError):
        md.twisted_reflection_check(3, 0.0, 0)


@pytest.mark.parametrize("n, Q", [(4, 1.3), (6, 1.0)])
def test_twisted_constant_survives_roundoff(monkeypatch, n, Q):
    # 2/c2 is -1 up to rounding for even n; noise in C at the 1e-15 level
    # must not pick the sign of beta and so of the constant
    want = [md.twisted_reflection_check(n, Q, k, tol=md.BASE_SERIES_TOL)
            ["constant"] for k in range(n - 1)]
    exact = md.monodromy_matrix
    rng = np.random.default_rng(11)

    def perturbed(*args):
        res = exact(*args)
        res.matrix = res.matrix * (1.0 + 1e-15 * rng.standard_normal(
            res.matrix.shape))
        return res

    monkeypatch.setattr(md, "monodromy_matrix", perturbed)
    for _ in range(3):
        for k in range(n - 1):
            got = md.twisted_reflection_check(n, Q, k, tol=md.BASE_SERIES_TOL)
            assert abs(got["constant"] - want[k]) < 1e-6
