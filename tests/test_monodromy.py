"""Loops, monodromy matrices, and reflection vectors."""

import cmath
import math

import numpy as np
import pytest

from gamma_monodromy import monodromy as md
from gamma_monodromy.cohomology import (euler_char, euler_pairing,
                                        exceptional_sheaf, gamma_class,
                                        line_bundle, make_blproj, make_proj,
                                        make_twisted, psi_map)
from gamma_monodromy.monodromy import Arc, Segment
from gamma_monodromy.numerics import (BranchState, NumericsError,
                                      principal_branch)
from gamma_monodromy.periods import (GUARD_FACTOR, SERIES_CAP,
                                     MatrixSolution, fundamental_solution)
from gamma_monodromy.quantum import (quantum_mult_proj, quantum_mult_twisted,
                                     sseries_proj, sseries_twisted)
from oracles import SIDES, continue_path, full_path

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


def test_gamma_loop_pieces_join_and_start_at_the_base():
    for n in (3, 4, 5):
        for k in range(n - 1):
            for q_log in (0.0, 0.7j, math.log(0.55) - 0.8j * math.pi):
                loop = md.gamma_loop(n, q_log, k)
                arc, way_in, circle = loop
                # the benchmark reads the base point off loop[0]
                base = 2.0 * (n - 1) * cmath.exp(complex(q_log) / (n - 1))
                assert abs(loop[0].start - base) < 1e-12
                assert abs(arc.end - way_in.start) \
                    <= 1e-12 * abs(way_in.start)
                assert way_in.end == circle.start
                if k == 0:
                    assert arc.start == way_in.start
                else:
                    assert arc.center == 0 and arc.angle1 < arc.angle0
                # one counterclockwise turn, which closes
                turn = circle.angle1 - circle.angle0
                assert abs(turn - 2.0 * math.pi) < 1e-12
                assert abs(circle.end - circle.start) \
                    <= 1e-12 * abs(circle.start)
                # the way back ends at the base
                path = full_path(loop)
                for a, b in zip(path, path[1:]):
                    assert abs(a.end - b.start) <= 1e-12 * abs(base)
                assert abs(path[-1].end - base) < 1e-12 * abs(base)


def test_every_loop_starts_at_one_base_point():
    # bit for bit, so the loops of one (space, q, level) share one base
    # period, and a composite of loops is based at one point
    for n in range(3, 13):
        for q_log in (0.0, 0.7j, math.log(0.55) - 0.8j * math.pi,
                      1j * math.pi - (n - 1) * math.log(1.6)):
            starts = {md.gamma_loop(n, q_log, k).arc.start
                      for k in range(n - 1)}
            assert len(starts) == 1
            assert md.gamma_loop(n, q_log, 0).way_in.start in starts


def test_gamma_loop_avoids_other_punctures():
    # distance from every loop point to every other singular point stays
    # positive, sampled densely
    n, k = 4, 1
    loop = md.gamma_loop(n, 0.0, k)
    punctures = proj_punctures(n, 0.0)
    others = [u for j, u in enumerate(punctures) if j != k]
    ts = np.linspace(0.0, 1.0, 101)
    for piece in loop:
        pts = (piece.start + (piece.end - piece.start) * ts
               if isinstance(piece, Segment)
               else np.array([piece.point(t) for t in ts]))
        for u in others:
            assert np.min(np.abs(pts - u)) > 0.3


def test_gamma_loop_range_errors():
    with pytest.raises(ValueError):
        md.gamma_loop(3, 0.0, -1)
    with pytest.raises(ValueError):
        md.gamma_loop(3, 0.0, 2)
    # past n = 12 the circle about u_k reaches its neighbours
    with pytest.raises(ValueError, match="no overlap"):
        md.gamma_loop(13, 0.0, 0)


def test_way_in_ends_where_both_series_converge():
    # lambda_in = 1.55 u_k lies 3% outside the period series' guard
    # radius and at most 0.976 of the way to u_k's nearest neighbour, at
    # n = 12
    for n in range(3, 13):
        for q_log in (0.0, math.log(0.55) - 0.8j * math.pi):
            u = proj_punctures(n, q_log)
            for k in range(n - 1):
                lam_in = md.gamma_loop(n, q_log, k).way_in.end
                assert abs(lam_in - md.MEET * u[k]) <= 1e-12 * abs(u[k])
                assert abs(lam_in) > 1.03 * GUARD_FACTOR * np.max(np.abs(u))
                assert abs(lam_in - u[k]) \
                    < 0.98 * np.min(np.abs(np.delete(u, k) - u[k]))


# ---------------------------------------------------------------------------
# monodromy matrices
# ---------------------------------------------------------------------------

def test_contractible_loop_is_identity():
    space, prod, sser = _setup(3)
    loop = [Arc(6.0, 1.0, 0.0, 2.0 * math.pi)]
    branch = principal_branch(loop[0].start)
    i_base = fundamental_solution(space, prod, sser, -3, branch, TOL).value
    upper = space.theta - (-3 + 0.5) * np.eye(space.size)
    i_cont = continue_path(prod.euler_mult, upper, loop, i_base)[0]
    cmat = np.linalg.solve(i_base, i_cont)
    assert np.max(np.abs(cmat - np.eye(space.size))) < 1e-7


def test_loop_must_circle_exactly_one_singular_point():
    # the singular points of P^1 at q = 1 are 2 and -2
    space, prod, sser = _setup(3)
    for center, radius in ((6.0, 1.0), (0.0, 2.5)):
        loop = md.Loop(Arc(5.0, 0.0, 0.0, 0.0),
                       Segment(5.0, center + radius),
                       Arc(center, radius, 0.0, 2.0 * math.pi))
        with pytest.raises(ValueError, match="encloses"):
            md.monodromy_matrix(space, prod, sser, -3, loop, TOL)


def test_circle_must_start_where_the_local_series_converges():
    # on P^2 at q = 1 the circle about 8 encloses only u_0 = 3, but starts
    # at 13.5, further from u_0 than the other two (3 sqrt 3 away)
    space, prod, sser = _setup(4)
    loop = md.Loop(Arc(20.0, 0.0, 0.0, 0.0), Segment(20.0, 13.5),
                   Arc(8.0, 5.5, 0.0, 2.0 * math.pi))
    with pytest.raises(ValueError, match="outside the disc"):
        md.monodromy_matrix(space, prod, sser, -4, loop, TOL)


def test_loop_circle_must_close():
    # a half turn, or none, about u_k is not a monodromy
    space, prod, sser = _setup(3)
    loop = md.gamma_loop(3, 0.0, 0)
    c = loop.circle
    for angle1 in (c.angle0 + math.pi, c.angle0):
        open_loop = loop._replace(
            circle=Arc(c.center, c.radius, c.angle0, angle1))
        with pytest.raises(ValueError, match="circle must close"):
            md.monodromy_matrix(space, prod, sser, -3, open_loop, TOL)


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

def _algebraic_result(space, alpha, exponent=0.0, reflection=0.0):
    mat = reflection_matrix(space, alpha)
    return md.MonodromyResult(
        matrix=mat, direction=alpha / np.linalg.norm(alpha),
        residuals={"exponent": exponent, "reflection": reflection})


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


def test_reflection_vector_reads_both_gates_at_eig_tol():
    space = make_proj(2)
    cand = psi_map(space, line_bundle(1), 0.0)
    md.reflection_vector(_algebraic_result(space, cand, md.EIG_TOL,
                                           md.EIG_TOL), space)
    for gates in ((1.01 * md.EIG_TOL, 0.0), (0.0, 1.01 * md.EIG_TOL)):
        with pytest.raises(NumericsError, match="not a reflection"):
            md.reflection_vector(_algebraic_result(space, cand, *gates),
                                 space)


def test_reflection_vector_requires_minus_one_eigenvalue():
    # at level -2.75 the local exponent is r = 2.75, so the turn multiplies
    # the local solution by exp(2 pi i r) = -i: a pseudo-reflection, which
    # the exponent gate rejects
    space, prod, sser = _setup(3)
    res = md.monodromy_matrix(space, prod, sser, -2.75,
                              md.gamma_loop(3, 0.0, 0), TOL)
    assert abs(res.residuals["exponent"] - abs(1.0 - 1j)) < 1e-12
    with pytest.raises(NumericsError, match="not a reflection"):
        md.reflection_vector(res, space)


def test_reflection_vector_rejects_transvection():
    # at level -2.5 the local exponent is the integer 2: the local solutions
    # may carry a logarithm and the turn is unipotent, so no reflection
    space, prod, sser = _setup(3)
    with pytest.raises(NumericsError, match="not a reflection"):
        res = md.monodromy_matrix(space, prod, sser, -2.5,
                                  md.gamma_loop(3, 0.0, 0), TOL)
        md.reflection_vector(res, space)


def test_reflection_gate_rejects_a_double_turn():
    # twice around u_k the measured change is the identity, not C
    space, prod, sser = _setup(3)
    loop = md.gamma_loop(3, 0.0, 0)
    c = loop.circle
    twice = Arc(c.center, c.radius, c.angle0, c.angle0 + 4.0 * math.pi)
    res = md.monodromy_matrix(space, prod, sser, -3,
                              loop._replace(circle=twice), TOL)
    assert res.residuals["exponent"] < 1e-12
    assert res.residuals["reflection"] > 1.0
    with pytest.raises(NumericsError, match="not a reflection"):
        md.reflection_vector(res, space)


def test_reflection_gate_rejects_a_basis_the_pairing_does_not_see(
        monkeypatch):
    # periods of G-transformed classes: the monodromy is G^-1 C G, a
    # reflection, but not an orthogonal one for the intersection pairing
    space, prod, sser = _setup(4)
    gmat = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.2], [0.1, 0.0, 1.0]])
    exact = md.fundamental_solution

    def skewed(*args):
        sol = exact(*args)
        return MatrixSolution(sol.space, sol.level, sol.value @ gmat,
                              sol.branch, sol.truncation_error, sol.terms)

    monkeypatch.setattr(md, "fundamental_solution", skewed)
    res = md.monodromy_matrix(space, prod, sser, -4, md.gamma_loop(4, 0.0, 1),
                              TOL)
    assert res.residuals["exponent"] < 1e-12
    assert res.residuals["reflection"] > 1e-2
    with pytest.raises(NumericsError, match="not a reflection"):
        md.reflection_vector(res, space)


def test_reflection_vector_rejects_isotropic_direction():
    # p on the projective line squares to zero, so no vector proportional
    # to it can be normalized to square 2
    space = make_proj(1)
    res = md.MonodromyResult(matrix=np.diag([1.0, -1.0]).astype(complex),
                             direction=np.array([0.0, 1.0], complex),
                             residuals={"exponent": 0.0, "reflection": 0.0})
    with pytest.raises(NumericsError, match="isotropic"):
        md.reflection_vector(res, space)


def test_ill_conditioned_period_matrix_raises(monkeypatch):
    space, prod, sser = _setup(3)

    def fake(space_, product_, sser_, level_, branch_, tol_):
        bad = np.diag([1.0, 1e-12]).astype(complex)
        return MatrixSolution(space_, level_, bad, branch_, 0.0, 0)

    monkeypatch.setattr(md, "fundamental_solution", fake)
    loop = md.gamma_loop(3, 0.0, 0)
    # the base period is cached: sum it through the fake, and leave no
    # fake value behind for later tests
    md._base_cond.cache_clear()
    try:
        with pytest.raises(md.IllConditionedError):
            md.monodromy_matrix(space, prod, sser, -3, loop, TOL)
    finally:
        md._base_cond.cache_clear()


def test_caches_hand_out_read_only_arrays():
    space, prod, sser = _setup(4, 0.3 + 0.4j)
    assert prod is _setup(4, 0.3 + 0.4j)[1]
    loop = md.gamma_loop(4, 0.3 + 0.4j, 1)
    md.monodromy_matrix(space, prod, sser, -4, loop, TOL)
    cond = md._base_cond(space, prod, sser, -4, loop.arc.start, TOL)
    twisted = quantum_mult_twisted(4, 1.3)
    arrays = [prod.gen_mult, prod.euler_mult, *prod.eig,
              twisted.gen_mult, twisted.euler_mult, *twisted.eig,
              gamma_class(space), gamma_class(make_blproj(4))]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert gamma_class(space) is gamma_class(space)
    assert prod.eig is prod.eig and cond > 1.0


def test_loops_share_one_base_period_and_big_circle_sums_none(monkeypatch):
    # proj:3 at a complex q: one series at each loop's lambda_in and one at
    # the base point for all of them; the big circle is in closed form
    calls = []

    def spy(*args):
        calls.append(args[4])
        return fundamental_solution(*args)

    monkeypatch.setattr(md, "fundamental_solution", spy)
    md._base_cond.cache_clear()
    q_log = math.log(0.7) + 0.35j * math.pi
    space, prod, sser = _setup(5, q_log)
    for k in range(4):
        md.monodromy_matrix(space, prod, sser, -5, md.gamma_loop(5, q_log, k),
                            TOL)
    base = md.gamma_loop(5, q_log, 0).arc.start
    md.big_circle_matrix(space, prod, sser, -5, base, TOL)
    assert len(calls) == 4 + 1
    assert sum(br.base == base for br in calls) == 1


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
    """proj_reflection_check for every loop of P^1 .. P^6 at each of _QS."""
    return {(n, i): [md.proj_reflection_check(n, q, k) for k in range(n - 1)]
            for n in range(3, 9) for i, q in enumerate(_QS)}


def test_proj_reflection_check_p4(proj_checks):
    for i in range(len(_QS)):
        for out in proj_checks[6, i]:
            assert out["residual"] < 1e-5
            assert out["monodromy"].residuals["exponent"] < 1e-12
            assert out["monodromy"].residuals["reflection"] < 1e-7


def test_monodromy_is_integral_in_exceptional_basis(proj_checks):
    # in the basis P = [Psi(O(0)) .. Psi(O(n-2))] the k-th loop is the
    # integer reflection I - e_k (chi(O(k),O(j)) + chi(O(j),O(k)))_j; on
    # P^1 .. P^4, since on P^5 and P^6 the solve against the candidates
    # reads 1.5e-7 and 1.8e-6
    for (n, _), outs in proj_checks.items():
        if n > 6:
            continue
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


def _continued_monodromy(space, product, sser, level, loop, tol,
                         sides=SIDES):
    """The oracle: C = I_base^-1 I_cont with the whole closed loop
    continued from the base point, the arcs, the way in, the small circle
    and the way back, each arc as its inscribed polygon of `sides` sides."""
    branch = principal_branch(loop.arc.start)
    i_base = fundamental_solution(space, product, sser, level, branch,
                                  tol).value
    upper = space.theta - (level + 0.5) * np.eye(space.size)
    i_cont = continue_path(product.euler_mult, upper, full_path(loop),
                           i_base, sides)[0]
    return np.linalg.solve(i_base, i_cont)


def test_local_solutions_agree_with_the_continued_turn(proj_checks):
    # the reflection read off the local solutions at u_k against the
    # monodromy continued around the whole small circle, whose C - I is
    # rank one
    for (n, i), outs in proj_checks.items():
        q = _QS[i]
        space = make_proj(n - 2)
        product = quantum_mult_proj(n - 2, q.base)
        sser = sseries_proj(n - 2, q.base, SERIES_CAP)
        for k, out in enumerate(outs):
            oracle = _continued_monodromy(
                space, product, sser, -n, md.gamma_loop(n, q.log_value, k),
                md.BASE_SERIES_TOL)
            sv = np.linalg.svd(oracle - np.eye(space.size), compute_uv=False)
            assert sv[1] <= 1e-10 * sv[0]
            diff = np.linalg.norm(out["monodromy"].matrix - oracle, np.inf)
            assert diff <= 1e-8 * np.linalg.norm(oracle, np.inf)


def test_polygon_oracle_does_not_depend_on_its_sides():
    # every loop of P^3 at q = 1: the continued monodromy with each arc as
    # a 16-gon and as a 64-gon
    n = 5
    space, product, sser = _setup(n)
    for k in range(n - 1):
        loop = md.gamma_loop(n, 0.0, k)
        coarse, fine = (_continued_monodromy(space, product, sser, -n, loop,
                                             md.BASE_SERIES_TOL, sides)
                        for sides in (16, 64))
        assert np.linalg.norm(coarse - fine, np.inf) \
            <= 1e-10 * np.linalg.norm(fine, np.inf)


def _big_turn_closed_form(space):
    """T = -exp(2 pi i theta) exp(2 pi i rho)."""
    return -(space.exp_pi_i_theta ** 2)[:, None] * (
        space.exp_pi_i_rho @ space.exp_pi_i_rho)


def _series_turn(space, product, sser, level, base):
    """I(lambda_0)^-1 I(lambda_0 e^{2 pi i}): the period series summed at
    base and a turn of log lambda later."""
    b0 = principal_branch(base)
    b1 = BranchState(b0.base, b0.log_value + 2j * math.pi)
    i0, i1 = (fundamental_solution(space, product, sser, level, br,
                                   md.BASE_SERIES_TOL).value
              for br in (b0, b1))
    return np.linalg.solve(i0, i1)


def _assert_big_turn(space, product, sser, n, base):
    """The series turn at base matches the closed form, and big_circle_matrix
    returns the closed form there and at a second base; ValueError on the
    guard radius."""
    want = _big_turn_closed_form(space)
    scale = np.max(np.abs(want))
    other = 1.6 * product.radius * cmath.exp(2.0j)
    for level in (-n, -n + 1):
        series = _series_turn(space, product, sser, level, base)
        assert np.max(np.abs(series - want)) <= 1e-11 * scale
        for at in (base, other):
            got = md.big_circle_matrix(space, product, sser, level, at,
                                       md.BASE_SERIES_TOL)
            # exp(2 pi i theta) is (-1)^dim only to rounding: 9.8e-16
            assert np.max(np.abs(got - want)) <= 1e-14 * scale
    with pytest.raises(ValueError, match="guarded radius"):
        md.big_circle_matrix(space, product, sser, -n,
                             1.5 * product.radius, md.BASE_SERIES_TOL)


@pytest.mark.parametrize("m", range(1, 9))
def test_big_circle_turn_closed_form_proj(m):
    n = m + 2
    space = make_proj(m)
    for q in _QS:
        _assert_big_turn(space, quantum_mult_proj(m, q.base),
                         sseries_proj(m, q.base, SERIES_CAP), n,
                         md.gamma_loop(n, q.log_value, 0)[0].start)


@pytest.mark.parametrize("n", range(3, 7))
def test_big_circle_turn_closed_form_twisted(n):
    space = make_twisted(n)
    for Q in (0.6, 1.0, 1.6):
        product = quantum_mult_twisted(n, Q)
        _assert_big_turn(space, product,
                         sseries_twisted(n, complex(Q), SERIES_CAP), n,
                         2.0 * product.radius)


def test_reflection_work_count_pinned():
    # every loop of the reflections workload at its unjittered anchors: a
    # change that moves the point where the two series meet, a stopping
    # term or a series length shows here
    total = {"series_terms": 0, "frobenius_terms": 0}
    for n, mod, arg in ((3, 1.8, 0.75), (4, 0.8, -0.45), (5, 0.55, -0.8)):
        q_log = math.log(mod) + 1j * math.pi * arg
        q = BranchState(cmath.exp(q_log), q_log)
        for k in range(n - 1):
            counters = md.proj_reflection_check(n, q, k)["monodromy"].counters
            for key in total:
                total[key] += counters[key]
    for n, Q in ((3, 1.6), (4, 0.6)):
        for k in range(n - 1):
            counters = md.twisted_reflection_check(n, Q, k)["monodromy"] \
                .counters
            for key in total:
                total[key] += counters[key]
    assert total == {"series_terms": 496, "frobenius_terms": 302}


# ---------------------------------------------------------------------------
# twisted reflections
# ---------------------------------------------------------------------------

def test_twisted_reflection_constant_is_sign():
    out = md.twisted_reflection_check(3, 1.0, 0, tol=TOL)
    assert out["constant_deviation"] < 1e-4
    assert out["fit_residual"] < 1e-6
    assert abs(out["exceptional_pairing"] - 1.0) < 1e-10


def test_twisted_check_forms_one_exceptional_image_per_q(monkeypatch):
    # Psi(O_E) and its Euler pairing do not depend on the loop: one image
    # of each O_E(j) per (n, Q) across every k, O_E(0) serving both the
    # k = 1 candidate and the pairing, with the bits of a direct build
    md._exceptional_image.cache_clear()
    md._exceptional_pairing.cache_clear()
    seen = []
    real = md.psi_map

    def spy(space, kcl, q_log):
        seen.append((space.param, kcl, q_log))
        return real(space, kcl, q_log)

    monkeypatch.setattr(md, "psi_map", spy)
    for n, Q in ((3, 1.0), (4, 0.6)):
        q_log = (0.0, (n - 1) * math.log(Q))
        bl = make_blproj(n)
        for _ in range(2):
            for k in range(n - 1):
                out = md.twisted_reflection_check(n, Q, k)
                want = real(bl, exceptional_sheaf(-k + 1), q_log)
                assert out["candidate"].tobytes() == want.tobytes()
                assert not out["candidate"].flags.writeable
        oe = real(bl, exceptional_sheaf(0), q_log)
        assert out["exceptional_pairing"] == euler_pairing(bl, oe, oe)
        assert seen.count((n, exceptional_sheaf(0), q_log)) == 1
    assert len(seen) == len(set(seen)) == 2 + 3


def test_twisted_reflection_check_rejects_bad_q():
    with pytest.raises(ValueError):
        md.twisted_reflection_check(3, -1.0, 0)
    with pytest.raises(ValueError):
        md.twisted_reflection_check(3, 0.0, 0)


@pytest.mark.parametrize("n, Q", [(4, 1.3), (6, 1.0)])
def test_twisted_constant_survives_roundoff(monkeypatch, n, Q):
    # 2/c2 is -1 up to rounding for even n; noise in the direction at the
    # 1e-15 level must not pick the sign of beta and so of the constant
    want = [md.twisted_reflection_check(n, Q, k, tol=md.BASE_SERIES_TOL)
            ["constant"] for k in range(n - 1)]
    exact = md.monodromy_matrix
    rng = np.random.default_rng(11)

    def perturbed(*args):
        res = exact(*args)
        res.direction = res.direction * (1.0 + 1e-15 * rng.standard_normal(
            res.direction.shape))
        return res

    monkeypatch.setattr(md, "monodromy_matrix", perturbed)
    for _ in range(3):
        for k in range(n - 1):
            got = md.twisted_reflection_check(n, Q, k, tol=md.BASE_SERIES_TOL)
            assert abs(got["constant"] - want[k]) < 1e-6
