"""Quantum products and the closed-form calibration series."""

import cmath
import math

import numpy as np
import pytest

from gamma_monodromy import quantum as qm
from gamma_monodromy.cohomology import make_blproj, make_proj, make_twisted
from gamma_monodromy.numerics import jet_mul


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_proj_product_p1():
    prod = qm.quantum_mult_proj(1, 1.0)
    sp = prod.space
    out = prod.gen_mult @ sp.basis_vector("p")
    assert np.max(np.abs(out - sp.unit())) < 1e-14


def test_proj_product_classical_limit():
    prod = qm.quantum_mult_proj(2, 0.0)
    sp = prod.space
    out = prod.gen_mult @ sp.basis_vector("p^2")
    assert np.max(np.abs(out)) < 1e-14


def test_proj_euler_eigenvalues_are_scaled_roots():
    # (n-1) p-multiplication on P^{n-2} has the rotated root spectrum
    for n in (3, 4, 5):
        q = 0.8 + 0.3j
        prod = qm.quantum_mult_proj(n - 2, q)
        got = np.sort_complex(prod.eigenvalues())
        root = q ** (1.0 / (n - 1))
        want = np.sort_complex(np.array(
            [(n - 1) * root * cmath.exp(-2j * math.pi * k / (n - 1))
             for k in range(n - 1)]))
        assert np.max(np.abs(got - want)) < 1e-10


def test_proj_product_frobenius_property():
    prod = qm.quantum_mult_proj(3, 0.6 - 0.1j)
    adj = qm.pairing_adjoint(prod.space, prod.gen_mult)
    assert np.max(np.abs(adj - prod.gen_mult)) < 1e-12


def test_powers_of_generator_commute():
    prod = qm.quantum_mult_proj(4, 1.3)
    a = np.linalg.matrix_power(prod.gen_mult, 2)
    b = np.linalg.matrix_power(prod.gen_mult, 3)
    assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_twisted_product_top_relation():
    Q = 2.0
    prod = qm.quantum_mult_twisted(3, Q)
    sp = prod.space
    out = prod.gen_mult @ sp.basis_vector("e^2")
    want = -(Q ** -2) * sp.basis_vector("e")
    assert np.max(np.abs(out - want)) < 1e-14


def test_twisted_singular_points():
    # n=3, Q=1: the Euler operator spectrum sits at +-2i
    prod = qm.quantum_mult_twisted(3, 1.0)
    got = set(np.round(prod.eigenvalues(), 10))
    assert got == {2j, -2j}


def test_twisted_discriminant_polynomial():
    n, Q = 4, 1.5
    prod = qm.quantum_mult_twisted(n, Q)
    for lam in (0.7, 1.0 + 0.4j, -2.3):
        det = np.linalg.det(lam * np.eye(n - 1)
                            + (n - 1) * prod.gen_mult)
        want = lam ** (n - 1) + ((n - 1) / Q) ** (n - 1)
        assert abs(det - want) < 1e-10 * max(1.0, abs(want))


def test_twisted_rejects_zero_parameter():
    with pytest.raises((ZeroDivisionError, ValueError)):
        qm.quantum_mult_twisted(3, 0.0)


def test_twisted_frobenius_property():
    prod = qm.quantum_mult_twisted(4, 1.2)
    adj = qm.pairing_adjoint(prod.space, prod.gen_mult)
    assert np.max(np.abs(adj - prod.gen_mult)) < 1e-12


# ---------------------------------------------------------------------------
# S^{-1} columns from the closed formulas
# ---------------------------------------------------------------------------

def s_inverse_proj(m, q, i, K):
    """Coefficient vectors of z^0, z^-1, .., z^-K in S(q,z)^{-1} p^i: a
    column of the series array."""
    return qm.s_inverse_series_proj(m, q, K)[:, :, i]


def s_inverse_twisted(n, Q, i, K):
    """Coefficient vectors of z^0 .. z^-K in twS(Q,z)^{-1} e^i,
    1 <= i <= n-1: a column of the series array."""
    return qm.s_inverse_series_twisted(n, Q, K)[:, :, i - 1]


def _scatter_heads(inv, l, heads):
    """inv[l[c, a], a, c] += heads[c, a] wherever 0 < l[c, a] <= K."""
    c, a = np.nonzero((l > 0) & (l < len(inv)))
    inv[l[c, a], a, c] += heads[c, a]


def s_inverse_proj_by_degree(m, q, K):
    """The S^{-1} array on H*(P^m) built degree by degree at q, the way
    the library built it before its heads were tabulated free of q."""
    size = m + 1
    inv = np.zeros((K + 1, size, size), dtype=complex)
    idx = np.arange(size)
    offset = idx[None, :] - idx[:, None]
    running = np.zeros(size, dtype=complex)
    running[0] = 1.0
    qd = 1.0 + 0.0j
    d = 1
    while d * (m + 1) <= K + m + 2:
        running = jet_mul(running, qm._inv_factor(-d, m + 1, size))
        qd *= q
        heads = np.array([jet_mul(qm._poly_pow_shifted(-d, i, size), running)
                          for i in range(size)])
        _scatter_heads(inv, d * (m + 1) + offset, qd * heads)
        d += 1
    inv[0] = np.eye(size)
    return inv


def s_inverse_twisted_by_degree(n, Q, K):
    """The twS^{-1} array built degree by degree at Q."""
    size = n - 1
    inv = np.zeros((K + 1, size, size), dtype=complex)
    poles = n - np.arange(1, n)
    offset = poles[:, None] + np.arange(size)[None, :]
    for d, running in qm._exceptional_running(n, K, size):
        coef = (-1.0) ** (d * n) * complex(Q) ** (-d * (n - 1))
        heads = np.array([jet_mul(running, qm._inv_factor(d, p, size))
                          for p in poles.tolist()])
        _scatter_heads(inv, (d - 1) * (n - 1) + offset, coef * heads)
    inv[0] = np.eye(size)
    return inv


@pytest.mark.parametrize("kind, n", [("proj", m) for m in range(1, 9)]
                         + [("twisted", n) for n in range(3, 9)])
def test_tabulated_inverse_matches_degree_by_degree_build(kind, n):
    # the q-free tables change no bit of the series, at the depths the
    # on-demand series builds (48, 96 and the cap's 201 matrices)
    if kind == "proj":
        build, oracle = qm.s_inverse_series_proj, s_inverse_proj_by_degree
        params = (1.0, 2.5, 0.9 - 0.2j)
    else:
        build, oracle = qm.s_inverse_series_twisted, s_inverse_twisted_by_degree
        params = (1.3, 0.6, 0.8 + 0.3j)
    for K in (47, 95, 200):
        for param in params:
            got = build(n, param, K)
            assert not got.flags.writeable
            assert got.tobytes() == oracle(n, param, K).tobytes()


def test_cached_tables_are_read_only():
    for table in (qm._proj_table(3, 47), qm._twisted_table(4, 95)):
        assert type(table) is tuple and len(table) > 1
        for slots, heads in table:
            for arr in (slots, heads):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0
    assert qm._proj_table(3, 47) is qm._proj_table(3, 47)


def test_s_inverse_proj_leading_terms():
    # P^2 column of the unit: first correction enters at z^{-3}
    q = 0.7
    col = s_inverse_proj(2, q, 0, 6)
    sp = make_proj(2)
    assert np.max(np.abs(col[0] - sp.unit())) < 1e-14
    assert np.max(np.abs(col[1])) < 1e-14
    assert np.max(np.abs(col[2])) < 1e-14
    assert np.max(np.abs(col[3] - (-q) * sp.unit())) < 1e-13
    assert np.max(np.abs(col[4] - (-3 * q) * sp.basis_vector("p"))) < 1e-13
    assert np.max(np.abs(col[5] - (-6 * q) * sp.basis_vector("p^2"))) < 1e-13


def test_s_inverse_proj_order_zero_is_basis():
    for m in (1, 2, 3):
        for i in range(m + 1):
            col = s_inverse_proj(m, 1.0, i, 3)
            want = np.zeros(m + 1, dtype=complex)
            want[i] = 1.0
            assert np.max(np.abs(col[0] - want)) < 1e-14


def test_s_inverse_twisted_leading_terms():
    n, Q = 3, 2.0
    col = s_inverse_twisted(n, Q, 1, 5)
    sp = make_twisted(n)
    assert np.max(np.abs(col[0] - sp.basis_vector("e"))) < 1e-14
    assert np.max(np.abs(col[1])) < 1e-14
    assert np.max(np.abs(col[2] - (-(Q ** -2)) * sp.basis_vector("e"))) < 1e-14
    assert np.max(np.abs(col[3] - (2 * Q ** -2) * sp.basis_vector("e^2"))) < 1e-14


def test_twisted_matches_projective_at_matched_parameter():
    # matrices of the twisted series at z -> -z reproduce the projective
    # series at q = (-1)^n Q^{-(n-1)}
    for n in (3, 4):
        Q = 1.7
        q = (-1.0) ** n * Q ** (-(n - 1))
        K = 6
        tw = qm.sseries_twisted(n, complex(Q), K)
        pr = qm.sseries_proj(n - 2, complex(q), K)
        for l in range(K + 1):
            assert np.max(np.abs((-1.0) ** l * tw.mats[l] - pr.mats[l])) < 1e-12


def s_inverse_blowup_unit(n, q1, K):
    """z-expansion of blS^{-1} 1 on the blowup model at q2 = 0."""
    terms = qm.blowup_unit_terms(n, K)
    size = make_blproj(n).size
    out = [np.zeros(size, dtype=complex) for _ in range(K + 1)]
    for d, col in terms.items():
        w = complex(q1) ** d
        for l in range(K + 1):
            out[l] += w * col[l]
    return out


def test_s_inverse_blowup_unit_low_orders():
    n = 3
    col = s_inverse_blowup_unit(n, 1.0, 6)
    bl = make_blproj(n)
    assert np.max(np.abs(col[0] - bl.unit())) < 1e-14
    assert np.max(np.abs(col[1])) < 1e-14
    assert np.max(np.abs(col[2])) < 1e-14
    # degree-1: -e/(e+z)^3 expanded
    assert np.max(np.abs(col[3] - (-1.0) * bl.basis_vector("e"))) < 1e-13
    assert np.max(np.abs(col[4] - 3.0 * bl.basis_vector("e^2"))) < 1e-13
    # z^{-5}: -6 e^3 = -6 h^3 from degree 1 plus e/8 from degree 2
    want5 = -6.0 * bl.basis_vector("h^3") + 0.125 * bl.basis_vector("e")
    assert np.max(np.abs(col[5] - want5)) < 1e-13


def test_blowup_unit_no_pullback_mixing():
    # only the unit and the exceptional sector appear in the unit column
    col = s_inverse_blowup_unit(4, 0.9, 8)
    bl = make_blproj(4)
    hmask = np.array([lbl.startswith("h") and lbl != "h^%d" % 4
                      for lbl in bl.basis])
    hmask[bl.index("h^4")] = False
    for l in range(1, 9):
        assert np.max(np.abs(col[l][hmask])) < 1e-14


# ---------------------------------------------------------------------------
# calibration from the inverse and its structural identities
# ---------------------------------------------------------------------------

def test_s_from_inverse_identity_series():
    sp = make_proj(2)
    eye = np.array([np.eye(3, dtype=complex)]
                   + [np.zeros((3, 3), complex)] * 4)
    s = qm.s_from_inverse(sp, eye)
    assert s.shape == (5, 3, 3) and not s.flags.writeable
    for l, mat in enumerate(s):
        want = np.eye(3) if l == 0 else 0.0
        assert np.max(np.abs(mat - want)) < 1e-14


def test_s_times_inverse_is_identity():
    for make, args in ((qm.sseries_proj, (2, 1.0 + 0.0j, 8)),
                       (qm.sseries_twisted, (4, 1.3 + 0.0j, 8))):
        s = make(*args)
        if make is qm.sseries_proj:
            sinv = qm.s_inverse_series_proj(args[0], args[1], args[2])
        else:
            sinv = qm.s_inverse_series_twisted(args[0], args[1], args[2])
        size = s.space.size
        for l in range(s.order + 1):
            acc = sum(s.mats[a] @ sinv[l - a] for a in range(l + 1))
            want = np.eye(size) if l == 0 else np.zeros((size, size))
            assert np.max(np.abs(acc - want)) < 1e-10


def test_s_from_inverse_is_involutive():
    sp = make_proj(3)
    s0 = qm.s_inverse_series_proj(3, 0.8 + 0.1j, 6)
    s2 = qm.s_from_inverse(sp, qm.s_from_inverse(sp, s0))
    for a, b in zip(s0, s2):
        assert np.max(np.abs(a - b)) < 1e-12


def test_cached_sseries_is_read_only():
    first = qm.sseries_proj(2, 1.0 + 0.0j, 8)
    before = [mat.copy() for mat in first.mats]
    with pytest.raises(ValueError):
        first.mats[0][0, 0] = 99.0
    again = qm.sseries_proj(2, 1.0 + 0.0j, 8)
    assert all(np.array_equal(a, b) for a, b in zip(again.mats, before))


@pytest.mark.parametrize("make, make_inv, args",
                         [(qm.sseries_proj, qm.s_inverse_series_proj,
                           (m, 0.9 - 0.2j, 200)) for m in (1, 2, 3)]
                         + [(qm.sseries_twisted, qm.s_inverse_series_twisted,
                             (n, 1.3 + 0.0j, 200)) for n in (3, 4, 5)])
def test_sseries_is_one_read_only_array(make, make_inv, args):
    # one (K+1, size, size) array, equal bit for bit to the adjoint taken
    # one matrix at a time
    s = make(*args)
    size = s.space.size
    assert type(s.mats) is np.ndarray
    assert s.mats.shape == (201, size, size)
    assert not s.mats.flags.writeable
    for l, mat in enumerate(make_inv(*args)):
        want = (-1.0) ** l * qm.pairing_adjoint(s.space, mat)
        assert s.mats[l].tobytes() == want.tobytes()


_LAZY_CASES = ([("proj", m, 0.9 - 0.2j) for m in range(1, 6)]
               + [("twisted", n, 1.3 + 0.0j) for n in range(3, 8)])


def _fresh_series(kind, arg, param, K):
    """An on-demand series that bypasses the cache, and its eager twin."""
    if kind == "proj":
        make, make_inv = qm.sseries_proj, qm.s_inverse_series_proj
    else:
        make, make_inv = qm.sseries_twisted, qm.s_inverse_series_twisted
    s = make.__wrapped__(arg, param, K)
    return s, qm.s_from_inverse(s.space, make_inv(arg, param, K))


@pytest.mark.parametrize("kind, arg, param", _LAZY_CASES)
def test_lazy_sseries_prefixes_match_eager_build(kind, arg, param):
    s, eager = _fresh_series(kind, arg, param, 200)
    size = s.space.size
    assert s.order == 200
    for terms in (1, 20, 48, 49, 60, 96, 150, 201, 250):
        got = s.head(terms)
        count = min(terms, 201)
        assert got.shape == (count, size, size)
        assert not got.flags.writeable
        assert got.tobytes() == eager[:count].tobytes()
    assert s.mats.shape == (201, size, size)
    assert not s.mats.flags.writeable
    assert s.mats.tobytes() == eager.tobytes()


def test_lazy_sseries_builds_only_as_deep_as_read(monkeypatch):
    orders = []
    build = qm.s_inverse_series_proj

    def counted(m, q, K):
        orders.append(K)
        return build(m, q, K)

    monkeypatch.setattr(qm, "s_inverse_series_proj", counted)
    s = qm.sseries_proj.__wrapped__(2, 0.9 - 0.2j, 200)
    assert orders == []
    s.head(1)
    assert orders == [47]
    s.head(48)
    assert orders == [47]
    s.head(49)
    assert orders == [47, 95]
    assert s.mats.shape == (201, 3, 3)
    assert orders == [47, 95, 200]
    s.head(201)
    assert orders == [47, 95, 200]
    # a short series is built whole at once
    assert qm.sseries_proj.__wrapped__(2, 0.9 - 0.2j, 30).mats.shape[0] == 31
    assert orders[-1] == 30


def test_plain_sseries_holds_its_array_read_only():
    # a series over one fixed array: reads stop at its order and hand out
    # that array's read-only prefixes
    mats = np.zeros((5, 2, 2), dtype=complex)
    mats.flags.writeable = False
    s = qm.SSeries(make_twisted(3), 4, lambda count: mats[:count])
    assert s.order == 4
    assert s.head(9).shape == (5, 2, 2)
    assert s.head(2).shape == (2, 2, 2)
    assert not s.mats.flags.writeable
    assert s.mats.base is mats


def test_symplectic_residuals():
    assert qm.symplectic_residual(qm.sseries_proj(2, 1.0 + 0.0j, 10)) < 1e-10
    assert qm.symplectic_residual(qm.sseries_proj(4, 0.6 + 0.2j, 8)) < 1e-10
    assert qm.symplectic_residual(qm.sseries_twisted(3, 1.0 + 0.0j, 10)) < 1e-10
    assert qm.symplectic_residual(qm.sseries_twisted(5, 2.0 + 0.0j, 8)) < 1e-10


def test_twisted_homogeneity_exponents():
    # every entry of S_l is a pure power of Q: doubling Q rescales the
    # entry by 2^{rowdeg - coldeg - l}
    n, K = 4, 6
    s1 = qm.sseries_twisted(n, 1.0 + 0.0j, K)
    s2 = qm.sseries_twisted(n, 2.0 + 0.0j, K)
    pw = np.arange(1, n, dtype=float)
    expo = pw[:, None] - pw[None, :]
    for l in range(K + 1):
        scale = 2.0 ** (expo - l)
        assert np.max(np.abs(s2.mats[l] - scale * s1.mats[l])) < 1e-12


def test_twisted_divisor_relation():
    # Q d/dQ S_l = (n-1) (e*) S_{l-1} + S_{l-1} rho, with the derivative
    # read off from the homogeneity exponents
    n, K, Q = 4, 8, 0.8
    s = qm.sseries_twisted(n, complex(Q), K)
    prod = qm.quantum_mult_twisted(n, complex(Q))
    rho = s.space.rho
    pw = np.arange(1, n, dtype=float)
    expo = pw[:, None] - pw[None, :]
    for l in range(1, K + 1):
        lhs = (expo - l) * s.mats[l]
        rhs = (n - 1) * prod.gen_mult @ s.mats[l - 1] + s.mats[l - 1] @ rho
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_epsilon_sector_conjugation():
    # Q^Delta (e*) Q^{-Delta} = epsilon / Q
    for n in (3, 4, 5):
        for Q in (0.5, 2.0):
            prod = qm.quantum_mult_twisted(n, Q)
            d = np.diag(prod.space.delta)
            qd = np.power(Q, d)
            conj = (qd[:, None] * prod.gen_mult) * (1.0 / qd)[None, :]
            assert np.max(np.abs(conj - qm.epsilon_matrix(n) / Q)) < 1e-13
