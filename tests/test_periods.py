"""Master periods, fundamental solutions, and the twisted identification."""

import cmath
import dataclasses
import functools
import math

import numpy as np
import pytest

from gamma_monodromy import periods as pd
from gamma_monodromy import quantum as qm
from gamma_monodromy.cohomology import (intersection_pairing, make_blproj,
                                        make_proj, make_twisted)
from gamma_monodromy.numerics import BranchState, jet_mul, principal_branch
from gamma_monodromy.quantum import (quantum_mult_proj, sseries_proj,
                                     SSeries)
from oracles import (branch_power, log_pow_jet, master_period,
                     recip_gamma_jet)


def _series(m, q, K=60):
    return sseries_proj(m, complex(q), K)


def _rho_free(sp):
    """A fresh copy of a model with rho = 0; the cached model is left as
    it is."""
    return dataclasses.replace(sp, rho=np.zeros_like(sp.rho))


def master_period_right(space, level, branch):
    """The master period with the nilpotent part acting from the right.

    It agrees with ``master_period`` because rho theta = (theta + 1) rho,
    which checks the expansion conventions from the other side.
    """
    depth = space.depth
    order = depth - 1
    size = space.size
    theta = np.diag(space.theta)
    acc = np.zeros((size, size), dtype=complex)
    rho_pow = np.eye(size, dtype=complex)
    for k in range(depth):
        diag = np.zeros(size, dtype=complex)
        for i in range(size):
            nu = theta[i] - level
            jet = jet_mul(log_pow_jet(branch, nu, order),
                          recip_gamma_jet(nu + 0.5, order))
            diag[i] = jet[k]
        acc = acc + np.diag(diag) @ rho_pow
        rho_pow = space.rho @ rho_pow
    return acc


# ---------------------------------------------------------------------------
# master period
# ---------------------------------------------------------------------------

def test_master_period_diagonal_when_rho_vanishes():
    sp = _rho_free(make_proj(2))
    br = principal_branch(3.0 + 1.0j)
    level = 1
    got = master_period(sp, level, br)
    assert np.max(np.abs(got - np.diag(np.diag(got)))) == 0.0
    theta = np.diag(sp.theta)
    for i in range(sp.size):
        d = theta[i].real - level - 0.5
        want = branch_power(br, d) / math.gamma(d + 1.0)
        assert abs(got[i, i] - want) < 1e-12 * max(1.0, abs(want))


def test_master_period_left_right_agree():
    for sp in (make_proj(1), make_proj(3)):
        for winding in (0, 1):
            br = principal_branch(2.5 - 1.2j, winding=winding)
            for level in (-4, 0, 3):
                a = master_period(sp, level, br)
                b = master_period_right(sp, level, br)
                scale = max(1.0, float(np.max(np.abs(a))))
                assert np.max(np.abs(a - b)) < 1e-12 * scale


def test_master_period_ladder_by_finite_differences():
    sp = make_proj(2)
    lam = 7.0 + 2.0j
    h = 1e-6 * abs(lam)
    lo = principal_branch(lam - h)
    hi = principal_branch(lam + h)
    mid = principal_branch(lam)
    for level in (-3, 0, 2):
        fd = (master_period(sp, level, hi)
              - master_period(sp, level, lo)) / (2 * h)
        nxt = master_period(sp, level + 1, mid)
        scale = max(1.0, float(np.max(np.abs(nxt))))
        assert np.max(np.abs(fd - nxt)) < 1e-6 * scale


def test_master_period_finite_at_gamma_poles():
    # levels driving the Gamma argument to nonpositive integers stay finite
    sp = make_proj(1)
    br = principal_branch(4.0)
    got = master_period(sp, 2, br)
    assert np.all(np.isfinite(got))


# ---------------------------------------------------------------------------
# the jet chain
# ---------------------------------------------------------------------------

LADDER_LAMS = (2.0 + 0.5j, -7.3 + 1.0j, 15.0 - 20.0j, 0.6 + 0.1j, 40.0 + 3.0j)


def _masters(sp, level, br, start, stop):
    """M_{level+k} for k = start .. stop-1, read off the jet chain with the
    series' sign (-1)^k taken back out."""
    signs = (-1.0) ** np.arange(start, stop)
    return signs[:, None, None] * pd._signed_masters(sp, level, br, start,
                                                     stop)


def _x0(sp, level):
    """The top centre theta_0 - level + 1/2 of the chain at level."""
    return float(np.diag(sp.theta)[0].real) - level + 0.5


def _ladder_deviation(sp, levels=45):
    """Worst |chain master - master_period| / max|M_ell| over consecutive
    levels from -(size + 2), three windings and LADDER_LAMS, with the
    masters read off the jet chain _BLOCK at a time."""
    worst = 0.0
    start = -(sp.size + 2)
    for lam in LADDER_LAMS:
        for winding in (-1, 0, 1):
            br = principal_branch(lam, winding=winding)
            for first in range(0, levels, pd._BLOCK):
                block = _masters(sp, start, br, first,
                                 min(first + pd._BLOCK, levels))
                for k, got in enumerate(block, first):
                    want = master_period(sp, start + k, br)
                    dev = np.max(np.abs(got - want))
                    worst = max(worst, dev / np.max(np.abs(want)))
    return worst


@pytest.mark.parametrize("sp", [make_proj(m) for m in range(1, 7)]
                         + [make_twisted(n) for n in range(3, 9)],
                         ids=lambda sp: "%s:%d" % (sp.kind, sp.param))
def test_level_ladder_matches_master_period(sp):
    # odd proj:m and odd twisted:n have half-integer theta, so the
    # levels cross the poles of Gamma(nu + w + 1/2).  The worst reading
    # is 5.1e-13 (proj:6, lam = 2 + 0.5i, level -5): the chain has one
    # Gamma jet, at its top centre, and the recurrence down from there
    # cancels in the high jet coefficients
    assert _ladder_deviation(sp) < 1e-12


def test_level_ladder_depth_one():
    # rho = 0: depth 1, jets of order 0
    sp = _rho_free(make_proj(2))
    assert sp.depth == 1
    assert make_proj(2).depth == 3
    assert _ladder_deviation(sp, levels=12) < 1e-12


# diagonals on both sides of the chain's builds of 48, 96, 192 and
# SERIES_CAP + size rows, and (170, 200) rows moved into their exponent
# past 2^512
DEEP_DIAGONALS = (0, 47, 48, 95, 96, 170, 200)


@functools.lru_cache(maxsize=None)
def _mp_rgamma_jet(twice_x: int, order: int):
    """The 30-digit jet of 1/Gamma at twice_x / 2."""
    import mpmath

    with mpmath.workdps(30):
        return mpmath.taylor(mpmath.rgamma, mpmath.mpf(twice_x) / 2, order)


def _mp_masters(sp, level, br, ks):
    """{k: M_{level+k}} from 30-digit mpmath jets of 1/Gamma times the
    power of lambda, leaving out the k whose entries pass 1e300, which
    float64 cannot hold."""
    import mpmath

    out = {}
    with mpmath.workdps(30):
        log_lam = mpmath.mpc(br.log_value)
        jet = [log_lam ** e / mpmath.factorial(e) for e in range(sp.depth)]
        for k in ks:
            diag = []
            for j in range(sp.depth):
                row = []
                for th in np.diag(sp.theta).real:
                    nu = th - level - k - j
                    rg = _mp_rgamma_jet(int(2 * nu + 1), sp.depth - 1)
                    row.append(mpmath.exp((mpmath.mpf(nu) - 0.5) * log_lam)
                               * mpmath.fdot(jet[:j + 1], rg[j::-1]))
                diag.append(row)
            if max(abs(v) for row in diag for v in row) < 1e300:
                diag = np.array(diag, dtype=complex)
                out[k] = np.einsum("jac,jc->ac", sp.rho_powers, diag)
    return out


@pytest.mark.parametrize("sp", [make_proj(m) for m in range(1, 7)]
                         + [make_twisted(n) for n in range(3, 9)],
                         ids=lambda sp: "%s:%d" % (sp.kind, sp.param))
def test_deep_ladder_rows_match_mpmath(sp):
    # rounding nu log(lam), up to about 2e3 at k = 200, costs about
    # 2e3 * 2^-53 = 2e-13 relative; the worst reading is 3.9e-13 (proj:6,
    # lam = 40 + 3i, k = 96), and 1152 of the 1260 masters are compared
    pytest.importorskip("mpmath")
    pd._chain.cache_clear()
    start = -(sp.size + 2)
    worst = 0.0
    for lam in LADDER_LAMS:
        for winding in (-1, 0, 1):
            br = principal_branch(lam, winding=winding)
            for k, want in _mp_masters(sp, start, br, DEEP_DIAGONALS).items():
                got = _masters(sp, start, br, k, k + 1)[0]
                dev = np.max(np.abs(got - want)) / np.max(np.abs(want))
                worst = max(worst, dev)
    chain = pd._chain(_x0(sp, start), sp.depth, pd.SERIES_CAP + sp.size)
    rows, _, shift = chain.value
    assert len(rows) == chain.built == pd.SERIES_CAP + sp.size
    # the deepest rows moved into their exponent past 2^512
    assert shift[-1] > 0
    assert worst < 1e-12


def test_chain_cache_hands_out_read_only_prefixes():
    sp = make_proj(3)
    pd._chain.cache_clear()
    br = principal_branch(5.0 - 2.0j, winding=1)
    first = pd._signed_masters(sp, -5, br, 0, pd._BLOCK)
    x0 = _x0(sp, -5)
    assert pd._chain.cache_info().currsize == 1
    chain = pd._chain(x0, sp.depth, pd.SERIES_CAP + sp.size)
    arrays = chain.value
    assert len(arrays[0]) == chain.built == 48
    middle = pd._signed_masters(sp, -5, br, 40, 50)
    assert chain.built == 96
    # another point grows the shared chain to 192 and then SERIES_CAP +
    # size rows
    pd._signed_masters(sp, -5, principal_branch(9.0), pd.SERIES_CAP - 3,
                       pd.SERIES_CAP + 1)
    assert pd._chain.cache_info().currsize == 1
    grown = chain.value
    assert len(grown[0]) == chain.built == pd.SERIES_CAP + sp.size
    # rows past 2^512 moved into their exponent
    assert grown[2][-1] > 0
    for old, new in zip(arrays, grown):
        assert not old.flags.writeable and not new.flags.writeable
        assert old.tobytes() == new[:len(old)].tobytes()
    with pytest.raises(ValueError):
        grown[0][0, 0] = 1.0
    for arr in pd._shift_form(sp)[1:]:
        assert not arr.flags.writeable
    assert pd._signed_masters(sp, -5, br, 0, pd._BLOCK).tobytes() \
        == first.tobytes()
    assert pd._signed_masters(sp, -5, br, 40, 50).tobytes() \
        == middle.tobytes()
    # a fresh build to any depth has the bits of the grown prefix
    for count in (1, 48, 100, pd.SERIES_CAP + sp.size):
        fresh = pd._chain_rows(x0, sp.depth, count)
        for arr, new in zip(fresh, grown):
            assert arr.tobytes() == new[:count].tobytes()


# ---------------------------------------------------------------------------
# fundamental solution
# ---------------------------------------------------------------------------

def test_fundamental_solution_never_calls_master_period():
    # the direct evaluation is a test oracle, out of the package's reach
    assert not hasattr(pd, "master_period")
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)
    sol = pd.fundamental_solution(sp, prod, _series(m, 1.0), -3,
                                  principal_branch(8.0), 1e-11)
    assert np.all(np.isfinite(sol.value))


def test_fundamental_solution_counts_terms():
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)
    sser = _series(m, 1.0)
    br = principal_branch(8.0)
    counts = []
    for tol in (1e-4, 1e-8, 1e-12):
        first = pd.fundamental_solution(sp, prod, sser, -3, br, tol).terms
        again = pd.fundamental_solution(sp, prod, sser, -3, br, tol).terms
        assert first == again
        counts.append(first)
    assert pd.MIN_TERMS < counts[0] < counts[1] < counts[2] <= len(sser.mats)


def test_period_series_work_count_pinned():
    # the six period-sweep kinds at fixed q or Q, the levels 0, -n and
    # -n + 1 and eight lambda each: 144 series whose total length is fixed,
    # so a change that moves the stopping term shows here
    total = 0
    for kind, n in (("proj", 3), ("proj", 4), ("proj", 5),
                    ("twisted", 3), ("twisted", 4), ("twisted", 5)):
        if kind == "proj":
            q = 1.2 * cmath.exp(0.3j * math.pi)
            sp, prod = make_proj(n - 2), quantum_mult_proj(n - 2, q)
            sser = sseries_proj(n - 2, q, pd.SERIES_CAP)
        else:
            sp, prod = make_twisted(n), qm.quantum_mult_twisted(n, 1.3)
            sser = qm.sseries_twisted(n, 1.3 + 0.0j, pd.SERIES_CAP)
        for i in range(8):
            lam = (2.1 + 0.25 * i) * prod.radius * cmath.exp(0.1j * (i - 3.5))
            br = principal_branch(lam)
            for level in (0, -n, -n + 1):
                total += pd.fundamental_solution(sp, prod, sser, level, br,
                                                 1e-11).terms
    assert total == 3179


def _term_by_term(sp, sser, level, br, tol):
    """The period series one term at a time from master_period, with the
    stopping rule of fundamental_solution: (value, terms, truncation)."""
    acc = np.zeros((sp.size, sp.size), dtype=complex)
    small_run = 0
    recent = []
    for k in range(min(len(sser.mats), pd.SERIES_CAP + 1)):
        term = (-1.0) ** k * sser.mats[k] @ master_period(sp, level + k, br)
        acc = acc + term
        recent.append(float(np.max(np.abs(term))))
        scale = float(np.max(np.abs(acc)))
        if k >= pd.MIN_TERMS and scale > 0 and recent[-1] < tol * scale:
            small_run += 1
            if small_run >= pd.CONVERGED_RUN:
                est = sum(recent[-pd.CONVERGED_RUN:])
                return acc, k + 1, max(est, 1e-14 * scale)
        else:
            small_run = 0
    raise AssertionError("reference series did not converge")


def test_blocked_sum_matches_term_by_term_reference():
    # at lambda = 6.5 these tolerances stop the series after 12 .. 35
    # terms, each near the middle of its window of about 0.4 decades: the
    # stopping term takes every value mod _BLOCK.  They all stop in the
    # sized first block; test_fundamental_solution_same_bits_whatever_
    # first_block moves the block boundaries
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)
    sser = _series(m, 1.0, K=200)
    br = principal_branch(6.5)
    residues = set()
    for exponent in (5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 8.25,
                     8.85, 9.25, 9.65, 10.05, 10.45, 10.9, 11.25, 11.65,
                     12.05, 12.45, 12.85, 13.25, 13.6, 14.0, 14.4, 14.75):
        tol = 10.0 ** -exponent
        sol = pd.fundamental_solution(sp, prod, sser, -3, br, tol)
        value, terms, trunc = _term_by_term(sp, sser, -3, br, tol)
        assert sol.terms == terms
        assert np.max(np.abs(sol.value - value)) < 1e-14 * np.max(np.abs(value))
        assert abs(sol.truncation_error - trunc) < 1e-14 * trunc
        residues.add(terms % pd._BLOCK)
    assert residues == set(range(pd._BLOCK))


def test_fundamental_solution_reduces_to_master_at_q_zero():
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 0.0)
    sser = _series(m, 0.0, K=20)
    br = principal_branch(2.0 + 0.5j)
    sol = pd.fundamental_solution(sp, prod, sser, -3, br, 1e-12)
    want = master_period(sp, -3, br)
    assert np.max(np.abs(sol.value - want)) < 1e-10 * np.max(np.abs(want))


def test_fundamental_solution_guard_radius():
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)   # eigenvalue radius 3
    sser = _series(m, 1.0)
    with pytest.raises(ValueError):
        pd.fundamental_solution(sp, prod, sser, -3,
                                principal_branch(4.0), 1e-10)


def test_fundamental_solution_nonconvergence_error():
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)
    sser = _series(m, 1.0, K=30)
    assert len(sser.mats) == 31
    with pytest.raises(pd.ConvergenceError, match="in 31 terms"):
        pd.fundamental_solution(sp, prod, sser, -3,
                                principal_branch(6.0), 0.0)
    # an on-demand series grows while it is read, up to its order
    deep = qm.sseries_proj.__wrapped__(m, 1.0 + 0.0j, 100)
    with pytest.raises(pd.ConvergenceError, match="in 101 terms"):
        pd.fundamental_solution(sp, prod, deep, -3,
                                principal_branch(6.0), 0.0)
    assert deep.mats.shape == (101, sp.size, sp.size)


def test_first_block_estimate_cap_and_fallback():
    assert pd._first_block(1e-11, 1.0 / 3.0, 3) == 24 + pd._LEAD
    assert pd._first_block(0.9, 0.5, 3) == pd.MIN_TERMS + pd.CONVERGED_RUN
    # the estimate, 67 terms, would read past the first 48 matrices of the
    # S-series and rows of the chain
    assert pd._first_block(1e-12, 1.0 / 1.55, 4) == 45
    for tol, rate in ((0.0, 0.5), (-1.0, 0.5), (1e-11, 0.0), (1.0, 0.5),
                      (math.inf, 0.5), (math.nan, 0.5), (1e-11, math.nan)):
        assert pd._first_block(tol, rate, 3) == pd._BLOCK
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)
    with pytest.raises(pd.ConvergenceError, match="in 31 terms"):
        pd.fundamental_solution(sp, prod, _series(m, 1.0, K=30), -3,
                                principal_branch(6.0), -1.0)
    assert pd.fundamental_solution(sp, prod, _series(m, 1.0), -3,
                                   principal_branch(6.0), math.inf).terms \
        == pd.MIN_TERMS + pd.CONVERGED_RUN


def _first_block_cases():
    """(space, product, sseries, level, branch, tol) of series that stop
    after 12 to 80 terms, on proj and twisted models."""
    cases = []
    sp, prod = make_proj(2), quantum_mult_proj(2, 1.0)
    sser = _series(2, 1.0, K=200)
    for exponent in (5.0, 8.25, 11.0, 14.75):
        cases.append((sp, prod, sser, -3, principal_branch(6.5),
                      10.0 ** -exponent))
    for kind, arg in (("proj", 5), ("twisted", 4), ("twisted", 7)):
        if kind == "proj":
            sp, prod = make_proj(arg), quantum_mult_proj(arg, 1.0)
            sser = qm.sseries_proj(arg, prod.param, pd.SERIES_CAP)
        else:
            sp, prod = make_twisted(arg), qm.quantum_mult_twisted(arg, 1.3)
            sser = qm.sseries_twisted(arg, prod.param, pd.SERIES_CAP)
        for lam, tol in ((1.01 * pd.GUARD_FACTOR * prod.radius, 1e-20),
                         (2.7j * prod.radius, 1e-11)):
            cases.append((sp, prod, sser, -arg, principal_branch(lam), tol))
    return cases


@pytest.mark.parametrize("first", [1, 9, 13, 24, 48, 80])
def test_fundamental_solution_same_bits_whatever_first_block(monkeypatch,
                                                             first):
    cases = _first_block_cases()
    want = [pd.fundamental_solution(*case) for case in cases]
    assert min(w.terms for w in want) == 12
    assert max(w.terms for w in want) > 70
    monkeypatch.setattr(pd, "_first_block", lambda tol, rate, size: first)
    for case, sol in zip(cases, want):
        got = pd.fundamental_solution(*case)
        assert got.terms == sol.terms
        assert got.value.tobytes() == sol.value.tobytes()
        assert got.truncation_error == sol.truncation_error


def _reversed(sp):
    """A fresh copy of a model with its basis in reverse order."""
    return dataclasses.replace(
        sp, basis=sp.basis[::-1], degrees=sp.degrees[::-1],
        cup=sp.cup[::-1, ::-1, ::-1], pairing=sp.pairing[::-1, ::-1],
        rho=sp.rho[::-1, ::-1])


@pytest.mark.parametrize("model", [_reversed(make_proj(2)),
                                   _reversed(make_twisted(5)),
                                   make_blproj(3)],
                         ids=["proj:2 reversed", "twisted:5 reversed",
                              "blproj:3"])
def test_fundamental_solution_rejects_models_outside_shift_form(model):
    prod = quantum_mult_proj(2, 1.0)
    with pytest.raises(ValueError, match="not in that form"):
        pd.fundamental_solution(model, prod, _series(2, 1.0), -3,
                                principal_branch(8.0), 1e-11)


@pytest.mark.parametrize("kind, arg", [("proj", m) for m in range(1, 6)]
                         + [("twisted", n) for n in range(3, 8)])
def test_fundamental_solution_same_on_lazy_and_eager_series(kind, arg):
    # just outside the guard at tol 1e-20 the series reads 70 to 80 terms,
    # past the 48 matrices of the on-demand series' first build
    if kind == "proj":
        sp, prod = make_proj(arg), quantum_mult_proj(arg, 1.0)
        make, make_inv = qm.sseries_proj, qm.s_inverse_series_proj
        level = -arg - 2
    else:
        sp, prod = make_twisted(arg), qm.quantum_mult_twisted(arg, 1.3)
        make, make_inv = qm.sseries_twisted, qm.s_inverse_series_twisted
        level = -arg
    lazy = make.__wrapped__(arg, prod.param, pd.SERIES_CAP)
    whole = qm.s_from_inverse(sp, make_inv(arg, prod.param, pd.SERIES_CAP))
    eager = SSeries(sp, pd.SERIES_CAP, lambda count: whole)
    br = principal_branch(1.01 * pd.GUARD_FACTOR * prod.radius)
    got = pd.fundamental_solution(sp, prod, lazy, level, br, 1e-20)
    want = pd.fundamental_solution(sp, prod, eager, level, br, 1e-20)
    assert got.terms >= 60
    assert got.terms == want.terms
    assert got.value.tobytes() == want.value.tobytes()
    assert got.truncation_error == want.truncation_error


def test_fundamental_solution_truncation_recorded():
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)
    sser = _series(m, 1.0)
    sol = pd.fundamental_solution(sp, prod, sser, -3,
                                  principal_branch(8.0), 1e-11)
    assert 0.0 < sol.truncation_error < 1e-9 * np.max(np.abs(sol.value))


def test_fundamental_solution_invertible_at_negative_level():
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)
    sser = _series(m, 1.0)
    sol = pd.fundamental_solution(sp, prod, sser, -3,
                                  principal_branch(10.0), 1e-11)
    assert np.linalg.cond(sol.value) < 1e6


def test_level_ladder_of_fundamental_solution():
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)
    sser = _series(m, 1.0)
    lam = 10.0
    h = 1e-5 * lam
    tol = 1e-11
    lo = pd.fundamental_solution(sp, prod, sser, -3,
                                 principal_branch(lam - h), tol).value
    hi = pd.fundamental_solution(sp, prod, sser, -3,
                                 principal_branch(lam + h), tol).value
    nxt = pd.fundamental_solution(sp, prod, sser, -2,
                                  principal_branch(lam), tol).value
    fd = (hi - lo) / (2 * h)
    assert np.max(np.abs(fd - nxt)) < 1e-6 * np.max(np.abs(nxt))


def test_connection_residual_of_fundamental_solution():
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)
    sser = _series(m, 1.0)
    lam = 10.0
    h = 1e-5 * lam
    tol = 1e-11
    rhs = pd.connection_rhs(sp, prod, -3)
    mid = pd.fundamental_solution(sp, prod, sser, -3,
                                  principal_branch(lam), tol)
    lo = pd.fundamental_solution(sp, prod, sser, -3,
                                 principal_branch(lam - h), tol).value
    hi = pd.fundamental_solution(sp, prod, sser, -3,
                                 principal_branch(lam + h), tol).value
    fd = (hi - lo) / (2 * h)
    res = np.max(np.abs(fd - rhs(lam, mid.value)))
    assert res < 1e-6 * max(1.0, np.max(np.abs(mid.value)))


def test_connection_rhs_rejects_discriminant():
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)
    rhs = pd.connection_rhs(sp, prod, -3)
    y = np.eye(sp.size, dtype=complex)
    with pytest.raises(ValueError):
        rhs(3.0, y)  # eigenvalue of the Euler operator at q=1


def test_pairing_constancy_along_lambda():
    m = 2
    sp = make_proj(m)
    prod = quantum_mult_proj(m, 1.0)
    sser = _series(m, 1.0)
    tol = 1e-11
    mats = []
    for lam in np.linspace(5.5, 8.0, 10):
        sol = pd.fundamental_solution(sp, prod, sser, 0,
                                      principal_branch(lam), tol).value
        pmat = sol.T @ sp.pairing @ (lam * sol - prod.euler_mult @ sol)
        mats.append(pmat)
    mats = np.array(mats)
    spread = np.max(np.abs(mats - mats[0]))
    assert spread < 1e-7
    want = np.array([[intersection_pairing(sp, a, b)
                      for b in np.eye(sp.size)] for a in np.eye(sp.size)])
    assert np.max(np.abs(mats[0] - want)) < 1e-7


# ---------------------------------------------------------------------------
# sigma transform and the twisted identification
# ---------------------------------------------------------------------------

def test_sigma_on_p1():
    sp = make_proj(1)
    got1 = pd.sigma_transform(sp, sp.unit())
    gotp = pd.sigma_transform(sp, sp.basis_vector("p"))
    assert abs(got1[0] - 1j) < 1e-14
    assert abs(gotp[1] + 1j) < 1e-14


def test_sigma_squares_to_theta_phase():
    sp = make_proj(3)
    v = np.ones(sp.size, dtype=complex)
    twice = pd.sigma_transform(sp, pd.sigma_transform(sp, v))
    want = np.exp(2j * np.pi * np.diag(sp.theta))
    assert np.max(np.abs(twice - want)) < 1e-13


def test_twisted_projective_identification_spot():
    # periods of the exceptional theory match conjugated projective ones
    n, Q, m = 3, 1.0, 3
    for lam in (6.0, 5.0 + 3.0j, -7.5 + 1.0j):
        br = principal_branch(lam)
        for idx in range(n - 1):
            beta = np.zeros(n - 1, dtype=complex)
            beta[idx] = 1.0
            lhs, rhs = pd.twisted_projective_match(n, Q, m, beta, br, 1e-11)
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale


def test_twisted_period_reduces_to_master_with_identity_series(monkeypatch):
    # truncating the twisted calibration to the identity leaves the bare
    # master period
    from gamma_monodromy.cohomology import make_twisted

    n, Q = 3, 1.0
    sp = make_twisted(n)
    mats = np.array([np.eye(sp.size, dtype=complex)]
                    + [np.zeros((sp.size, sp.size), complex)] * 12)
    ident = SSeries(sp, 12, lambda count: mats)
    monkeypatch.setattr(pd, "sseries_twisted", lambda *a, **k: ident)
    br = principal_branch(9.0)
    beta = np.array([1.0, 0.0], dtype=complex)
    got = pd.twisted_period(n, Q, 3, beta, br, 1e-11)
    want = master_period(sp, -3, br) @ beta
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))
