"""Period vectors of the second structure connection.

The master period at integer level ell is the matrix-valued function

    M_ell(lambda) = sum_k rho^k diag_i( jet_k of lam^{nu+w-1/2}/Gamma(nu+w+1/2)
                                        at nu = theta_i - ell - k )

a finite sum because rho is nilpotent.  Differentiation in lambda shifts
ell up by one exactly, so the level ladder costs nothing numerically.

The full period matrix is the convergent series

    I_ell(lambda) = sum_{k>=0} (-1)^k S_k M_{ell+k}(lambda),   |lambda| large,

whose columns solve dY/dlam = (lam - E*)^{-1} (theta - ell - 1/2) Y.

`fundamental_solution` does not rebuild M_{ell+k} from Gamma at every term.
The jet of g(nu, w) = lam^{nu+w-1/2}/Gamma(nu+w+1/2) splits as

    g(nu, w) = lam^{nu-1/2} * (E R(nu))(w),   E_d = (log lam)^d / d!,

a jet product, where R(nu) is the jet of 1/Gamma(nu + 1/2 + w): real,
because theta is real, and free of lambda.  Term k reads M_{ell+k} =
sum_j rho^j diag_i(G[k + j, i, j]) from the jet chain G[t, i] of g at
nu = theta_i - ell - t, and the R of that chain is a ladder cached per
(theta, ell, D), D the nilpotency depth of rho.  Its first D rows come
from Gamma jets, every deeper row from the row above by the exact
linear-jet recurrence

    1/Gamma(x - 1 + w) = (x - 1 + w) / Gamma(x + w),

vectorised over i.  Rows grow like |x|!, so each is kept as a float64
mantissa times a power of two whose exponent joins the power of lambda.
The ladder stores the diagonals R[k + j, i, j - e] that M_{ell+k} reads,
as a `numerics.Prefix` of at most SERIES_CAP + 1 diagonals: 48 first, then
doubling when a block needs more, each build replacing the read-only
arrays whole.  A call supplies only the D numbers E and the powers of
lambda: one exponential and one contraction per block.

The terms are formed _BLOCK = 24 at a time: one einsum of the diagonals
against the cached powers of rho gives the block's masters, one batched
matmul against S_k and the alternating sign give its terms, and a
cumulative sum seeded with the running total gives its partial sums.  The
stopping rule then reads the block's term norms and partial-sum scales
one term at a time, so the sum stops at the same term, and holds the same
value, as a term-by-term loop.  Most series stop after 16 to 36 terms, so
one or two blocks; two blocks end at the 48 matrices of an S-series'
first build, so a series of up to 48 terms never grows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .cohomology import SpaceModel, make_proj, make_twisted
from .numerics import BranchState, NumericsError, Prefix, recip_gamma_jet
from .quantum import (QuantumProduct, SSeries, quantum_mult_proj,
                      quantum_mult_twisted, sseries_proj, sseries_twisted)

SERIES_CAP = 200
CONVERGED_RUN = 3
MIN_TERMS = 8
GUARD_FACTOR = 1.5
_BLOCK = 24          # period-series terms formed per batch
_ROW_EXP = 512       # a ladder row past 2^_ROW_EXP moves into its exponent


class ConvergenceError(NumericsError):
    pass


@dataclass
class MatrixSolution:
    space: SpaceModel
    level: int
    value: np.ndarray
    branch: BranchState
    truncation_error: float
    terms: int             # series terms summed


@lru_cache(maxsize=4096)
def _rg_jet_coeffs(nu_half: complex, order: int) -> np.ndarray:
    """Jet of 1/Gamma at nu_half, read-only because the cache shares it."""
    jet = recip_gamma_jet(nu_half, order)
    jet.flags.writeable = False
    return jet


def _rescaled(row: np.ndarray, exp: int) -> tuple[np.ndarray, int]:
    """row * 2^exp as a mantissa below 1 and an exponent, once row passes
    2^_ROW_EXP; otherwise as it stands."""
    top = int(np.frexp(np.max(np.abs(row)))[1])
    if top > _ROW_EXP:
        return np.ldexp(row, -top), exp + top
    return row, exp


def _ladder_arrays(key: tuple, level: int, count: int) -> tuple:
    """The lambda-free jets of the chain at one (theta, depth) and level,
    over count diagonals k, as read-only arrays

        rd[k, i, j, e] = R[k + j, i, j - e]   (0 where e > j),
        nu_half[k, i, j] = theta_i - level - k - j - 1/2,
        shift[k, 0, j] = exps[k + j] * log 2,

    so that G[k + j, i, j] = exp(nu_half log lam + shift) * (rd @ E).  Row
    t of the ladder is the jet R[t, i] of 1/Gamma(x + w) at x = theta_i -
    level - t + 1/2, kept as 2^exps[t] * rows[t]."""
    theta, depth = key
    order = depth - 1
    nu = np.array(theta) - level                 # nu of row 0
    rows, exps = [], []
    for t in range(count + depth - 1):
        if t < depth:
            row, exp = np.array([_rg_jet_coeffs(v - t + 0.5, order).real
                                 for v in nu]), 0
        else:
            # 1/Gamma(x - 1 + w) = (x - 1 + w) / Gamma(x + w), x - 1 of row t
            row = (nu - t + 0.5)[:, None] * rows[-1]
            row[:, 1:] += rows[-1][:, :-1]
            exp = exps[-1]
        row, exp = _rescaled(row, exp)
        rows.append(row)
        exps.append(exp)
    diag = np.arange(count)[:, None] + np.arange(depth)          # k + j
    lag = np.subtract.outer(np.arange(depth), np.arange(depth))
    lag[lag < 0] = depth                         # the zero column below
    rows = np.array(rows)
    padded = np.concatenate([rows, np.zeros(rows.shape[:2] + (1,))], axis=2)
    rd = padded[diag[:, None, :, None], np.arange(len(nu))[:, None, None],
                lag]
    nu_half = nu[:, None] - diag[:, None, :] - 0.5
    shift = (np.array(exps)[diag] * math.log(2.0))[:, None, :]
    for arr in (rd, nu_half, shift):
        arr.flags.writeable = False
    return rd, nu_half, shift


@lru_cache(maxsize=64)
def _ladder(key: tuple, level: int) -> Prefix:
    """The ladder of a model's `ladder_key`, (diag theta, depth), at level:
    (rd, nu_half, shift) of `_ladder_arrays`, built as deep as read."""
    return Prefix(partial(_ladder_arrays, key, level), SERIES_CAP + 1)


class _JetChain:
    """The masters M_{level+k} at one branch of log lambda: the cached
    ladder of (theta, level, depth) times the jet E of lam^w and the powers
    of lambda."""

    def __init__(self, space: SpaceModel, level: int, branch: BranchState):
        self.rho_powers = space.rho_powers
        self.ladder = _ladder(space.ladder_key, level)
        self.log_lam = branch.log_value
        jet = [1.0 + 0.0j]
        for d in range(1, space.depth):
            jet.append(jet[-1] * branch.log_value / d)
        self.log_jet = np.array(jet)             # E_d = (log lam)^d / d!

    def masters(self, start: int, stop: int) -> np.ndarray:
        """M_{level+k} for k = start .. stop-1, as one (stop - start, size,
        size) array: M = sum_j rho^j diag_i(G[k + j, i, j])."""
        rd, nu_half, shift = self.ladder.read(stop)
        diag = np.exp(nu_half[start:stop] * self.log_lam + shift[start:stop])
        diag *= rd[start:stop] @ self.log_jet
        return np.einsum("jac,kcj->kac", self.rho_powers, diag)


def fundamental_solution(space: SpaceModel, product: QuantumProduct,
                         sseries: SSeries, level: int, branch: BranchState,
                         tol: float) -> MatrixSolution:
    """Sum the period series at the point and branch carried by `branch`.

    Requires |lambda| > 1.5 * (largest eigenvalue of E*).  Stops once three
    consecutive terms fall below tol * ||partial sum||; raises if the terms
    available (the S-series length, at most SERIES_CAP + 1) do not get
    there.  The terms are formed _BLOCK at a time from one jet chain, each
    block reading only the S-matrices it needs, and the stopping rule reads
    them one by one.
    """
    lam_abs = abs(branch.base)
    if lam_abs <= GUARD_FACTOR * product.radius:
        raise ValueError(
            "base point inside the guarded radius: |lambda|=%g <= %g"
            % (lam_abs, GUARD_FACTOR * product.radius))
    n_terms = min(sseries.order + 1, SERIES_CAP + 1)
    chain = _JetChain(space, level, branch)
    acc = np.zeros((space.size, space.size), dtype=complex)
    small_run = 0
    recent: list[float] = []
    for start in range(0, n_terms, _BLOCK):
        stop = min(start + _BLOCK, n_terms)
        terms = sseries.head(stop)[start:] @ chain.masters(start, stop)
        terms[1 - start % 2::2] *= -1.0
        tnorms = np.max(np.abs(terms), axis=(1, 2)).tolist()
        terms[0] += acc
        partial = np.cumsum(terms, axis=0, out=terms)
        scales = np.max(np.abs(partial), axis=(1, 2)).tolist()
        acc = partial[-1]
        for k, tnorm, scale in zip(range(start, stop), tnorms, scales):
            recent.append(tnorm)
            if k >= MIN_TERMS and scale > 0 and tnorm < tol * scale:
                small_run += 1
                if small_run >= CONVERGED_RUN:
                    est = sum(recent[-CONVERGED_RUN:])
                    return MatrixSolution(space, level, partial[k - start],
                                          branch, max(est, 1e-14 * scale),
                                          k + 1)
            else:
                small_run = 0
    raise ConvergenceError(
        "period series did not converge in %d terms at |lambda|=%g"
        % (n_terms, lam_abs))


def connection_rhs(space: SpaceModel, product: QuantumProduct, level: int):
    """Right-hand side (lam - E*)^{-1} (theta - level - 1/2) Y of the
    connection; raises on the discriminant where lam - E* is singular."""
    euler = product.euler_mult
    upper = space.theta - (level + 0.5) * np.eye(space.size)
    eigs = np.linalg.eigvals(euler)

    def rhs(lam: complex, y: np.ndarray) -> np.ndarray:
        if np.min(np.abs(lam - eigs)) < 1e-12 * max(1.0, abs(lam)):
            raise ValueError("connection evaluated on the discriminant")
        return np.linalg.solve(lam * np.eye(space.size) - euler, upper @ y)

    return rhs


def sigma_transform(space: SpaceModel, v: np.ndarray) -> np.ndarray:
    """Componentwise multiplication by exp(pi i theta_i); a matrix is
    transformed column by column."""
    return (space.exp_pi_i_theta * np.asarray(v, dtype=complex).T).T


def twisted_period(n: int, Q: complex, m: int, beta: np.ndarray,
                   branch: BranchState, tol: float) -> np.ndarray:
    """Period vector of the twisted theory at level -m for the class beta."""
    space = make_twisted(n)
    product = quantum_mult_twisted(n, Q)
    sser = sseries_twisted(n, complex(Q), SERIES_CAP)
    sol = fundamental_solution(space, product, sser, -m, branch, tol)
    return sol.value @ np.asarray(beta, dtype=complex)


def twisted_projective_match(n: int, Q: complex, m: int, beta: np.ndarray,
                             branch: BranchState, tol: float
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the twisted/projective period identification.

    Left: the twisted period of beta at (Q, lambda).  Right: the level -m
    period on P^{n-2} at q = -Q^{-(n-1)} of sigma(beta), conjugated by
    exp(-pi i theta), transported through e^i -> p^{i-1}.  Both use the
    same branch of log lambda.  beta is a class or a matrix whose columns
    are classes; the two sides then have one column per class.
    """
    lhs = twisted_period(n, Q, m, beta, branch, tol)
    proj = make_proj(n - 2)
    q = -complex(Q) ** (-(n - 1))
    product = quantum_mult_proj(n - 2, q)
    sser = sseries_proj(n - 2, q, SERIES_CAP)
    sol = fundamental_solution(proj, product, sser, -m, branch, tol)
    vec = sol.value @ sigma_transform(proj, beta)
    # not conj(exp_pi_i_theta): at theta_i = 0 that flips the sign of a
    # zero imaginary part
    phases = np.exp(-1j * np.pi * np.diag(proj.theta))
    return lhs, (phases * vec.T).T
