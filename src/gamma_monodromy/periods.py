"""Period vectors of the second structure connection.

The master period at integer level ell is the matrix-valued function

    M_ell(lambda) = sum_j rho^j diag_i( jet_j of lam^{nu+w-1/2}/Gamma(nu+w+1/2)
                                        at nu = theta_i - ell - j )

a finite sum because rho is nilpotent.  Differentiation in lambda shifts
ell up by one exactly.

The full period matrix is the convergent series

    I_ell(lambda) = sum_{k>=0} (-1)^k S_k M_{ell+k}(lambda),   |lambda| large,

whose columns solve dY/dlam = (lam - E*)^{-1} (theta - ell - 1/2) Y.

`fundamental_solution` sums it on models in shift form, the proj and
twisted ones: theta_c = theta_0 - c, and rho is nonzero only at (c + 1, c),
so rho^j only at (c + j, c).  Entry (a, c) of M_{ell+k} is then

    rho^{a-c}[a, c] * g(a + k, a - c),   g(s, .) = lam^{x0-1-s} (R_s * E),

a jet product with E_e = (log lam)^e / e!, where R_s is the jet of
1/Gamma(x0 - s + w) and x0 = theta_0 - ell + 1/2.  So every master of the
series reads one 1-D chain R_0, R_1, .., real and free of lambda.  The
chain is cached per (x0, D), D the nilpotency depth of rho, and the number
of rows a model can read.  `recip_gamma_jet` gives R_0; every later R_s
comes from the one before by the exact linear-jet recurrence

    1/Gamma(x - 1 + w) = (x - 1 + w) / Gamma(x + w).

Rows grow like |x|!, so each is kept as a float64 mantissa times a power
of two whose exponent joins the power of lambda; a row moves into its
exponent once a running bound on it passes 2^512.  The chain is a
`numerics.Prefix` of read-only arrays: 48 rows first, then doubling when a
block reads further.

The terms are formed a block at a time.  A block takes one exponential
over s for the powers of lambda, one (s, D) @ (D, D) product with the jet
E, one gather of its masters with the sign folded in exactly as
(-1)^k = (-1)^s (-1)^a, one batched matmul against S_k, a cumulative sum
seeded with the running total for its partial sums, and one |.|-max pass
over the terms and the partial sums together.  The stopping rule then
reads the norms one term at a time, so the sum stops at the same term,
and holds the same value, as a term-by-term loop, whatever the blocks'
lengths.  The first block is sized from tol and the rate radius/|lambda|
at which the terms fall, up to the first build of the S-series and of the
chain, so most series take one block; each later one takes _BLOCK terms.
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
_BLOCK = 24          # period-series terms in each block after the first
_LEAD = 4            # terms the first block adds to its estimate
_ROW_EXP = 512       # a chain row past 2^_ROW_EXP moves into its exponent


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


def _chain_rows(x0: float, depth: int, count: int) -> tuple:
    """The chain's first count rows as read-only arrays (rows, nu, shift):

        rows[s] = (-1)^s R_s / 2^exps[s],   nu[s] = x0 - 1 - s,
        shift[s] = exps[s] * log 2,

    R_s the jet of 1/Gamma(x0 - s + w) to order depth - 1, so that
    g(s, .) = exp(nu[s] log lam + shift[s]) (rows[s] * E) up to the sign."""
    rows = np.empty((count, depth))
    rows[0] = recip_gamma_jet(x0, depth - 1).real
    exps = np.zeros(count)
    exp = 0
    bound = float(np.max(np.abs(rows[0])))     # >= max |rows[s]|
    for s in range(count):
        if s:
            # 1/Gamma(x - 1 + w) = (x - 1 + w) / Gamma(x + w), x - 1 of row s
            np.multiply(rows[s - 1], x0 - s, out=rows[s])
            rows[s, 1:] += rows[s - 1, :-1]
            bound *= abs(x0 - s) + 1.0
        if bound > 2.0 ** (_ROW_EXP - 1):
            top = int(np.frexp(np.max(np.abs(rows[s])))[1])
            if top > _ROW_EXP:
                rows[s] = np.ldexp(rows[s], -top)
                exp += top
            bound = float(np.max(np.abs(rows[s])))
        exps[s] = exp
    rows[1::2] *= -1.0
    nu = x0 - 1.0 - np.arange(count)
    shift = exps * math.log(2.0)
    for arr in (rows, nu, shift):
        arr.flags.writeable = False
    return rows, nu, shift


@lru_cache(maxsize=64)
def _chain(x0: float, depth: int, length: int) -> Prefix:
    """The chain at (x0, depth), (rows, nu, shift) of `_chain_rows`, built
    as deep as read up to length rows."""
    return Prefix(partial(_chain_rows, x0, depth), length)


@lru_cache(maxsize=64)
def _shift_form(space: SpaceModel) -> tuple:
    """(theta_0, coef, gather, toeplitz) of a model in shift form, read-only:
    entry (a, c) of the signed master (-1)^k M_{ell+k} is coef[a, c] times
    the entry of h[s] = (-1)^s g(s, .) at flat index gather[k, a, c], that
    is h[k + a, a - c], for k up to SERIES_CAP; and E[toeplitz], E with a
    zero appended, is the matrix of the jet product with E.  Raises
    ValueError for any other model."""
    size, depth = space.size, space.depth
    theta = np.diag(space.theta)
    a, c = np.indices((size, size))
    if (np.any(theta != theta[0] - np.arange(size))
            or np.any(space.rho[a != c + 1] != 0)):
        raise ValueError("period series needs theta_c = theta_0 - c and rho "
                         "only at (c + 1, c); %s:%d is not in that form"
                         % (space.kind, space.param))
    lag = np.clip(a - c, 0, depth - 1)
    coef = np.where(a - c == lag,
                    (-1.0) ** a * space.rho_powers[lag, a, c], 0.0)
    gather = (depth * (np.arange(SERIES_CAP + 1)[:, None, None] + a)
              + lag).astype(np.int32)
    f, e = np.indices((depth, depth))
    toeplitz = np.where(e >= f, e - f, depth)
    for arr in (coef, gather, toeplitz):
        arr.flags.writeable = False
    return theta[0].real, coef, gather, toeplitz


def _signed_masters(space: SpaceModel, level: int, branch: BranchState,
                    start: int, stop: int) -> np.ndarray:
    """(-1)^k M_{level+k} at the point and branch of `branch` for k = start
    .. stop-1, as one (stop - start, size, size) array read off the chain."""
    theta0, coef, gather, toeplitz = _shift_form(space)
    size, depth = space.size, space.depth
    rows, nu, shift = _chain(theta0 - level + 0.5, depth,
                             SERIES_CAP + size).read(stop + size - 1)
    jet = [1.0 + 0.0j]
    for d in range(1, depth):
        jet.append(jet[-1] * branch.log_value / d)     # (log lam)^d / d!
    s = slice(start, stop + size - 1)
    h = rows[s] @ np.array(jet + [0.0])[toeplitz]
    h *= np.exp(nu[s] * branch.log_value + shift[s])[:, None]
    return np.take(h, gather[:stop - start]) * coef


def _first_block(tol: float, rate: float, size: int) -> int:
    """Terms in the first block: where rate^k falls below tol, plus _LEAD,
    or _BLOCK when tol or rate gives no estimate; never so many that the
    block reads past the first build of the S-series or of the chain, which
    a series that stops early would not need."""
    if not (0.0 < tol < 1.0 and 0.0 < rate < 1.0):
        return _BLOCK
    guess = max(math.ceil(math.log(tol) / math.log(rate)) + _LEAD,
                MIN_TERMS + CONVERGED_RUN)
    return min(guess, Prefix.FIRST - size + 1)


def fundamental_solution(space: SpaceModel, product: QuantumProduct,
                         sseries: SSeries, level: int, branch: BranchState,
                         tol: float) -> MatrixSolution:
    """Sum the period series at the point and branch carried by `branch`.

    Requires |lambda| > 1.5 * (largest eigenvalue of E*) and a model in
    shift form (ValueError otherwise).  Stops once three consecutive terms
    fall below tol * ||partial sum||; raises if the terms available (the
    S-series length, at most SERIES_CAP + 1) do not get there.  The terms
    are formed in blocks from one jet chain, each block reading only the
    S-matrices it needs, and the stopping rule reads them one by one.
    """
    lam_abs = abs(branch.base)
    if lam_abs <= GUARD_FACTOR * product.radius:
        raise ValueError(
            "base point inside the guarded radius: |lambda|=%g <= %g"
            % (lam_abs, GUARD_FACTOR * product.radius))
    n_terms = min(sseries.order + 1, SERIES_CAP + 1)
    size = space.size
    acc = np.zeros((size, size), dtype=complex)
    small_run = 0
    recent: list[float] = []
    rate = product.radius / lam_abs
    start, stop = 0, min(_first_block(tol, rate, size), n_terms)
    while start < n_terms:
        masters = _signed_masters(space, level, branch, start, stop)
        both = np.empty((2, stop - start, size, size), dtype=complex)
        np.matmul(sseries.head(stop)[start:], masters, out=both[0])
        both[1] = both[0]
        both[1, 0] += acc
        np.cumsum(both[1], axis=0, out=both[1])
        tnorms, scales = np.max(np.abs(both), axis=(2, 3)).tolist()
        acc = both[1, -1]
        for k, tnorm, scale in zip(range(start, stop), tnorms, scales):
            recent.append(tnorm)
            if k >= MIN_TERMS and scale > 0 and tnorm < tol * scale:
                small_run += 1
                if small_run >= CONVERGED_RUN:
                    est = sum(recent[-CONVERGED_RUN:])
                    return MatrixSolution(space, level, both[1, k - start],
                                          branch, max(est, 1e-14 * scale),
                                          k + 1)
            else:
                small_run = 0
        start, stop = stop, min(stop + _BLOCK, n_terms)
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
