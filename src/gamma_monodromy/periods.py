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
With g(nu, w) = lam^{nu+w-1/2}/Gamma(nu+w+1/2), consecutive levels obey

    g(nu - 1, w) = (nu - 1/2 + w) g(nu, w) / lam,

a product with a linear jet.  So each call fills one jet chain,
G[t, i] = jet of g at nu = theta_i - ell - t: the first D rows (D the
nilpotency depth of rho) from Gamma, every deeper row in place from the
row above by the recurrence, vectorised over i, with 1/lam = exp(-log lam)
on the carried branch.  Term k reads M_{ell+k} = sum_j rho^j
diag_i(G[k + j, i, j]), a diagonal of the chain.

The terms are formed _BLOCK at a time: one einsum of the diagonals
against the cached powers of rho gives the block's masters, one batched
matmul against S_k and the alternating sign give its terms, and a
cumulative sum seeded with the running total gives its partial sums.  The
stopping rule then reads the block's term norms and partial-sum scales
one term at a time, so the sum stops at the same term, and holds the same
value, as a term-by-term loop.  `master_period` stays the direct
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cohomology import SpaceModel, make_proj, make_twisted
from .numerics import (BranchState, NumericsError, branch_power, jet_mul,
                       recip_gamma_jet)
from .quantum import (QuantumProduct, SSeries, quantum_mult_proj,
                      quantum_mult_twisted, sseries_proj, sseries_twisted)

SERIES_CAP = 200
CONVERGED_RUN = 3
MIN_TERMS = 8
GUARD_FACTOR = 1.5
_BLOCK = 8           # period-series terms formed per batch


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


def _log_pow_jet(branch: BranchState, nu: complex, order: int) -> np.ndarray:
    """Jet of lam^{nu+w-1/2} in w: lam^{nu-1/2} * (log lam)^t / t!."""
    out = np.zeros(order + 1, dtype=complex)
    out[0] = branch_power(branch, nu - 0.5)
    for t in range(1, order + 1):
        out[t] = out[t - 1] * branch.log_value / t
    return out


def master_period(space: SpaceModel, level: int, branch: BranchState) -> np.ndarray:
    """Master period matrix at the given integer level and branch of log,
    evaluated directly from Gamma jets (the oracle for `_JetChain`)."""
    depth = space.depth
    order = depth - 1
    size = space.size
    theta = np.diag(space.theta)
    acc = np.zeros((size, size), dtype=complex)
    rho_pow = np.eye(size, dtype=complex)
    for k in range(depth):
        diag = np.zeros(size, dtype=complex)
        for i in range(size):
            nu = theta[i] - level - k
            jet = jet_mul(_log_pow_jet(branch, nu, order),
                          _rg_jet_coeffs(nu + 0.5, order))
            diag[i] = jet[k]
        acc = acc + rho_pow @ np.diag(diag)
        rho_pow = space.rho @ rho_pow
    return acc


class _JetChain:
    """Row t holds the jets G[t, i] of g(nu, w) at nu = theta_i - level - t,
    in one preallocated (n_terms + depth - 1, size, depth) array.

    Rows t < depth come from Gamma jets; each deeper row is made from the
    one above it by the recurrence, when a block of masters first needs
    it.  The diagonals G[k + j, i, j] that M_{level+k} reads are one
    strided view of the chain.
    """

    def __init__(self, space: SpaceModel, level: int, branch: BranchState,
                 n_terms: int):
        depth = space.depth
        order = depth - 1
        self.theta = np.diag(space.theta)
        self.rho_powers = space.rho_powers
        self.level = level
        self.inv_lam = branch_power(branch, -1.0)
        self.chain = np.empty((n_terms + order, space.size, depth),
                              dtype=complex)
        for t in range(depth):
            for i, th in enumerate(self.theta):
                nu = th - level - t
                self.chain[t, i] = jet_mul(_log_pow_jet(branch, nu, order),
                                           _rg_jet_coeffs(nu + 0.5, order))
        self.filled = depth
        s0, s1, s2 = self.chain.strides
        self.diagonals = np.lib.stride_tricks.as_strided(
            self.chain, (n_terms, space.size, depth), (s0, s1, s0 + s2),
            writeable=False)

    def masters(self, start: int, stop: int) -> np.ndarray:
        """M_{level+k} for k = start .. stop-1, as one (stop - start, size,
        size) array: M = sum_j rho^j diag_i(G[k + j, i, j])."""
        chain = self.chain
        rows = np.arange(self.filled, stop + chain.shape[2] - 1)
        # g(nu - 1) = (nu - 1/2 + w) g(nu) / lam, with nu that of row t - 1
        shifts = self.theta - self.level - (rows - 1)[:, None] - 0.5
        for t, a in zip(rows.tolist(), shifts[:, :, None]):
            last, nxt = chain[t - 1], chain[t]
            np.multiply(a, last, out=nxt)
            nxt[:, 1:] += last[:, :-1]
            np.multiply(self.inv_lam, nxt, out=nxt)
        self.filled += len(rows)
        return np.einsum("jac,kcj->kac", self.rho_powers,
                         self.diagonals[start:stop])


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
    chain = _JetChain(space, level, branch, n_terms)
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
    phases = np.exp(1j * np.pi * np.diag(space.theta))
    return (phases * np.asarray(v, dtype=complex).T).T


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
    phases = np.exp(-1j * np.pi * np.diag(proj.theta))
    return lhs, (phases * vec.T).T
