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

a product with a linear jet.  So the series carries one complex block of
jets, G[i, s] = jet of g at nu = theta_i - ell - s for s = 0 .. D-1
(D the nilpotency depth of rho), built from Gamma once per call.  Each
term reads M_ell = sum_k rho^k diag_i(G[i, k, k]) against the cached
powers of rho, then drops the s = 0 jets and appends the next deeper ones
by the recurrence, vectorised over i, with 1/lam = exp(-log lam) on the
carried branch.  `master_period` stays the direct evaluation.
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
def _rg_jet_coeffs(nu_half: complex, order: int) -> tuple:
    return tuple(recip_gamma_jet(nu_half, order))


def _log_pow_jet(branch: BranchState, nu: complex, order: int) -> np.ndarray:
    """Jet of lam^{nu+w-1/2} in w: lam^{nu-1/2} * (log lam)^t / t!."""
    out = np.zeros(order + 1, dtype=complex)
    out[0] = branch_power(branch, nu - 0.5)
    for t in range(1, order + 1):
        out[t] = out[t - 1] * branch.log_value / t
    return out


def master_period(space: SpaceModel, level: int, branch: BranchState) -> np.ndarray:
    """Master period matrix at the given integer level and branch of log,
    evaluated directly from Gamma jets (the oracle for `_LevelLadder`)."""
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
                          np.asarray(_rg_jet_coeffs(nu + 0.5, order)))
            diag[i] = jet[k]
        acc = acc + rho_pow @ np.diag(diag)
        rho_pow = space.rho @ rho_pow
    return acc


class _LevelLadder:
    """The jets of g(nu, w) at nu = theta_i - level - s, s = 0 .. depth-1,
    as one (size, depth, depth) array that moves up one level at a time by
    the recurrence."""

    def __init__(self, space: SpaceModel, level: int, branch: BranchState):
        depth = space.depth
        order = depth - 1
        self.theta = np.diag(space.theta)
        self.rho_powers = space.rho_powers
        self.level = level
        self.inv_lam = branch_power(branch, -1.0)
        self.jets = np.empty((space.size, depth, depth), dtype=complex)
        for i, th in enumerate(self.theta):
            for s in range(depth):
                nu = th - level - s
                self.jets[i, s] = jet_mul(
                    _log_pow_jet(branch, nu, order),
                    np.asarray(_rg_jet_coeffs(nu + 0.5, order)))

    def master(self) -> np.ndarray:
        """M_level = sum_k rho^k diag_i(G[i, k, k])."""
        diag = np.diagonal(self.jets, axis1=1, axis2=2)
        return np.einsum("kab,bk->ab", self.rho_powers, diag)

    def step(self) -> None:
        """Move to level + 1: drop s = 0 and append the jet at the deepest
        nu - 1 as (nu - 1/2 + w) g(nu) / lam."""
        depth = self.jets.shape[1]
        last = self.jets[:, -1]
        a = self.theta - self.level - (depth - 1) - 0.5
        nxt = a[:, None] * last
        nxt[:, 1:] += last[:, :-1]
        self.jets[:, :-1] = self.jets[:, 1:]
        self.jets[:, -1] = self.inv_lam * nxt
        self.level += 1


def convergence_radius(product: QuantumProduct) -> float:
    return float(np.max(np.abs(product.eigenvalues())))


def fundamental_solution(space: SpaceModel, product: QuantumProduct,
                         sseries: SSeries, level: int, branch: BranchState,
                         tol: float) -> MatrixSolution:
    """Sum the period series at the point and branch carried by `branch`.

    Requires |lambda| > 1.5 * (largest eigenvalue of E*).  Stops once three
    consecutive terms fall below tol * ||partial sum||; raises if the terms
    available (the S-series length, at most SERIES_CAP + 1) do not get
    there.  The master periods M_{level+k} come from one level ladder.
    """
    lam_abs = abs(branch.base)
    radius = convergence_radius(product)
    if lam_abs <= GUARD_FACTOR * radius:
        raise ValueError(
            "base point inside the guarded radius: |lambda|=%g <= %g"
            % (lam_abs, GUARD_FACTOR * radius))
    acc = np.zeros((space.size, space.size), dtype=complex)
    small_run = 0
    recent: list[float] = []
    ladder = _LevelLadder(space, level, branch)
    n_terms = min(len(sseries.mats), SERIES_CAP + 1)
    for k in range(n_terms):
        if k:
            ladder.step()
        term = (-1.0) ** k * sseries.mats[k] @ ladder.master()
        acc = acc + term
        tnorm = float(np.max(np.abs(term)))
        recent.append(tnorm)
        scale = float(np.max(np.abs(acc)))
        if k >= MIN_TERMS and scale > 0 and tnorm < tol * scale:
            small_run += 1
            if small_run >= CONVERGED_RUN:
                est = sum(recent[-CONVERGED_RUN:])
                return MatrixSolution(space, level, acc, branch,
                                      max(est, 1e-14 * scale), k + 1)
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
