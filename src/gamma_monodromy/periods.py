"""Period vectors of the second structure connection.

The master period at integer level ell is the matrix-valued function

    M_ell(lambda) = sum_k rho^k diag_i( jet_k of lam^{nu+w-1/2}/Gamma(nu+w+1/2)
                                        at nu = theta_i - ell - k )

a finite sum because rho is nilpotent.  Differentiation in lambda shifts
ell up by one exactly, so the level ladder costs nothing numerically.

The full period matrix is the convergent series

    I_ell(lambda) = sum_{k>=0} (-1)^k S_k M_{ell+k}(lambda),   |lambda| large,

whose columns solve dY/dlam = (lam - E*)^{-1} (theta - ell - 1/2) Y.
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
    """Master period matrix at the given integer level and branch of log."""
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


def convergence_radius(product: QuantumProduct) -> float:
    return float(np.max(np.abs(product.eigenvalues())))


def fundamental_solution(space: SpaceModel, product: QuantumProduct,
                         sseries: SSeries, level: int, branch: BranchState,
                         tol: float) -> MatrixSolution:
    """Sum the period series at the point and branch carried by `branch`.

    Requires |lambda| > 1.5 * (largest eigenvalue of E*).  Stops once three
    consecutive terms fall below tol * ||partial sum||; raises if 200 terms
    do not get there.
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
    for k in range(min(len(sseries.mats), SERIES_CAP + 1)):
        term = (-1.0) ** k * sseries.mats[k] @ master_period(space, level + k, branch)
        acc = acc + term
        tnorm = float(np.max(np.abs(term)))
        recent.append(tnorm)
        scale = float(np.max(np.abs(acc)))
        if k >= MIN_TERMS and scale > 0 and tnorm < tol * scale:
            small_run += 1
            if small_run >= CONVERGED_RUN:
                est = sum(recent[-CONVERGED_RUN:])
                return MatrixSolution(space, level, acc, branch,
                                      max(est, 1e-14 * scale))
        else:
            small_run = 0
    raise ConvergenceError(
        "period series did not converge in %d terms at |lambda|=%g"
        % (SERIES_CAP, lam_abs))


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
