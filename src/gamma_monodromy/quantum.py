"""Small quantum products and calibration series.

The calibration S(z) = 1 + S_1/z + S_2/z^2 + ... is produced from closed
hypergeometric-type formulas for S(z)^{-1} applied to basis classes, then
inverted order by order through the symplectic relation S(z)^{-1} = the
pairing-adjoint of S(-z).

Conventions: matrices act on column coefficient vectors in the basis order
of the SpaceModel.  All z-expansions are stored as lists indexed by the
power of 1/z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .cohomology import SpaceModel, make_proj, make_twisted, make_blproj
from .numerics import jet_mul


@dataclass
class QuantumProduct:
    space: SpaceModel
    param: complex                  # q for proj, Q for twisted
    gen_mult: np.ndarray            # generator product: p* or e*
    euler_mult: np.ndarray          # E*: (m+1) p* on proj, -(n-1) e* twisted

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.euler_mult)


def quantum_mult_proj(m: int, q: complex) -> QuantumProduct:
    """Small quantum product on H*(P^m): p * p^m = q * 1."""
    space = make_proj(m)
    size = m + 1
    mat = np.zeros((size, size), dtype=complex)
    for i in range(m):
        mat[i + 1, i] = 1.0
    mat[0, m] = complex(q)
    return QuantumProduct(space, complex(q), mat, (m + 1) * mat)


def quantum_mult_twisted(n: int, Q: complex) -> QuantumProduct:
    """Twisted product on the exceptional state space: e * e^{n-1} =
    (-1)^n Q^{-(n-1)} e."""
    space = make_twisted(n)
    size = n - 1
    mat = np.zeros((size, size), dtype=complex)
    for a in range(size - 1):
        mat[a + 1, a] = 1.0
    mat[0, size - 1] = (-1.0) ** n * complex(Q) ** (-(n - 1))
    return QuantumProduct(space, complex(Q), mat, -(n - 1) * mat)


def epsilon_matrix(n: int) -> np.ndarray:
    """The constant matrix with Q^Delta (e*) Q^{-Delta} = Q^{-1} epsilon."""
    size = n - 1
    eps = np.zeros((size, size), dtype=complex)
    for a in range(size - 1):
        eps[a + 1, a] = 1.0
    eps[0, size - 1] = (-1.0) ** n
    return eps


# ---------------------------------------------------------------------------
# S^{-1} columns from the closed formulas
# ---------------------------------------------------------------------------

def _inv_factor(c: complex, k: int, nterms: int) -> np.ndarray:
    """Power series of (w + c)^{-k} in w, truncated to nterms coefficients."""
    if c == 0:
        raise ZeroDivisionError("expansion center on top of a root")
    out = np.zeros(nterms, dtype=complex)
    base = complex(c) ** (-k)
    for j in range(nterms):
        out[j] = base * comb(k - 1 + j, j) * (-1.0) ** j
        base /= c
    return out


def _poly_pow_shifted(shift: complex, i: int, nterms: int) -> np.ndarray:
    """Coefficients of (w + shift)^i, truncated."""
    out = np.zeros(nterms, dtype=complex)
    for j in range(min(i, nterms - 1) + 1):
        out[j] = comb(i, j) * complex(shift) ** (i - j)
    return out


def s_inverse_proj(m: int, q: complex, i: int, K: int) -> list[np.ndarray]:
    """Coefficient vectors of z^0, z^-1, .., z^-K in S(q,z)^{-1} p^i.

    S^{-1} p^i = p^i + sum_{d>=1} q^d (p - d z)^i / prod_{m'=1}^{d}
    (p - m' z)^{n-1} with n - 1 = m + 1; only powers of 1/z survive.
    """
    if not 0 <= i <= m:
        raise ValueError("column index out of range")
    size = m + 1
    out = [np.zeros(size, dtype=complex) for _ in range(K + 1)]
    out[0][i] = 1.0
    nw = size  # w = p/z is nilpotent of order m+1
    running = np.zeros(nw, dtype=complex)
    running[0] = 1.0
    qd = 1.0 + 0.0j
    d = 1
    while d * (m + 1) <= K + m + 2:
        running = jet_mul(running, _inv_factor(-d, m + 1, nw))
        qd *= q
        head = jet_mul(_poly_pow_shifted(-d, i, nw), running)
        for a in range(size):
            l = d * (m + 1) + a - i
            if 0 < l <= K:
                out[l][a] += qd * head[a]
        d += 1
    return out


def _exceptional_column_terms(n: int, pole_order: int, K: int,
                              nw: int) -> dict[tuple[int, int], np.ndarray]:
    """Shared d-expansion for the twisted and blowup columns.

    Returns {d: w-coefficients of the degree-d factor} for the series
    e * (e + d z)^{-pole_order} * prod_{m'=1}^{d-1} (e + m' z)^{-(n-1)},
    where the w-coefficient at index j-1 multiplies e^j and sits at z^{-l},
    l = pole_order + (d-1)(n-1) + j - 1.
    """
    out: dict[tuple[int, int], np.ndarray] = {}
    running = np.zeros(nw, dtype=complex)
    running[0] = 1.0
    d = 1
    while d * (n - 1) <= K + n:
        if d > 1:
            running = jet_mul(running, _inv_factor(d - 1, n - 1, nw))
        g = jet_mul(running, _inv_factor(d, pole_order, nw))
        out[d] = g
        d += 1
    return out


def s_inverse_twisted(n: int, Q: complex, i: int, K: int) -> list[np.ndarray]:
    """Coefficient vectors of z^0 .. z^-K in twS(Q,z)^{-1} e^i, 1 <= i <= n-1.

    twS^{-1} e^i = e^i + sum_{d>=1} (-1)^{dn} Q^{-d(n-1)}
    e / ((e + d z)^{n-i} prod_{m'=1}^{d-1} (e + m' z)^{n-1}),
    with e acting nilpotently (e^{n} = 0 on the reduced state space).
    """
    if not 1 <= i <= n - 1:
        raise ValueError("column index out of range")
    size = n - 1
    out = [np.zeros(size, dtype=complex) for _ in range(K + 1)]
    out[0][i - 1] = 1.0
    nw = size  # e-powers 1 .. n-1 come from w-powers 0 .. n-2
    terms = _exceptional_column_terms(n, n - i, K, nw)
    for d, g in terms.items():
        coef = (-1.0) ** (d * n) * complex(Q) ** (-d * (n - 1))
        for jw in range(nw):
            j = jw + 1  # e-power
            l = (n - i) + (d - 1) * (n - 1) + j - 1
            if 0 < l <= K:
                out[l][j - 1] += coef * g[jw]
    return out


def blowup_unit_terms(n: int, K: int) -> dict[int, list[np.ndarray]]:
    """Per-degree pieces of blS(z)^{-1} 1 restricted to q2 = 0.

    Returns {d: [vector at z^-l for l=0..K]} on the blproj:n basis, so the
    coefficient of q1^d is attributable degree by degree.  The d-th piece is
    (-1)^{dn} e / ((e + d z)^n prod_{m'=1}^{d-1} (e + m' z)^{n-1}) where now
    e^n folds to (-1)^{n-1} h^n.
    """
    space = make_blproj(n)
    size = space.size
    out: dict[int, list[np.ndarray]] = {}
    zero = [np.zeros(size, dtype=complex) for _ in range(K + 1)]
    unit_col = [v.copy() for v in zero]
    unit_col[0][space.index("1")] = 1.0
    out[0] = unit_col
    nw = n  # e-powers 1 .. n survive (power n lands on h^n)
    sign_top = (-1.0) ** (n - 1)
    terms = _exceptional_column_terms(n, n, K, nw)
    for d, g in terms.items():
        col = [v.copy() for v in zero]
        coef = (-1.0) ** (d * n)
        for jw in range(nw):
            j = jw + 1
            l = n + (d - 1) * (n - 1) + j - 1
            if not 0 < l <= K:
                continue
            if j <= n - 1:
                col[l][space.index("e" if j == 1 else "e^%d" % j)] += coef * g[jw]
            else:
                col[l][space.index("h^%d" % n)] += coef * g[jw] * sign_top
        out[d] = col
    return out


# ---------------------------------------------------------------------------
# matrix series and inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SSeries:
    space: SpaceModel
    param: complex
    mats: tuple[np.ndarray, ...]  # mats[l] multiplies z^-l

    @property
    def order(self) -> int:
        return len(self.mats) - 1


def pairing_adjoint(space: SpaceModel, mat: np.ndarray) -> np.ndarray:
    """Adjoint with respect to the Poincare pairing: G^{-1} M^T G."""
    g = space.pairing
    return np.linalg.solve(g, mat.T @ g)


def s_from_inverse(sinv: SSeries) -> SSeries:
    """Recover S from S^{-1} via S(z) = adjoint of S^{-1}(-z), read-only
    because the caches below hand one object to every caller."""
    mats = tuple((-1.0) ** l * pairing_adjoint(sinv.space, a)
                 for l, a in enumerate(sinv.mats))
    for mat in mats:
        mat.flags.writeable = False
    return SSeries(sinv.space, sinv.param, mats)


def s_inverse_series_proj(m: int, q: complex, K: int) -> SSeries:
    space = make_proj(m)
    cols = [s_inverse_proj(m, q, i, K) for i in range(m + 1)]
    mats = tuple(np.column_stack([cols[i][l] for i in range(m + 1)])
                 for l in range(K + 1))
    return SSeries(space, complex(q), mats)


def s_inverse_series_twisted(n: int, Q: complex, K: int) -> SSeries:
    space = make_twisted(n)
    cols = [s_inverse_twisted(n, Q, i, K) for i in range(1, n)]
    mats = tuple(np.column_stack([cols[i][l] for i in range(n - 1)])
                 for l in range(K + 1))
    return SSeries(space, complex(Q), mats)


@lru_cache(maxsize=64)
def sseries_proj(m: int, q: complex, K: int) -> SSeries:
    return s_from_inverse(s_inverse_series_proj(m, q, K))


@lru_cache(maxsize=64)
def sseries_twisted(n: int, Q: complex, K: int) -> SSeries:
    return s_from_inverse(s_inverse_series_twisted(n, Q, K))


def symplectic_residual(s: SSeries) -> float:
    """Max deviation of sum_{a+b=l} (-1)^b S_a adj(S_b) from delta_{l,0} Id."""
    space = s.space
    eye = np.eye(space.size)
    worst = 0.0
    adj = [pairing_adjoint(space, mat) for mat in s.mats]
    for l in range(len(s.mats)):
        acc = np.zeros((space.size, space.size), dtype=complex)
        for a in range(l + 1):
            acc += (-1.0) ** (l - a) * (s.mats[a] @ adj[l - a])
        if l == 0:
            acc -= eye
        worst = max(worst, float(np.max(np.abs(acc))))
    return worst
