"""Small quantum products and calibration series.

The calibration S(z) = 1 + S_1/z + S_2/z^2 + ... is produced from closed
hypergeometric-type formulas for S(z)^{-1} applied to basis classes, then
inverted order by order through the symplectic relation S(z)^{-1} = the
pairing-adjoint of S(-z).

Each series is built as one array of shape (K+1, size, size) whose entry
l multiplies z^-l, and the adjoint is one batched solve over all orders.
`SSeries.mats` is that array, read-only because the caches share it.  The
degree-d product of the closed formula is free of q: its column heads and
their slots are tabulated once per (m or n, K), read-only, by `_proj_table`
and `_twisted_table`.  A call at a fresh q forms each degree's weight, q^d
or (-1)^{dn} Q^{-d(n-1)}, and adds weight * heads in one indexed add.

An `SSeries` is a `numerics.Prefix`: the cached series `sseries_proj` and
`sseries_twisted` are built only as deep as a reader (the period series,
`SSeries.head`) asks, first to 48 matrices and then doubling, up to the
order K the caller named.  A prefix has the same bits whatever order it is
built to: no degree's terms depend on K, K only decides which degrees and
orders are kept, and the batched adjoint treats each matrix on its own.

Conventions: matrices act on column coefficient vectors in the basis order
of the SpaceModel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .cohomology import SpaceModel, make_proj, make_twisted, make_blproj
from .numerics import Prefix, jet_mul


@dataclass(frozen=True, eq=False)
class QuantumProduct:
    """A product as a value, frozen, hashed by identity and read-only."""

    space: SpaceModel
    param: complex                  # q for proj, Q for twisted
    gen_mult: np.ndarray            # generator product: p* or e*
    euler_mult: np.ndarray          # E*: (m+1) p* on proj, -(n-1) e* twisted

    def __post_init__(self):
        self.gen_mult.flags.writeable = self.euler_mult.flags.writeable = False

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.euler_mult)

    @cached_property
    def radius(self) -> float:
        """Largest |eigenvalue| of E*, computed once per product."""
        return float(np.max(np.abs(self.eigenvalues())))

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, V) with E* = V diag(u) V^-1, read-only, once per product."""
        u, vmat = np.linalg.eig(self.euler_mult)
        u.flags.writeable = vmat.flags.writeable = False
        return u, vmat


@lru_cache(maxsize=64)
def quantum_mult_proj(m: int, q: complex) -> QuantumProduct:
    """Small quantum product on H*(P^m): p * p^m = q * 1."""
    space = make_proj(m)
    mat = np.eye(m + 1, k=-1, dtype=complex)
    mat[0, m] = complex(q)
    return QuantumProduct(space, complex(q), mat, (m + 1) * mat)


@lru_cache(maxsize=64)
def quantum_mult_twisted(n: int, Q: complex) -> QuantumProduct:
    """Twisted product on the exceptional state space: e * e^{n-1} =
    (-1)^n Q^{-(n-1)} e."""
    space = make_twisted(n)
    mat = np.eye(n - 1, k=-1, dtype=complex)
    mat[0, -1] = (-1.0) ** n * complex(Q) ** (-(n - 1))
    return QuantumProduct(space, complex(Q), mat, -(n - 1) * mat)


def epsilon_matrix(n: int) -> np.ndarray:
    """The constant matrix with Q^Delta (e*) Q^{-Delta} = Q^{-1} epsilon."""
    eps = np.eye(n - 1, k=-1, dtype=complex)
    eps[0, -1] = (-1.0) ** n
    return eps


class SSeries(Prefix):
    """The matrices S_0 .. S_K, mats[l] multiplying z^-l, read-only and
    built only as deep as read: build(count) gives the first count."""

    def __init__(self, space: SpaceModel, order: int, build):
        super().__init__(build, order + 1)
        self.space = space
        self.order = order

    def head(self, terms: int) -> np.ndarray:
        """The first min(terms, K + 1) matrices, (count, size, size)."""
        return self.read(terms)[:terms]

    @property
    def mats(self) -> np.ndarray:
        """All K + 1 matrices, (K+1, size, size)."""
        return self.head(self.limit)


# ---------------------------------------------------------------------------
# S^{-1} from the closed formulas
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


def _inverse_series(size: int, K: int, table: tuple, weights) -> np.ndarray:
    """Sum the degrees' q-free heads into (K+1, size, size), read-only:
    degree d adds weights[d-1] * heads at its slots of the flattened
    array, then S_0 = 1."""
    inv = np.zeros((K + 1, size, size), dtype=complex)
    flat = inv.reshape(-1)
    for (slots, heads), weight in zip(table, weights):
        flat[slots] += weight * heads
    inv[0] = np.eye(size)
    inv.flags.writeable = False
    return inv


def _table(degrees, K: int) -> tuple:
    """((slots, heads), ..) per degree from (l, heads) pairs: heads[c, a]
    lands at z^-l[c, a], row a, column c, of the flattened series when
    0 < l[c, a] <= K.  Read-only, because the caches share it."""
    out = []
    for l, heads in degrees:
        size = len(heads)
        c, a = np.nonzero((l > 0) & (l <= K))
        slots, kept = (l[c, a] * size + a) * size + c, heads[c, a]
        slots.flags.writeable = kept.flags.writeable = False
        out.append((slots, kept))
    return tuple(out)


@lru_cache(maxsize=64)
def _proj_table(m: int, K: int) -> tuple:
    """The q-free heads of S^{-1} on H*(P^m) to z^-K: the w-coefficients of
    (w - d)^i / prod_{m'=1}^{d} (w - m')^{m+1}, w = p/z, in column i."""
    size = m + 1
    idx = np.arange(size)
    offset = idx[None, :] - idx[:, None]       # a - i at [i, a]
    running = np.zeros(size, dtype=complex)
    running[0] = 1.0
    degrees = []
    d = 1
    while d * (m + 1) <= K + m + 2:
        running = jet_mul(running, _inv_factor(-d, m + 1, size))
        heads = np.array([jet_mul(_poly_pow_shifted(-d, i, size), running)
                          for i in range(size)])
        degrees.append((d * (m + 1) + offset, heads))
        d += 1
    return _table(degrees, K)


def s_inverse_series_proj(m: int, q: complex, K: int) -> np.ndarray:
    """S(q,z)^{-1} on H*(P^m) to order z^-K, (K+1, size, size) with entry
    l multiplying z^-l, read-only; column i is S^{-1} p^i.

    S^{-1} p^i = p^i + sum_{d>=1} q^d (p - d z)^i / prod_{m'=1}^{d}
    (p - m' z)^{n-1} with n - 1 = m + 1; only powers of 1/z survive.
    The heads of every degree come from the q-free `_proj_table`.
    """
    table = _proj_table(m, K)
    weights = []
    qd = 1.0 + 0.0j
    for _ in table:
        qd *= q
        weights.append(qd)
    return _inverse_series(m + 1, K, table, weights)


def _exceptional_running(n: int, K: int, nw: int):
    """Shared d-expansion for the twisted and blowup columns.

    Yields (d, w-coefficients of prod_{m'=1}^{d-1} (e + m' z)^{-(n-1)})
    for every degree d the series to z^-K reads.  Column terms multiply
    it by (e + d z)^{-pole_order}; the w-coefficient at index j-1 then
    multiplies e^j and sits at z^{-l}, l = pole_order + (d-1)(n-1) + j - 1.
    """
    running = np.zeros(nw, dtype=complex)
    running[0] = 1.0
    d = 1
    while d * (n - 1) <= K + n:
        if d > 1:
            running = jet_mul(running, _inv_factor(d - 1, n - 1, nw))
        yield d, running
        d += 1


@lru_cache(maxsize=64)
def _twisted_table(n: int, K: int) -> tuple:
    """The Q-free heads of twS^{-1} to z^-K: degree d holds the
    e-coefficients of e / ((e + d z)^{n-i} prod_{m'=1}^{d-1} (e + m' z)^{n-1}),
    column i - 1."""
    size = n - 1                               # e^1 .. e^{n-1}
    poles = n - np.arange(1, n)                # n - i for column i - 1
    offset = poles[:, None] + np.arange(size)[None, :]
    return _table([((d - 1) * (n - 1) + offset,
                    np.array([jet_mul(running, _inv_factor(d, p, size))
                              for p in poles.tolist()]))
                   for d, running in _exceptional_running(n, K, size)], K)


def s_inverse_series_twisted(n: int, Q: complex, K: int) -> np.ndarray:
    """twS(Q,z)^{-1} on the exceptional state space to order z^-K, read-only
    as in `s_inverse_series_proj`; column i-1 is twS^{-1} e^i,
    1 <= i <= n-1:

    twS^{-1} e^i = e^i + sum_{d>=1} (-1)^{dn} Q^{-d(n-1)}
    e / ((e + d z)^{n-i} prod_{m'=1}^{d-1} (e + m' z)^{n-1}),

    with e acting nilpotently (e^{n} = 0 on the reduced state space).  The
    heads of every degree come from the Q-free `_twisted_table`.
    """
    table = _twisted_table(n, K)
    weights = [(-1.0) ** (d * n) * complex(Q) ** (-d * (n - 1))
               for d in range(1, len(table) + 1)]
    return _inverse_series(n - 1, K, table, weights)


def blowup_unit_terms(n: int, K: int) -> dict[int, np.ndarray]:
    """Per-degree pieces of blS(z)^{-1} 1 restricted to q2 = 0.

    Returns {d: (K+1, size) array, row l the vector at z^-l} on the
    blproj:n basis, so the coefficient of q1^d is attributable degree by
    degree.  The d-th piece is (-1)^{dn} e / ((e + d z)^n prod_{m'=1}^{d-1}
    (e + m' z)^{n-1}) where now e^n folds to (-1)^{n-1} h^n.
    """
    space = make_blproj(n)
    size = space.size
    out: dict[int, np.ndarray] = {}
    out[0] = np.zeros((K + 1, size), dtype=complex)
    out[0][0, space.index("1")] = 1.0
    nw = n  # e-powers 1 .. n survive (power n lands on h^n)
    sign_top = (-1.0) ** (n - 1)
    for d, running in _exceptional_running(n, K, nw):
        g = jet_mul(running, _inv_factor(d, n, nw))
        col = np.zeros((K + 1, size), dtype=complex)
        coef = (-1.0) ** (d * n)
        for jw in range(nw):
            j = jw + 1
            l = n + (d - 1) * (n - 1) + j - 1
            if not 0 < l <= K:
                continue
            if j <= n - 1:
                col[l, space.index("e" if j == 1 else "e^%d" % j)] += coef * g[jw]
            else:
                col[l, space.index("h^%d" % n)] += coef * g[jw] * sign_top
        out[d] = col
    return out


# ---------------------------------------------------------------------------
# matrix series and inversion
# ---------------------------------------------------------------------------

def pairing_adjoint(space: SpaceModel, mat: np.ndarray) -> np.ndarray:
    """Adjoint with respect to the Poincare pairing, G^{-1} M^T G, of one
    matrix or of each matrix in a stack."""
    g = space.pairing
    return np.linalg.solve(g, np.swapaxes(mat, -1, -2) @ g)


def s_from_inverse(space: SpaceModel, inv: np.ndarray) -> np.ndarray:
    """S from the matrices of S^{-1} via S(z) = adjoint of S^{-1}(-z),
    read-only because the caches below hand one array to every caller."""
    mats = pairing_adjoint(space, inv)
    mats[1::2] *= -1.0
    mats.flags.writeable = False
    return mats


@lru_cache(maxsize=64)
def sseries_proj(m: int, q: complex, K: int) -> SSeries:
    """S on H*(P^m) to order z^-K, built only as deep as read."""
    space = make_proj(m)
    return SSeries(space, K, lambda count: s_from_inverse(
        space, s_inverse_series_proj(m, q, count - 1)))


@lru_cache(maxsize=64)
def sseries_twisted(n: int, Q: complex, K: int) -> SSeries:
    """twS on the exceptional state space to order z^-K, built only as
    deep as read."""
    space = make_twisted(n)
    return SSeries(space, K, lambda count: s_from_inverse(
        space, s_inverse_series_twisted(n, Q, count - 1)))


def symplectic_residual(s: SSeries) -> float:
    """Max deviation of sum_{a+b=l} (-1)^b S_a adj(S_b) from delta_{l,0} Id."""
    space = s.space
    eye = np.eye(space.size)
    worst = 0.0
    adj = pairing_adjoint(space, s.mats)
    for l in range(len(s.mats)):
        acc = np.zeros((space.size, space.size), dtype=complex)
        for a in range(l + 1):
            acc += (-1.0) ** (l - a) * (s.mats[a] @ adj[l - a])
        if l == 0:
            acc -= eye
        worst = max(worst, float(np.max(np.abs(acc))))
    return worst
