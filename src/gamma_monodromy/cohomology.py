"""Graded ring models of the cohomology spaces, the Gamma class, Chern
characters, and the Euler-type pairings built from them.

Three models are supported:

- proj:m      H*(P^m) = C[p]/(p^{m+1}), basis 1, p, .., p^m
- twisted:n   the reduced cohomology of P^{n-1} with its nilpotent product,
              basis e, e^2, .., e^{n-1}; this is the state space of the
              twisted theory supported on an exceptional divisor
- blproj:n    H*(Bl_pt P^n), basis 1, h, .., h^n, e, .., e^{n-1}, where h is
              the hyperplane pullback and e the exceptional class, with
              h*e = 0 and e^n = (-1)^{n-1} h^n

theta is always diag(dim/2 - deg) and rho is cup product with the first
Chern class of the tangent bundle (its classical, parameter-free part).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import LOG_GAMMA_1P, jet_recip

TWO_PI_I = 2j * math.pi


class SpaceMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class SpaceModel:
    """A ring model as a value: frozen, hashed by identity and with every
    array read-only, so that caches can share it."""

    kind: str
    param: int
    basis: tuple[str, ...]
    degrees: np.ndarray
    dim: int
    cup: np.ndarray        # cup[i, j, :] = coefficients of basis_i * basis_j
    pairing: np.ndarray
    rho: np.ndarray
    delta: np.ndarray | None = None
    _unit: int | None = field(default=0, repr=False)
    # set by __post_init__: theta = diag(dim/2 - deg), the smallest D with
    # rho^D = 0, rho^0 .. rho^(D-1) and the factors of euler_pairing
    theta: np.ndarray = field(init=False, repr=False)
    depth: int = field(init=False)
    rho_powers: np.ndarray = field(init=False, repr=False)
    exp_pi_i_theta: np.ndarray = field(init=False, repr=False)
    exp_pi_i_rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        put = functools.partial(object.__setattr__, self)
        put("basis", tuple(self.basis))
        put("theta", np.diag(self.dim / 2.0 - self.degrees).astype(complex))
        put("exp_pi_i_theta", np.exp(1j * math.pi * np.diag(self.theta)))
        put("exp_pi_i_rho", _exp_pi_i_rho(self))
        pows = [np.eye(self.size, dtype=complex)]
        while np.max(np.abs(pows[-1])) != 0.0:
            if len(pows) > self.size + 2:
                raise ValueError("matrix is not nilpotent")
            pows.append(self.rho @ pows[-1])
        put("depth", len(pows) - 1)
        put("rho_powers", np.array(pows[:-1]))
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.basis)

    def index(self, label: str) -> int:
        return self.basis.index(label)

    def basis_vector(self, label: str) -> np.ndarray:
        v = np.zeros(self.size, dtype=complex)
        v[self.index(label)] = 1.0
        return v

    def unit(self) -> np.ndarray:
        if self._unit is None:
            raise SpaceMismatchError("space %s has no unit" % self.kind)
        v = np.zeros(self.size, dtype=complex)
        v[self._unit] = 1.0
        return v

    def cup_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", a, b, self.cup)

    def pair(self, a: np.ndarray, b: np.ndarray) -> complex:
        return complex(a @ self.pairing @ b)

    def integral(self, v: np.ndarray) -> complex:
        return self.pair(v, self.unit())


def _mult_matrix(cup: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("i,ijk->kj", v, cup)


@functools.lru_cache(maxsize=None)
def make_proj(m: int) -> SpaceModel:
    if not 1 <= m <= 8:
        raise ValueError("proj dimension out of range [1, 8]")
    size = m + 1
    basis = ["1"] + ["p" if i == 1 else "p^%d" % i for i in range(1, size)]
    degrees = np.arange(size)
    cup = np.zeros((size, size, size))
    for i in range(size):
        for j in range(size):
            if i + j < size:
                cup[i, j, i + j] = 1.0
    pairing = np.zeros((size, size))
    for i in range(size):
        pairing[i, m - i] = 1.0
    rho = (m + 1) * _mult_matrix(cup, np.eye(size, dtype=complex)[1])
    return SpaceModel("proj", m, basis, degrees, m, cup, pairing, rho)


@functools.lru_cache(maxsize=None)
def make_twisted(n: int) -> SpaceModel:
    if not 2 <= n <= 8:
        raise ValueError("twisted parameter out of range [2, 8]")
    size = n - 1
    basis = ["e" if k == 1 else "e^%d" % k for k in range(1, n)]
    degrees = np.arange(1, n)
    cup = np.zeros((size, size, size))
    for a in range(size):
        for b in range(size):
            k = (a + 1) + (b + 1)
            if k <= n - 1:
                cup[a, b, k - 1] = 1.0
    sign = (-1.0) ** (n - 1)
    pairing = np.zeros((size, size))
    for a in range(size):
        b = n - (a + 1)
        if 1 <= b <= n - 1:
            pairing[a, b - 1] = sign
    # classical part of the twisted Euler pairing field: -(n-1) e cup
    rho = -(n - 1) * _mult_matrix(cup, np.eye(size, dtype=complex)[0])
    return SpaceModel("twisted", n, basis, degrees, n, cup, pairing, rho,
                      delta=np.diag(-degrees.astype(float)), _unit=None)


@functools.lru_cache(maxsize=None)
def make_blproj(n: int) -> SpaceModel:
    if not 2 <= n <= 8:
        raise ValueError("blproj parameter out of range [2, 8]")
    size = 2 * n
    basis = ["1"] + ["h" if i == 1 else "h^%d" % i for i in range(1, n + 1)]
    basis += ["e" if k == 1 else "e^%d" % k for k in range(1, n)]
    degrees = np.concatenate([np.arange(n + 1), np.arange(1, n)])
    sign = (-1.0) ** (n - 1)

    def hidx(i):
        return i

    def eidx(k):
        return n + k

    cup = np.zeros((size, size, size))
    for i in range(n + 1):
        for j in range(n + 1):
            if i + j <= n:
                cup[hidx(i), hidx(j), hidx(i + j)] = 1.0
    for k in range(1, n):
        # unit acts as identity on the exceptional block; h^i kills it for i >= 1
        cup[hidx(0), eidx(k), eidx(k)] = 1.0
        cup[eidx(k), hidx(0), eidx(k)] = 1.0
    for k in range(1, n):
        for l in range(1, n):
            s = k + l
            if s <= n - 1:
                cup[eidx(k), eidx(l), eidx(s)] = 1.0
            elif s == n:
                cup[eidx(k), eidx(l), hidx(n)] = sign
    pairing = np.zeros((size, size))
    for i in range(n + 1):
        pairing[hidx(i), hidx(n - i)] = 1.0
    for k in range(1, n):
        pairing[eidx(k), eidx(n - k)] = sign
    delta = np.zeros(size)
    for k in range(1, n):
        delta[eidx(k)] = -k
    c1 = np.zeros(size, dtype=complex)
    c1[hidx(1)], c1[eidx(1)] = n + 1, -(n - 1)
    return SpaceModel("blproj", n, basis, degrees, n, cup, pairing,
                      _mult_matrix(cup, c1), delta=np.diag(delta))


# ---------------------------------------------------------------------------
# ring series
# ---------------------------------------------------------------------------

def ring_exp(space: SpaceModel, v: np.ndarray) -> np.ndarray:
    """exp of v under cup product; v may have a scalar (degree-0) part."""
    v = np.asarray(v, dtype=complex)
    unit = space.unit()
    c0 = v[space._unit]
    nil = v - c0 * unit
    acc = unit.copy()
    term = unit.copy()
    for k in range(1, space.dim + 1):
        term = space.cup_vec(term, nil) / k
        acc = acc + term
    return np.exp(c0) * acc


def ring_series(space: SpaceModel, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] * x^{cup j}, truncated by the grading."""
    unit = space.unit()
    acc = complex(coeffs[0]) * unit
    term = unit.copy()
    for j in range(1, min(len(coeffs), space.dim + 1)):
        term = space.cup_vec(term, x)
        acc = acc + complex(coeffs[j]) * term
    return acc


def _tangent_roots(space: SpaceModel) -> list[tuple[np.ndarray, int]]:
    """(Chern root as a ring element, multiplicity) for the tangent class."""
    if space.kind == "proj":
        return [(space.basis_vector("p"), space.param + 1)]
    if space.kind == "blproj":
        n = space.param
        h = space.basis_vector("h")
        e = space.basis_vector("e")
        return [(h, n + 1), (-e, n), (e, 1)]
    raise SpaceMismatchError("no tangent model for kind %r" % space.kind)


@functools.lru_cache(maxsize=None)
def gamma_class(space: SpaceModel) -> np.ndarray:
    """Product of Gamma(1 + root) over the tangent roots, read-only."""
    log_vec = np.zeros(space.size, dtype=complex)
    for root, mult in _tangent_roots(space):
        log_vec = log_vec + mult * ring_series(space, LOG_GAMMA_1P, root)
    out = ring_exp(space, log_vec)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# K-classes and characteristic classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KClass:
    """Formal integer combination of line bundles O(k*D), D in {H, E}."""

    terms: tuple[tuple[str, int, int], ...]  # (divisor, twist, multiplicity)

    def dual(self) -> "KClass":
        return KClass(tuple((d, -k, m) for d, k, m in self.terms))

    def __add__(self, other: "KClass") -> "KClass":
        return KClass(self.terms + other.terms)

    def __neg__(self) -> "KClass":
        return KClass(tuple((d, k, -m) for d, k, m in self.terms))

    def __sub__(self, other: "KClass") -> "KClass":
        return self + (-other)


def line_bundle(k: int) -> KClass:
    """O(k) on projective space (or the hyperplane pullback on the blowup)."""
    return KClass((("H", k, 1),))


def exceptional_twist(k: int) -> KClass:
    """O(k*E) on the blowup."""
    return KClass((("E", k, 1),))


def exceptional_sheaf(k: int) -> KClass:
    """O_E(k) as a K-class on the blowup: O(kE) - O((k-1)E)."""
    return exceptional_twist(k) - exceptional_twist(k - 1)


def _divisor_vector(space: SpaceModel, name: str) -> np.ndarray:
    if space.kind == "proj":
        if name != "H":
            raise SpaceMismatchError("divisor %r not on proj" % name)
        return space.basis_vector("p")
    if space.kind == "blproj":
        return space.basis_vector("h" if name == "H" else "e")
    raise SpaceMismatchError("no divisors on kind %r" % space.kind)


def chern_character(space: SpaceModel, kcl: KClass) -> np.ndarray:
    acc = np.zeros(space.size, dtype=complex)
    for div, k, mult in kcl.terms:
        acc = acc + mult * ring_exp(space, k * _divisor_vector(space, div))
    return acc


def todd_class(space: SpaceModel) -> np.ndarray:
    # series of t/(1 - exp(-t)) to the ring's grading depth
    order = space.dim
    g = np.array([(-1.0) ** j / math.factorial(j + 1) for j in range(order + 1)],
                 dtype=complex)
    f = jet_recip(g)
    acc = space.unit()
    for root, mult in _tangent_roots(space):
        fac = ring_series(space, f, root)
        for _ in range(mult):
            acc = space.cup_vec(acc, fac)
    return acc


def euler_char(space: SpaceModel, e_cl: KClass, f_cl: KClass) -> complex:
    """chi(E, F) = integral of ch(E dual) ch(F) td(T)."""
    v = space.cup_vec(chern_character(space, e_cl.dual()),
                      chern_character(space, f_cl))
    v = space.cup_vec(v, todd_class(space))
    return space.integral(v)


# ---------------------------------------------------------------------------
# the Gamma-integral-structure map and its pairings
# ---------------------------------------------------------------------------

def psi_map(space: SpaceModel, kcl: KClass, q_log) -> np.ndarray:
    """(2pi)^{(1-dim)/2} Gamma-class * exp(-sum log q_i * D_i) * (2pi i)^deg ch.

    q_log: a scalar log q for proj (divisor p), or a pair (log for h,
    log for e) on the blowup.  The caller fixes the branches; nothing is
    inferred from moduli.
    """
    if space.kind == "proj":
        expo = -complex(q_log) * space.basis_vector("p")
    elif space.kind == "blproj":
        lh, le = q_log
        expo = -complex(lh) * space.basis_vector("h") \
            - complex(le) * space.basis_vector("e")
    else:
        raise SpaceMismatchError("psi_map needs a geometric model")
    ch = chern_character(space, kcl)
    ch = (TWO_PI_I ** space.degrees.astype(complex)) * ch
    v = space.cup_vec(gamma_class(space), ring_exp(space, expo))
    v = space.cup_vec(v, ch)
    return (2.0 * math.pi) ** ((1 - space.dim) / 2.0) * v


def _exp_pi_i_rho(space: SpaceModel) -> np.ndarray:
    acc = np.eye(space.size, dtype=complex)
    term = np.eye(space.size, dtype=complex)
    a = 1j * math.pi * space.rho
    for k in range(1, space.dim + 2):
        term = a @ term / k
        acc = acc + term
        if np.max(np.abs(term)) == 0.0:
            break
    return acc


def euler_pairing(space: SpaceModel, a: np.ndarray, b: np.ndarray) -> complex:
    """<a, b> = (1/2pi) (a, exp(pi i theta) exp(pi i rho) b)."""
    v = space.exp_pi_i_theta * (space.exp_pi_i_rho @ b)
    return space.pair(a, v) / (2.0 * math.pi)


def intersection_pairing(space: SpaceModel, a: np.ndarray, b: np.ndarray) -> complex:
    """(a|b) = <a,b> + <b,a>; symmetric by construction."""
    return euler_pairing(space, a, b) + euler_pairing(space, b, a)
