"""Low-level numerics: truncated jets, complex special functions, branch
tracking, Taylor-recurrence continuation of the constant-coefficient
connection along piecewise paths, and small dense eigenvector extraction.

Everything is plain double precision.  Downstream tolerances are 1e-10 or
looser, so well-conditioned 1e-13 kernels are enough; no arbitrary
precision is attempted.  All summations run in a fixed order so repeated
runs are bit-identical.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np
import scipy.special

TWO_PI = 2.0 * math.pi

MAX_JET_ORDER = 12

# for detecting arguments that sit exactly on a pole of Gamma
_POLE_EPS = 1e-9


class NumericsError(Exception):
    pass


class PoleError(NumericsError):
    """Evaluation requested at a pole of the function."""


class EigenAmbiguityError(NumericsError):
    """Eigenvalue near -1 missing or not unique within tolerance."""


# ---------------------------------------------------------------------------
# truncated jets (Taylor polynomials with arithmetic mod w^(order+1))
# ---------------------------------------------------------------------------

def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated to len(a) coefficients."""
    k = len(a)
    return np.convolve(a, b)[:k]


def jet_recip(a: np.ndarray) -> np.ndarray:
    """Reciprocal jet; constant term must be nonzero."""
    if a[0] == 0:
        raise ZeroDivisionError("jet reciprocal with vanishing constant term")
    k = len(a)
    out = np.zeros(k, dtype=complex)
    out[0] = 1.0 / a[0]
    for i in range(1, k):
        acc = 0.0 + 0.0j
        for j in range(1, i + 1):
            acc += a[j] * out[i - j]
        out[i] = -acc / a[0]
    return out


def jet_exp(a: np.ndarray) -> np.ndarray:
    """exp of a jet, via the derivative recurrence k*e_k = sum j*a_j*e_{k-j}."""
    k = len(a)
    out = np.zeros(k, dtype=complex)
    out[0] = cmath.exp(a[0])
    for i in range(1, k):
        acc = 0.0 + 0.0j
        for j in range(1, i + 1):
            acc += j * a[j] * out[i - j]
        out[i] = acc / i
    return out


@dataclass
class Jet:
    """Truncated Taylor expansion sum_k c[k] w^k, order = len(c)-1 <= 12."""

    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=complex)
        if self.c.ndim != 1:
            raise ValueError("jet coefficients must be a vector")
        if len(self.c) - 1 > MAX_JET_ORDER:
            raise ValueError("jet order above %d" % MAX_JET_ORDER)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c + other.c)
        out = self.c.copy()
        out[0] += other
        return Jet(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c - other.c)
        out = self.c.copy()
        out[0] -= other
        return Jet(out)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(jet_mul(self.c, other.c))
        return Jet(self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return Jet(jet_mul(self.c, jet_recip(other.c)))
        return Jet(self.c / other)

    def exp(self) -> "Jet":
        return Jet(jet_exp(self.c))

    def __getitem__(self, k: int) -> complex:
        return complex(self.c[k])


def jet_variable(center: complex, order: int) -> Jet:
    """The jet of z = center + w."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = center
    if order >= 1:
        c[1] = 1.0
    return Jet(c)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _is_nonpositive_integer(z: complex, eps: float = _POLE_EPS) -> bool:
    z = complex(z)
    if abs(z.imag) > eps:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= eps


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma, continuous off the cut (-inf, 0]."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError("log_gamma pole at %r" % z)
    return complex(scipy.special.loggamma(z))


def polygamma(k: int, z: complex) -> complex:
    """psi^(k)(z) for complex z, k <= 12."""
    if not 0 <= k <= MAX_JET_ORDER:
        raise ValueError("polygamma order out of range")
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError("polygamma pole at %r" % z)
    val = mpmath.polygamma(k, mpmath.mpc(z))
    return complex(val)


def log_gamma_jet(z: complex, order: int) -> Jet:
    """Jet of log Gamma(z + w); z must avoid nonpositive integers."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = log_gamma(z)
    fact = 1.0
    for k in range(1, order + 1):
        fact *= k
        c[k] = polygamma(k - 1, z) / fact
    return Jet(c)


def recip_gamma_jet(z: complex, order: int) -> Jet:
    """Jet of the entire function 1/Gamma at center z.

    At a nonpositive integer center the logarithmic expansion breaks down,
    so the pole is peeled off with 1/Gamma(z+w) = (z+w)...(z+s-1+w) *
    1/Gamma(z+s+w) and only the shifted regular factor goes through exp.
    """
    if order > MAX_JET_ORDER:
        raise ValueError("jet order above %d" % MAX_JET_ORDER)
    z = complex(z)
    if _is_nonpositive_integer(z):
        shift = 1 - round(z.real)
        acc = jet_variable(z, order)
        for j in range(1, shift):
            acc = acc * jet_variable(z + j, order)
        return acc * recip_gamma_jet(z + shift, order)
    return Jet(jet_exp(-log_gamma_jet(z, order).c))


# ---------------------------------------------------------------------------
# branch tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchState:
    """A point lambda together with a chosen value of log(lambda)."""

    base: complex
    log_value: complex

    def check(self, tol: float = 1e-12) -> None:
        if abs(cmath.exp(self.log_value) - self.base) > tol * max(1.0, abs(self.base)):
            raise NumericsError("branch state inconsistent: exp(log) != base")


def principal_branch(lam: complex, winding: int = 0) -> BranchState:
    """Branch state with log = principal log + 2*pi*i*winding."""
    lam = complex(lam)
    if lam == 0:
        raise ValueError("no branch state at the origin")
    return BranchState(lam, cmath.log(lam) + 2j * math.pi * winding)


def branch_power(b: BranchState, s: complex) -> complex:
    """lambda**s on the branch carried by b, i.e. exp(s*log_value)."""
    return cmath.exp(complex(s) * b.log_value)


def _resync_log(point: complex, log_val: complex) -> complex:
    # keep the accumulated winding but re-anchor modulus and residual phase
    # on the exact endpoint, so exp(log) == base to machine precision
    p = cmath.log(point)
    w = round((log_val - p).imag / TWO_PI)
    return p + 2j * math.pi * w


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    z0: complex
    z1: complex

    def point(self, t: float) -> complex:
        return self.z0 + (self.z1 - self.z0) * t

    def deriv(self, t: float) -> complex:
        return self.z1 - self.z0

    def length(self) -> float:
        return abs(self.z1 - self.z0)

    @property
    def start(self) -> complex:
        return self.z0

    @property
    def end(self) -> complex:
        return self.z1

    def reversed(self) -> "Segment":
        return Segment(self.z1, self.z0)


@dataclass(frozen=True)
class Arc:
    """Circular arc center + radius*exp(i*angle), angle from angle0 to angle1.

    Orientation is the sign of angle1 - angle0 (positive = counterclockwise).
    """

    center: complex
    radius: float
    angle0: float
    angle1: float

    @property
    def orientation(self) -> int:
        d = self.angle1 - self.angle0
        return (d > 0) - (d < 0)

    def point(self, t: float) -> complex:
        a = self.angle0 + (self.angle1 - self.angle0) * t
        return self.center + self.radius * cmath.exp(1j * a)

    def deriv(self, t: float) -> complex:
        a = self.angle0 + (self.angle1 - self.angle0) * t
        return 1j * (self.angle1 - self.angle0) * self.radius * cmath.exp(1j * a)

    def length(self) -> float:
        return abs(self.angle1 - self.angle0) * self.radius

    @property
    def start(self) -> complex:
        return self.point(0.0)

    @property
    def end(self) -> complex:
        return self.point(1.0)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.angle1, self.angle0)


Piece = Segment | Arc
PathSpec = Sequence[Piece]


def validate_path(path: PathSpec, closed: bool = False, tol: float = 1e-12) -> None:
    """Endpoints of consecutive pieces must agree within tol."""
    if not path:
        raise ValueError("empty path")
    scale = max(1.0, max(abs(p.start) for p in path))
    for a, b in zip(path, path[1:]):
        if abs(a.end - b.start) > tol * scale:
            raise ValueError("path pieces do not join: %r -> %r" % (a.end, b.start))
    if closed and abs(path[-1].end - path[0].start) > tol * scale:
        raise ValueError("path does not close up")


def reverse_path(path: PathSpec) -> list:
    return [p.reversed() for p in reversed(path)]


def scale_path(path: PathSpec, w: complex) -> list:
    """Image of the path under multiplication by w."""
    out = []
    rot = cmath.phase(w)
    mag = abs(w)
    for p in path:
        if isinstance(p, Segment):
            out.append(Segment(p.z0 * w, p.z1 * w))
        else:
            out.append(Arc(p.center * w, p.radius * mag,
                           p.angle0 + rot, p.angle1 + rot))
    return out


# ---------------------------------------------------------------------------
# continuation of (lambda - E) Y' = U Y by its Taylor recurrence
# ---------------------------------------------------------------------------

_SING_EPS = 1e-12
_TERM_CAP = 200


def ode_continue(
    euler: np.ndarray,
    upper: np.ndarray,
    path: PathSpec,
    y0: np.ndarray,
    branch0: BranchState | None = None,
) -> tuple[np.ndarray, BranchState, float]:
    """Continue a solution of (lambda - E) dY/dlambda = U Y along the path,
    tracking log(lambda).

    E (euler) and U (upper) are constant square matrices; y0 is a vector
    or a matrix of columns.  Around a node c the Taylor coefficients obey
    Y_{j+1} = (c - E)^{-1} (U - j) Y_j / (j+1), and the series converges on
    the disk reaching the nearest eigenvalue of E.  Each step h moves at
    most half that distance and at most half of |c| along the piece, so
    the terms decay at least like 2^-j up to a polynomial factor, and
    log(lambda) advances exactly by the principal log1p(h/c).  A step sums
    until two consecutive terms fall below machine epsilon times their
    column's scale; there is no tolerance to choose.  The branch is only
    re-anchored on the exact endpoint of each piece, keeping the
    accumulated winding.

    Returns the continued solution, its branch state, and the continuation
    error estimate: the sum over steps of the first omitted term relative
    to its column's scale.  Raises NumericsError when a node comes within
    1e-12 * max(1, |lambda|) of an eigenvalue of E or of the origin, or
    when a step's series has not converged in _TERM_CAP terms.
    """
    validate_path(path)
    y0 = np.asarray(y0, dtype=complex)
    y = y0.reshape(len(y0), -1).copy()
    start = path[0].start
    if branch0 is None:
        branch0 = principal_branch(start)
    if abs(branch0.base - start) > 1e-9 * max(1.0, abs(start)):
        raise ValueError("branch0.base does not match path start")
    branch0.check()
    logl = branch0.log_value
    sing = np.linalg.eigvals(euler)
    eye = np.eye(len(euler))
    eps = np.finfo(float).eps
    trunc = 0.0

    for piece in path:
        plen = piece.length()
        if plen == 0.0:
            continue
        t = 0.0
        c = piece.start
        while t < 1.0:
            # the origin is singular for log(lambda)
            reach = min(float(np.min(np.abs(c - sing))), abs(c))
            if reach < _SING_EPS * max(1.0, abs(c)):
                raise NumericsError(
                    "continuation node %r on a singular point" % c)
            # arclength 0.5*reach bounds the chord |h| by the same amount
            t_next = min(1.0, t + 0.5 * reach / plen)
            z = piece.end if t_next == 1.0 else piece.point(t_next)
            h = z - c
            resolvent = np.linalg.inv(c * eye - euler)
            term = y
            acc = y.copy()
            small = 0
            for j in range(_TERM_CAP):
                term = (h / (j + 1)) * (resolvent @ (upper @ term - j * term))
                scale = np.max(np.abs(acc), axis=0)
                rel = float(np.max(np.max(np.abs(term), axis=0)
                                   / np.where(scale > 0, scale, 1.0)))
                small = small + 1 if rel <= eps else 0
                if small == 2:
                    trunc += rel
                    break
                acc += term
            else:
                raise NumericsError(
                    "Taylor series did not converge at lambda=%r" % c)
            y = acc
            logl = logl + np.log1p(h / c)
            t, c = t_next, z
        # re-anchor on the exact piece endpoint, keeping the winding
        logl = _resync_log(piece.end, logl)

    endpoint = path[-1].end
    return y.reshape(y0.shape), BranchState(endpoint, logl), trunc


# ---------------------------------------------------------------------------
# eigenvector near -1
# ---------------------------------------------------------------------------

def eig_unit_minus(mat: np.ndarray, tol: float) -> np.ndarray:
    """Unit-norm eigenvector for the unique eigenvalue within tol of -1.

    Raises EigenAmbiguityError when no eigenvalue or more than one falls
    inside the tol-disk around -1.  The returned vector's largest component
    is rotated to the positive real axis so repeated runs agree.
    """
    mat = np.asarray(mat, dtype=complex)
    w, v = np.linalg.eig(mat)
    dist = np.abs(w + 1.0)
    hits = np.nonzero(dist <= tol)[0]
    if len(hits) == 0:
        raise EigenAmbiguityError(
            "no eigenvalue within %g of -1 (closest %g)" % (tol, dist.min()))
    if len(hits) > 1:
        raise EigenAmbiguityError("eigenvalue near -1 is not unique")
    vec = v[:, int(hits[0])]
    vec = vec / np.linalg.norm(vec)
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec / phase


def check_inverse(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Invert mat; raise if ||mat*inv - id|| is above tol."""
    mat = np.asarray(mat, dtype=complex)
    inv = np.linalg.inv(mat)
    n = mat.shape[0]
    res = np.max(np.abs(mat @ inv - np.eye(n)))
    if res > tol:
        raise NumericsError("inverse residual %g above %g" % (res, tol))
    return inv
