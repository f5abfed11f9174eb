"""Low-level numerics: truncated jets, complex special functions, branch
tracking, and Taylor-recurrence continuation of the constant-coefficient
connection along piecewise paths.

A truncated jet sum_k c[k] w^k is the complex coefficient array c itself,
of length order + 1 <= 13; jet_mul, jet_recip and jet_exp do the
arithmetic.  polygamma is an upward recurrence followed by the Stirling
series; on the negative real axis the reflection formula first moves the
argument to the right half-plane.

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

import numpy as np
import scipy.special

TWO_PI = 2.0 * math.pi

MAX_JET_ORDER = 12

# for detecting arguments that sit exactly on a pole of Gamma
_POLE_EPS = 1e-9

# Bernoulli numbers B_2 .. B_20, and the Stirling-series coefficients
# B_2j (2j+k-1)! / (2j)! of z^-(2j+k) in (-1)^(k+1) psi^(k)(z), k <= 12
_BERNOULLI_2J = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                 -3617 / 510, 43867 / 798, -174611 / 330)
_STIRLING = tuple(
    tuple(b * (math.factorial(2 * j + k - 1) / math.factorial(2 * j))
          for j, b in enumerate(_BERNOULLI_2J, start=1))
    for k in range(MAX_JET_ORDER + 1))


def _cot_derivative_polys() -> tuple:
    """Integer coefficients, lowest degree first, of P_k with
    cot^(k)(x) = P_k(cot x), k <= 12: P_0(c) = c and
    P_{k+1}(c) = -(1 + c^2) P_k'(c).  Every coefficient of P_k has the sign
    (-1)^k, so Horner's rule at real c does not cancel."""
    polys = [(0, 1)]
    for _ in range(MAX_JET_ORDER):
        deriv = [j * a for j, a in enumerate(polys[-1])][1:]
        nxt = [0] * (len(deriv) + 2)
        for j, a in enumerate(deriv):
            nxt[j] -= a
            nxt[j + 2] -= a
        polys.append(tuple(nxt))
    return tuple(polys)


_COT_POLYS = _cot_derivative_polys()


class NumericsError(Exception):
    pass


class PoleError(NumericsError):
    """Evaluation requested at a pole of the function."""


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
    """psi^(k)(z) for complex z, k <= 12.

    On the negative real axis the reflection formula
    psi^(k)(z) = (-1)^k psi^(k)(1-z) - pi^(k+1) cot^(k)(pi z) moves z to
    1 - z > 1 in one step; cot^(k) is P_k(cot) of ``_COT_POLYS`` at
    cot(pi r), r = z - round(z) exact, and cot(pi r) is exactly 0 at a
    half-integer.  Off the real axis P_k cancels near cot = -+i, so there
    z keeps the upward shift below.

    z is shifted upward with psi^(k)(z) = psi^(k)(z+1) + (-1)^(k+1) k!/z^(k+1)
    until Re z >= 18 + 1.5k, where the Stirling series

        (-1)^(k+1) [(k-1)!/z^k + k!/(2 z^(k+1))
                    + sum_j B_2j (2j+k-1)!/((2j)! z^(2j+k))]

    (with -log z in place of (k-1)!/z^k at k = 0) is summed to j = 10.
    The shift terms are added by math.fsum: left of the origin the terms
    at z+j and near -(z+j) nearly cancel, and psi^(k) can sit many orders
    below its largest term.
    """
    if not 0 <= k <= MAX_JET_ORDER:
        raise ValueError("polygamma order out of range")
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError("polygamma pole at %r" % z)
    if z.imag == 0.0 and z.real < 0.0:
        r = z.real - round(z.real)
        if abs(r) <= 0.25:
            cot = math.cos(math.pi * r) / math.sin(math.pi * r)
        else:
            cot = math.copysign(math.tan(math.pi * (0.5 - abs(r))), r)
        poly = 0.0
        for a in reversed(_COT_POLYS[k]):
            poly = poly * cot + a
        return ((-1) ** k * _polygamma_shifted(k, 1.0 - z)
                - math.pi ** (k + 1) * poly)
    return _polygamma_shifted(k, z)


def _polygamma_shifted(k: int, z: complex) -> complex:
    """The upward shift and Stirling series of ``polygamma``."""
    shift = []
    while z.real < 18.0 + 1.5 * k:
        shift.append(z ** -(k + 1))
        z += 1.0
    w = 1.0 / (z * z)
    series = 0.0
    for c in reversed(_STIRLING[k]):
        series = (series + c) * w
    kfact = math.factorial(k)
    lead = -cmath.log(z) if k == 0 else math.factorial(k - 1) / z ** k
    shift_sum = complex(math.fsum(t.real for t in shift),
                        math.fsum(t.imag for t in shift))
    val = (lead + kfact / (2.0 * z ** (k + 1)) + series / z ** k
           + kfact * shift_sum)
    return val if k % 2 else -val


def log_gamma_jet(z: complex, order: int) -> np.ndarray:
    """Jet of log Gamma(z + w); z must avoid nonpositive integers."""
    if order > MAX_JET_ORDER:
        raise ValueError("jet order above %d" % MAX_JET_ORDER)
    c = np.zeros(order + 1, dtype=complex)
    c[0] = log_gamma(z)
    fact = 1.0
    for k in range(1, order + 1):
        fact *= k
        c[k] = polygamma(k - 1, z) / fact
    return c


def recip_gamma_jet(z: complex, order: int) -> np.ndarray:
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
        # the linear factor z + j + w
        lin = np.zeros(order + 1, dtype=complex)
        if order >= 1:
            lin[1] = 1.0
        lin[0] = z
        acc = lin.copy()
        for j in range(1, shift):
            lin[0] = z + j
            acc = jet_mul(acc, lin)
        return jet_mul(acc, recip_gamma_jet(z + shift, order))
    return jet_exp(-log_gamma_jet(z, order))


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

    def length(self) -> float:
        return abs(self.z1 - self.z0)

    @property
    def start(self) -> complex:
        return self.z0

    @property
    def end(self) -> complex:
        return self.z1


@dataclass(frozen=True)
class Arc:
    """Circular arc center + radius*exp(i*angle), angle from angle0 to angle1
    (counterclockwise when angle1 > angle0)."""

    center: complex
    radius: float
    angle0: float
    angle1: float

    def point(self, t: float) -> complex:
        a = self.angle0 + (self.angle1 - self.angle0) * t
        return self.center + self.radius * cmath.exp(1j * a)

    def length(self) -> float:
        return abs(self.angle1 - self.angle0) * self.radius

    @property
    def start(self) -> complex:
        return self.point(0.0)

    @property
    def end(self) -> complex:
        return self.point(1.0)


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
