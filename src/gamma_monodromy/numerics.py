"""Low-level numerics: truncated jets, complex special functions, branch
states of log(lambda), ``sum_series``, the one summation of the local
series of the connection (the Frobenius series of ``monodromy``), and
``Prefix``, the growth rule of the tables built only as deep as read
(calibration series, the period series' chain of 1/Gamma jets).

A truncated jet sum_k c[k] w^k is the complex coefficient array c itself,
of length order + 1 <= 13; jet_mul, jet_recip and jet_exp do the
arithmetic.  log Gamma (mod 2 pi i) and polygamma are for Re z > 0 only.
``log_gamma_array`` is log Gamma for arrays: Stirling's series, the
Taylor series about 1, and an upward shift; ``log_gamma`` is its form for
one number.  polygamma is an upward recurrence followed by the Stirling
series.  The jet of the entire 1/Gamma at any center is one path: linear
factors shift the center to Re z >= 5.5, where the exp of the log Gamma
jet is taken.

Everything is plain double precision.  Downstream tolerances are 1e-10 or
looser, so well-conditioned 1e-13 kernels are enough; no arbitrary
precision is attempted.  All summations run in a fixed order so repeated
runs are bit-identical.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

MAX_JET_ORDER = 12

# Bernoulli numbers B_2 .. B_20, and the Stirling-series coefficients
# B_2j (2j+k-1)! / (2j)! of z^-(2j+k) in (-1)^(k+1) psi^(k)(z), k <= 12
_BERNOULLI_2J = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                 -3617 / 510, 43867 / 798, -174611 / 330)
_STIRLING = tuple(
    tuple(b * (math.factorial(2 * j + k - 1) / math.factorial(2 * j))
          for j, b in enumerate(_BERNOULLI_2J, start=1))
    for k in range(MAX_JET_ORDER + 1))


# log Gamma: Stirling's series B_2j / (2j (2j-1)) w^(1-2j), j <= 8, where
# Re w > 7 or |Im w| > 7 (the first omitted term is below 1e-15 there);
# elsewhere the Taylor series about 1 within _LG_TAYLOR_RADIUS, or an
# upward shift into the Stirling region
LOG_GAMMA_STIRLING = tuple(b / (2 * j * (2 * j - 1))
                           for j, b in enumerate(_BERNOULLI_2J[:8], start=1))
_LG_STIRLING_EDGE = 7.0
_HALF_LOG_2PI = 0.5 * math.log(TWO_PI)
_LG_TAYLOR_RADIUS = 0.08
# the Taylor series stops at the first term below 2^-54 (a quarter ulp
# of 1) everywhere in its disc: depth k holds out to radius
# (2^-54 (k+1))^(1/(k+1)), and k = 13 reaches _LG_TAYLOR_RADIUS
_LG_TAYLOR_REACH = tuple((2.0 ** -54 * (k + 1)) ** (1.0 / (k + 1))
                         for k in range(14))


class NumericsError(Exception):
    pass


class Prefix:
    """The first `limit` entries of a table, built only as deep as read.

    build(count) gives the table's first count entries as read-only arrays,
    with the same bits in each entry whatever count it is asked for.  The
    first read builds 48 entries; a read past the built ones builds again
    to the first of 96, 192, .. that covers it, never past `limit`.  Each
    build replaces `value` whole, so an array handed out earlier never
    changes, and a build that raises changes nothing.
    """

    FIRST = 48                    # entries of the first build

    def __init__(self, build, limit: int):
        self.build = build
        self.limit = limit
        self.built = 0            # entries in value
        self.value = None

    def read(self, count: int):
        """value, built to at least min(count, limit) entries."""
        if self.value is None or self.built < min(count, self.limit):
            depth = self.FIRST
            while depth < count:
                depth *= 2
            self.value = self.build(min(depth, self.limit))
            self.built = min(depth, self.limit)
        return self.value


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

def _taylor_depth(radius: float) -> int:
    """Terms of the Taylor series about 1 needed out to radius."""
    depth = 1
    while _LG_TAYLOR_REACH[depth] < radius:
        depth += 1
    return depth


def _log_gamma1p(e, depth: int):
    """log Gamma(1 + e) by its Taylor series to e^depth; e is a number or
    an array.  Not multiplied in place: numpy multiplies a one-point
    complex array in place with other roundings than a longer one."""
    s = LOG_GAMMA_1P[depth] * e
    for c in LOG_GAMMA_1P[depth - 1:0:-1]:
        s += c
        s = s * e
    return s


def _stirling_tail(r):
    """sum_j B_2j / (2j (2j-1)) r^(2j-1), j <= 8, at r = 1/w."""
    r2 = r * r
    s = LOG_GAMMA_STIRLING[-1] * r2
    for c in LOG_GAMMA_STIRLING[-2:0:-1]:
        s += c
        s *= r2
    s += LOG_GAMMA_STIRLING[0]
    s *= r
    return s


def log_gamma(z: complex) -> complex:
    """log Gamma(z) mod 2 pi i for complex z with Re z > 0, ValueError
    elsewhere; every caller exponentiates it.

    Within _LG_TAYLOR_RADIUS of 2 the Taylor series about 1 plus log1p, so
    that Gamma(2) = 1 exactly; elsewhere ``log_gamma_array``.
    """
    z = complex(z)
    if not z.real > 0.0:
        raise ValueError("log_gamma needs Re z > 0")
    e = z - 2.0
    if abs(e) <= _LG_TAYLOR_RADIUS:
        return complex(_log_gamma1p(e, _taylor_depth(abs(e))) + np.log1p(e))
    return complex(log_gamma_array(np.array([z]))[0])


def _log_array(w: np.ndarray) -> np.ndarray:
    """Principal complex log from the real log and arctan2, much cheaper
    than numpy's complex log; |w| must stay below 1e150."""
    x, y = w.real, w.imag
    out = np.empty_like(w)
    out.real = x * x
    out.real += y * y
    np.log(out.real, out=out.real)
    out.real *= 0.5
    out.imag = np.arctan2(y, x)
    return out


def log_gamma_array(z: np.ndarray) -> np.ndarray:
    """log Gamma mod 2 pi i, elementwise, at complex z with Re z > 0 and
    |z| < 1e150: the form that the Mellin-Barnes integrands exponentiate.

    Where Re z > 7 or |Im z| > 7, Stirling's series; within
    _LG_TAYLOR_RADIUS of 1, the Taylor series about 1, to the depth that
    the whole disc needs; elsewhere the shift
    w = z + 7 with one product p = z (z+1) .. (z+6) and one log,

        log Gamma(z) = (z - 1/2) log w + log(w^7 e^{-Re w} / p) - i Im w
                       + log(2 pi)/2 + tail(w),

    whose terms stay near the size of the result: the integrand of a
    contour that cancels to 1e-10 of its size needs that.  Each region is
    one boolean mask, the Taylor disc is looked for among the points of
    the shift region and the shift runs on the rest of them only, and the
    arithmetic is done in place.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(z.real > 0.0):
        raise ValueError("log_gamma_array needs Re z > 0")
    edge = _LG_STIRLING_EDGE
    low = (z.real <= edge) & (np.abs(z.imag) <= edge)
    high = ~low
    out = np.empty_like(z)
    w = z[high]
    # (w - 1/2) log w - w = (w - 1/2) (log w - 1) - 1/2
    val = _log_array(w)
    val -= 1.0
    val *= w - 0.5
    val += _HALF_LOG_2PI - 0.5
    val += _stirling_tail(1.0 / w)
    out[high] = val
    zl = z[low]
    if zl.size:
        e = zl - 1.0
        dist = e.real * e.real
        dist += e.imag * e.imag
        near = dist <= _LG_TAYLOR_RADIUS ** 2
        val = np.empty_like(zl)
        if near.any():
            # every point to the depth the whole disc needs, so that its
            # value does not depend on where the other points lie
            val[near] = _log_gamma1p(e[near],
                                     _taylor_depth(_LG_TAYLOR_RADIUS))
        zs = zl[~near]
        w = zs + edge
        # z (z+1) .. (z+6) = s (s + 5) (s + 8) (z + 3), s = z (z + 6)
        s = zs + 6.0
        s *= zs
        prod = s + 5.0
        prod *= s
        s += 8.0
        prod *= s
        prod *= zs + 3.0
        ratio = w * w
        ratio *= w
        ratio *= ratio
        ratio *= w
        ratio *= np.exp(-w.real)
        ratio /= prod
        shifted = _log_array(ratio)
        shifted += (zs - 0.5) * _log_array(w)
        shifted.imag -= w.imag
        shifted += _HALF_LOG_2PI
        shifted += _stirling_tail(1.0 / w)
        val[~near] = shifted
        out[low] = val
    return out


def polygamma(k: int, z: complex) -> complex:
    """psi^(k)(z) for complex z with Re z > 0, k <= 12; ValueError
    elsewhere.

    z is shifted upward with psi^(k)(z) = psi^(k)(z+1) + (-1)^(k+1) k!/z^(k+1)
    until Re z >= 18 + 1.5k, where the Stirling series

        (-1)^(k+1) [(k-1)!/z^k + k!/(2 z^(k+1))
                    + sum_j B_2j (2j+k-1)!/((2j)! z^(2j+k))]

    (with -log z in place of (k-1)!/z^k at k = 0) is summed to j = 10.
    The shift terms are added by math.fsum, so their sum is correctly
    rounded whatever their number: off the real axis the phases
    -(k+1) arg(z+j) of the terms spread over up to (k+1) pi/2, and the
    terms partly cancel.
    """
    if not 0 <= k <= MAX_JET_ORDER:
        raise ValueError("polygamma order out of range")
    z = complex(z)
    if not z.real > 0.0:
        raise ValueError("polygamma needs Re z > 0")
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


def _log_gamma1p_coeffs() -> tuple:
    """Taylor coefficients c_0 .. c_13 of log Gamma(1 + e) from polygamma
    at 1: c_0 = 0, c_1 = -gamma, c_j = (-1)^j zeta(j) / j."""
    return (0.0,) + tuple(polygamma(j - 1, 1.0).real / math.factorial(j)
                          for j in range(1, MAX_JET_ORDER + 2))


LOG_GAMMA_1P = _log_gamma1p_coeffs()


def log_gamma_jet(z: complex, order: int) -> np.ndarray:
    """Jet of log Gamma(z + w) at complex z with Re z > 0: ``log_gamma``
    and ``polygamma``, ValueError elsewhere."""
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
    """Jet of the entire function 1/Gamma at any complex center z.

    With s = max(0, ceil(5.5 - Re z)) linear factors (DLMF 5.5.1),

        1/Gamma(z + w) = (z + w) .. (z + s - 1 + w) / Gamma(z + s + w),

    the log Gamma jet is only taken at Re(z + s) >= 5.5, where its
    coefficients are small and its exp is well conditioned; near the
    origin they are not.  Each factor is one shift-add, the one nearest
    z + s first; at a nonpositive integer z one factor's constant is
    exactly 0, so a pole of Gamma needs no case of its own.
    """
    if order > MAX_JET_ORDER:
        raise ValueError("jet order above %d" % MAX_JET_ORDER)
    z = complex(z)
    shift = max(0, math.ceil(5.5 - z.real))
    acc = jet_exp(-log_gamma_jet(z + shift, order))
    for j in range(shift - 1, -1, -1):
        # times (z + j + w)
        acc[1:] = (z + j) * acc[1:] + acc[:-1]
        acc[0] *= z + j
    return acc


# ---------------------------------------------------------------------------
# branches of log(lambda)
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


def _resync_log(point: complex, log_val: complex) -> complex:
    # keep the accumulated winding but re-anchor modulus and residual phase
    # on the exact endpoint, so exp(log) == base to machine precision
    p = cmath.log(point)
    w = round((log_val - p).imag / TWO_PI)
    return p + 2j * math.pi * w


# ---------------------------------------------------------------------------
# local series of (lambda - E) Y' = U Y
# ---------------------------------------------------------------------------

_TERM_CAP = 200
_TBLOCK = 8           # series terms formed per batch


def sum_series(first: np.ndarray, step, message: str
               ) -> tuple[np.ndarray, float, int]:
    """Sum T_0 + T_1 + .. column by column, T_0 = first and
    T_{j+1} = step(j, T_j), stopping before the second of two consecutive
    terms at or below machine epsilon times their column's scale (the max
    modulus of the partial sum before them); there is no tolerance to set.

    The terms are formed _TBLOCK at a time, their norms, partial sums and
    column scales taken per block, and the stopping rule reads them one by
    one, so the result is that of a term-by-term sum.  Returns the value,
    the stopping term over its column's scale, and the terms summed after
    T_0; NumericsError(message) when _TERM_CAP terms do not stop it.  The
    package sums one series with it, the Frobenius series about a singular
    point that ``monodromy`` reads each loop's reflection from.
    """
    eps = np.finfo(float).eps
    # row 0 is the running sum, rows 1.. the block's terms
    buf = np.empty((_TBLOCK + 1,) + first.shape, dtype=complex)
    term = buf[0] = first
    small = 0
    for start in range(0, _TERM_CAP, _TBLOCK):
        block = buf[:min(_TBLOCK, _TERM_CAP - start) + 1]
        for i, j in enumerate(range(start, start + len(block) - 1)):
            term = block[i + 1] = step(j, term)
        tnorms = np.max(np.abs(block[1:]), axis=1)
        np.cumsum(block, axis=0, out=block)
        scales = np.max(np.abs(block[:-1]), axis=1)
        rels = np.max(tnorms / np.where(scales > 0, scales, 1.0),
                      axis=1).tolist()
        for i, rel in enumerate(rels):
            small = small + 1 if rel <= eps else 0
            if small == 2:
                # the value is the partial sum before the second small term
                return block[i].copy(), rel, start + i
        buf[0] = block[-1]
    raise NumericsError(message)
