"""Mellin-Barnes and residue representations of the distinguished period
integral, plus the oscillatory-integral cross-checks.

The central object is

    Phi(q, lambda) = (2 pi)^{(1-n)/2} int_{Re x = 1}
                     q^{-x} Gamma(x)^{n-1}
                     lambda^{(n-1)x + c - 1} / Gamma((n-1)x + c) dx / (i x)

with c = m + 1/2 - n/2.  The 1/i normalization makes Phi real for real
positive q and lambda.  Closing the contour to the left gives the residue
series over x = 0, -1, -2, ...; the two routes must agree for
lambda > u(q) = (n-1) q^{1/(n-1)}, and Phi vanishes identically on
0 < lambda <= u(q).

On the vertical line x = 1 + ib the integrand is e^{i omega b} H(b) with
omega = (n-1) log(lambda/u): H is smooth and non-oscillatory, and it decays
only polynomially, |H| ~ |b|^{-(m+1/2)}, because the exponential decay of
Gamma(x)^{n-1} is eaten by 1/Gamma((n-1)x + c).  That is the integrand the
Ooura-Mori double-exponential Fourier rule is built for (T. Ooura and
M. Mori, "A robust double exponential formula for Fourier-type integrals",
J. Comput. Appl. Math. 112 (1999) 229-241); ``make_mb_config`` picks its
step h by halving.  H is lambda^(n+c-2) times a lambda-free G(b), and each
node takes G from the cheapest exact form of its band: one joint Stirling
series of both log Gamma far out on the line, three moments of a Taylor jet
for the nodes next to the real axis, and log Gamma in between.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (LOG_GAMMA_1P, LOG_GAMMA_STIRLING, NumericsError,
                       jet_exp, jet_mul, log_gamma_array, log_gamma_jet,
                       recip_gamma_jet)

# Re x of every vertical contour line
_LINE = 1.0
_GL_NODES = 32
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)

# Ooura-Mori rule: beta, the cut _DE_TLO <= t <= _DE_THI, the first step
# and the number of halvings allowed, and the floor on |omega| in the node
# map (omega = 0 at lambda = u would send every node to infinity).  The
# lower cut drops about M phi(_DE_TLO) / _OMEGA_FLOOR * |H(0)|, at most
# 4e-18 |H(0)| down to the finest h, _DE_H0 / 2^_DE_HALVINGS; at t = -6 it
# reaches 1e-15 by h = 0.0125.
_DE_BETA = 0.25
_DE_TLO = -7.0
_DE_THI = 6.0
_DE_H0 = 0.1
_DE_HALVINGS = 5
_OMEGA_FLOOR = 1e-3
# bands of the folded integrand G(b): nodes with b < _TAIL_B at every
# lambda go to the moments of the axis tail, nodes with b >= _FAR_RADIUS
# (more where |c|/(n-1) is large) to the joint Stirling series in 1/x,
# formed to degree _FAR_DEGREE and cut where the rest falls below 2^-60,
# the rest to log_gamma_array
_TAIL_B = 1e-3
_FAR_RADIUS = 20.0
_FAR_DEGREE = 40
# roundoff of a rule sum, in units of eps * sum_j w_j |F(b_j)|: at most 5
# against h = 0.003125 for h = 0.025..0.00625, n = 3, 4, m = 3..8,
# q = 0.3..2 and lambda = 0.05u..4u
_ROUNDOFF_UNITS = 16.0
# lambdas per block of the residue series, which keeps its arrays small
_SERIES_BLOCK = 64
# lambdas x nodes per block of the contour rule: numpy's cost per call is
# spread over many nodes, and the block's arrays stay small
_MB_BLOCK = 4096
# log of the largest double
_LOG_DBL_MAX = math.log(np.finfo(float).max)


class FitQualityError(NumericsError):
    pass


@dataclass
class MBConfig:
    """Step h of the Ooura-Mori rule on Re x = _LINE, the nodes it
    evaluates per lambda (all but the axis tail), and the error estimate
    of ``make_mb_config``."""
    h: float
    nodes: int
    error_estimate: float


def u_of_q(n: int, q: float) -> float:
    """Principal real root (n-1) q^{1/(n-1)} bounding the vanishing region."""
    return (n - 1) * q ** (1.0 / (n - 1))


def _c_exp(n: int, m: int) -> float:
    return m + 0.5 - n / 2.0


@lru_cache(maxsize=None)
def _far_series(n: int, m: int) -> tuple:
    """Radius R, constant C0 and the read-only coefficients p_0 = 0, p_1,
    .., p_D of the far band: with N = n-1, v = 1/x and |x| >= R,

        N log Gamma(x) - log Gamma(Nx + c) - x log q
            = -(m - 1/2) log x - N x log u + C0 + sum_k p_k v^k.

    Stirling's series of both log Gamma (DLMF 5.11.1, beta_j =
    B_2j / (2j (2j-1)), j <= 8) and log(Nx + c) = log N + log x
    + log(1 + a v), a = c/N, leave C0 = (N-1)/2 log 2 pi - (c-1/2) log N
    and the series of -(N/v + c - 1/2) log(1 + a v) + c
    + N sum_j beta_j v^(2j-1) - sum_j beta_j N^(1-2j) v^(2j-1)
    (1 + a v)^(1-2j): the x log x, the N x and, with
    log q = N log u - N log N, the N x log N terms cancel exactly, where
    the difference of two log Gamma loses six digits at |x| = 3e4.
    R >= 8 |a| keeps |a v| <= 1/8, so the terms past _FAR_DEGREE add up to
    less than |c| 8^-40; the series is cut further where the rest is below
    2^-60 at |v| = 1/R (degree 11 to 16 at m = n .. n+3)."""
    big_n = n - 1
    c = _c_exp(n, m)
    a = c / big_n
    deg = _FAR_DEGREE
    k = np.arange(1, deg + 2)
    # log(1 + a v) = sum_k log1p[k] v^k
    log1p = np.zeros(deg + 2)
    log1p[1:] = -(-a) ** k / k
    p = np.zeros(deg + 1)
    p[1:] = -big_n * log1p[2:] - (c - 0.5) * log1p[1:-1]
    for j, beta in enumerate(LOG_GAMMA_STIRLING, start=1):
        lo = 2 * j - 1
        p[lo] += big_n * beta
        # (1 + a v)^(1-2j) by its binomial series
        coef = beta * float(big_n) ** (1 - 2 * j)
        for i in range(deg - lo + 1):
            p[lo + i] -= coef
            coef *= (1 - 2 * j - i) / (i + 1) * a
    radius = max(_FAR_RADIUS, 8.0 * abs(a))
    rest = np.cumsum((np.abs(p) * radius ** -np.arange(len(p)))[::-1])
    deg = len(p) - 1 - int(np.count_nonzero(rest < 2.0 ** -60))
    p = p[:deg + 1].copy()
    p.flags.writeable = False
    const = (0.5 * (big_n - 1) * math.log(2.0 * math.pi)
             - (c - 0.5) * math.log(big_n))
    return radius, const, p


def _folded(n: int, q: float, m: int, b: np.ndarray) -> np.ndarray:
    """G(b) at nodes b >= 0 of any shape: the integrand at x = 1 + ib
    (_LINE = 1) of lambda > 0 is e^{i omega b} lambda^(n+c-2) G(b), and G
    is free of lambda, since the lambda^(i(n-1)b) of the power and the
    e^{-i omega b} leave u^(i(n-1)b).

    Nodes with b >= R take the series of ``_far_series``, one log, one
    reciprocal and one Horner sum each, and the 1/x joins its log x; the
    others take log_gamma_array at x and (n-1)x + c."""
    big_n = n - 1
    logq = math.log(q)
    logu = math.log(u_of_q(n, q))
    radius, const, poly = _far_series(n, m)
    out = np.empty(b.shape, dtype=complex)
    far = b >= radius
    bf = b[far]
    v = 1.0 / (_LINE + 1j * bf)
    s = poly[-1] * v
    for coef in poly[-2:0:-1]:
        s += coef
        s *= v
    s.real -= (m + 0.5) * 0.5 * np.log1p(bf * bf)
    s.imag -= (m + 0.5) * np.arctan(bf)
    s.real += const - big_n * logu
    out[far] = np.exp(s)
    x = _LINE + 1j * b[~far]
    size = len(x)
    lg = log_gamma_array(np.concatenate([x, big_n * x + _c_exp(n, m)]))
    out[~far] = np.exp(big_n * lg[:size] - lg[size:] - logq
                       + 1j * (big_n * logu - logq) * x.imag) / x
    return out


@lru_cache(maxsize=64)
def _axis_jet(n: int, q: float, m: int) -> np.ndarray:
    """Read-only real Taylor coefficients kappa_0 .. kappa_4 of
    K(w) = G(b), w = ib, about the axis: K = exp(Lambda) with the real jet
    Lambda(w) = N log Gamma(1 + w) - log Gamma(N + c + N w) - log q
    + w (N log u - log q) - log(1 + w), N = n-1."""
    big_n = n - 1
    order = 4
    k = np.arange(order + 1)
    logq = math.log(q)
    log_k = (big_n * np.array(LOG_GAMMA_1P[:order + 1])
             - log_gamma_jet(big_n + _c_exp(n, m), order) * float(big_n) ** k)
    log_k[0] -= logq
    log_k[1] += big_n * math.log(u_of_q(n, q)) - logq
    log_k[1:] += (-1.0) ** k[1:] / k[1:]
    kappa = jet_exp(log_k).real.copy()
    kappa.flags.writeable = False
    return kappa


def _axis_tail(kappa: np.ndarray, moments: np.ndarray, omega: np.ndarray,
               stretch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The axis tail's part of sum_j w_j (cos(omega b_j) Re G(b_j)
    - sin(omega b_j) Im G(b_j)) and of sum_j w_j |G(b_j)|, per lambda.

    There b = stretch phi < _TAIL_B and |omega b| < 1e-6: G(b) = K(ib),
    the cosine, the sine and |K(ib)| go to order b^4, and the sums become
    the moments sum_j w_j phi_j^(2p) of ``_de_rule``.  The first omitted
    terms are O(b^6), below 1e-18 |K(0)| times a Taylor coefficient."""
    k0, k1, k2, k3, k4 = kappa
    w2 = omega * omega
    s2 = stretch * stretch
    cos_m, sin_m = moments
    even = k0 * cos_m[0] + s2 * (
        -(k2 + 0.5 * k0 * w2) * cos_m[1]
        + s2 * (k4 + 0.5 * k2 * w2 + k0 * w2 * w2 / 24.0) * cos_m[2])
    odd = omega * s2 * (k1 * sin_m[1] - s2 * (k3 + k1 * w2 / 6.0) * sin_m[2])
    # |K(ib)| = k0 (1 + alpha b^2 / 2 + (beta / 2 - alpha^2 / 8) b^4)
    alpha = (k1 * k1 - 2.0 * k0 * k2) / (k0 * k0)
    beta = (k2 * k2 + 2.0 * k0 * k4 - 2.0 * k1 * k3) / (k0 * k0)
    both = cos_m + sin_m
    mag = k0 * (both[0] + s2 * (0.5 * alpha * both[1] + s2 * (
        0.5 * beta - 0.125 * alpha * alpha) * both[2]))
    return even - odd, mag


def _de_nodes(h: float) -> tuple:
    """M = pi/h, then phi(t) and h phi'(t) at the sine nodes t = kh
    followed by the cosine nodes t = (k+1/2)h, _DE_TLO <= t <= _DE_THI,
    and the number of sine nodes.

    phi(t) = t / (1 - exp(-g)), g = 2 pi t + alpha (1 - e^{-t})
    + beta (e^t - 1), tends to t fast as t -> inf, so M phi(kh) and
    M phi((k+1/2)h) approach the zeros of sin and cos; it tends to 0
    double-exponentially as t -> -inf.
    """
    big_m = math.pi / h
    beta = _DE_BETA
    alpha = beta / math.sqrt(1.0 + big_m * math.log1p(big_m)
                             / (4.0 * math.pi))
    lo, hi = int(round(_DE_TLO / h)), int(round(_DE_THI / h))
    t = np.concatenate([np.arange(lo, hi + 1) * h,
                        (np.arange(lo, hi) + 0.5) * h])
    g = 2.0 * math.pi * t - alpha * np.expm1(-t) + beta * np.expm1(t)
    dg = 2.0 * math.pi + alpha * np.exp(-t) + beta * np.exp(t)
    one_minus = -np.expm1(-g)
    zero = t == 0.0
    safe = np.where(zero, 1.0, one_minus)
    phi = t / safe
    dphi = (one_minus - t * np.exp(-g) * dg) / safe ** 2
    # limits at t = 0 (g = 0 there), needed by the sine sum
    a = 2.0 * math.pi + alpha + beta
    phi[zero] = 1.0 / a
    dphi[zero] = ((alpha - beta) + a * a) / (2.0 * a * a)
    return big_m, phi, h * dphi, hi - lo + 1


@lru_cache(maxsize=None)
def _de_rule(h: float) -> tuple:
    """The rule of ``_de_nodes`` as it is evaluated: M, phi and the
    weights at the nodes evaluated, sine nodes first, the number of those
    sine nodes, and the moments of the axis tail; the arrays are
    read-only.

    The nodes with M phi / _OMEGA_FLOOR < _TAIL_B, the lowest t of each
    kind, are the axis tail, where b < _TAIL_B at every lambda: the rule
    keeps of them only the moments sum_j w_j phi_j^(2p), p = 0, 1, 2, of
    the cosine nodes (row 0) and of the sine nodes (row 1).
    """
    big_m, phi, weights, nsin = _de_nodes(h)
    tail = big_m / _OMEGA_FLOOR * phi < _TAIL_B
    sine = np.arange(len(phi)) < nsin
    moments = np.array([[weights[part] @ phi[part] ** (2 * p)
                         for p in range(3)]
                        for part in (tail & ~sine, tail & sine)])
    rule = (phi[~tail], weights[~tail], moments)
    for arr in rule:
        arr.flags.writeable = False
    return (big_m, rule[0], rule[1], int(np.count_nonzero(~tail[:nsin])),
            moments)


def _real_lams(lams) -> np.ndarray:
    """lams as a float array; ValueError unless real and positive."""
    lams = np.asarray(lams)
    if np.any(np.imag(lams) != 0.0) or not np.all(np.real(lams) > 0.0):
        raise ValueError("Phi is taken at real positive lambda")
    return np.real(lams).astype(float)


def _phi_de(n: int, q: float, m: int, lams: np.ndarray,
            h: float) -> tuple[np.ndarray, np.ndarray]:
    """Phi at each real positive lambda by the Ooura-Mori rule of step h on
    Re x = _LINE, and the scale pref sum_j w_j |F(b_j)| + |F(-b_j)| of its
    roundoff.

    Phi = pref int F(b) db over the whole line, F(b) = e^{i omega b} H(b)
    (x = _LINE + ib).  For real lambda H(-b) = conj H(b), so folding
    b -> -b gives int_0^inf of 2 cos(omega b) Re H(b) - 2 sin(omega b) Im H(b):
    the cosine part goes to the cosine nodes, the sine part to the sine
    nodes, on b = M phi(t) / max(|omega|, _OMEGA_FLOOR).  H is
    lambda^(n+c-2) times the lambda-free G of ``_folded``, so each node
    takes G from the cheapest form of its band: the moments of the axis
    tail (``_axis_tail``), the far series, or log Gamma.  Each lambda has
    its own nodes; the integrands of up to _MB_BLOCK nodes are formed as
    one (lambdas, nodes) array, and each lambda's sums are its own row's,
    so a value does not depend on the other lambdas of the call.
    """
    big_m, phi, weights, nsin, moments = _de_rule(h)
    logu = math.log(u_of_q(n, q))
    kappa = _axis_jet(n, q, m)
    power = (n - 1) * _LINE + _c_exp(n, m) - 1.0
    pref = (2.0 * math.pi) ** ((1 - n) / 2.0)
    vals = np.empty(len(lams), dtype=complex)
    mags = np.empty(len(lams))
    rows = max(1, _MB_BLOCK // len(phi))
    for lo in range(0, len(lams), rows):
        # rounded as in phi_residue_series
        loglam = np.array([cmath.log(lam).real for lam in lams[lo:lo + rows]])
        omega = (n - 1) * (loglam - logu)
        stretch = big_m / np.maximum(np.abs(omega), _OMEGA_FLOOR)
        b = stretch[:, None] * phi
        theta = omega[:, None] * b
        g = _folded(n, q, m, b)
        even = np.cos(theta[:, nsin:]) * g.real[:, nsin:]
        odd = np.sin(theta[:, :nsin]) * g.imag[:, :nsin]
        modulus = np.abs(g)
        tail, tail_mag = _axis_tail(kappa, moments, omega, stretch)
        norm = 2.0 * pref * stretch * lams[lo:lo + rows] ** power
        for i in range(len(norm)):
            vals[lo + i] = norm[i] * (even[i] @ weights[nsin:]
                                      - odd[i] @ weights[:nsin] + tail[i])
            mags[lo + i] = norm[i] * (modulus[i] @ weights + tail_mag[i])
    return vals, mags


@lru_cache(maxsize=256)
def _probe(n: int, q: float, m: int, lam: float,
           h: float) -> tuple[complex, float]:
    """Phi at one lambda by the rule of step h and its roundoff scale, as
    numbers.  Cached because every ``make_mb_config`` call for (n, q, m)
    probes the edge lambda = u(q) at the same h sequence, whatever its
    lam_max; a value does not depend on the other lambdas of a
    ``_phi_de`` call, so a cached one is the bits a batch would give."""
    vals, mags = _phi_de(n, q, m, np.array([lam]), h)
    return complex(vals[0]), float(mags[0])


def make_mb_config(n: int, q: float, m: int, lam_max: float,
                   tol: float) -> MBConfig:
    """Halve the step h from _DE_H0 until |I_h - I_2h| <= tol, or until it
    is down to the roundoff bound of I_h where that is above tol.

    Both are taken at the edge lambda = u, where the oscillation stops and
    the rule converges slowest, and at lam_max; the error estimate is the
    larger of |I_h - I_2h| + roundoff there, so it exceeds tol only when
    roundoff sets the floor.  h = _DE_H0 only serves as I_2h: that rule is
    too coarse to be in its asymptotic regime, and the difference can come
    out small by accident.  Each probe is read one lambda at a time through
    ``_probe``, which keeps the last 256 by (n, q, m, lambda, h): the h
    sequence does not depend on lam_max, so the u probes of one (n, q, m)
    repeat from call to call."""
    if m <= 0.5:
        raise ValueError("contour needs m > 1/2 for a decaying integrand")
    if q <= 0:
        raise ValueError("q must be real positive")
    probes = sorted({u_of_q(n, q), float(lam_max)})

    def read(h: float) -> tuple[np.ndarray, np.ndarray]:
        vals, mags = zip(*(_probe(n, q, m, lam, h) for lam in probes))
        return np.array(vals), np.array(mags)

    h = _DE_H0
    coarse, _ = read(h)
    for _ in range(_DE_HALVINGS):
        h /= 2.0
        fine, magnitude = read(h)
        roundoff = _ROUNDOFF_UNITS * np.finfo(float).eps * magnitude
        diff = np.abs(fine - coarse)
        est = float(np.max(diff + roundoff))
        # a finer rule cannot push the difference below its roundoff
        if np.all(diff <= np.maximum(tol, roundoff)):
            return MBConfig(h=h, nodes=len(_de_rule(h)[1]),
                            error_estimate=est)
        coarse = fine
    raise NumericsError("quadrature error %g not reachable (%g at h = %g)"
                        % (tol, est, h))


def _gl_panels(lo: float, hi: float,
               npanels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi] in equal panels."""
    edges = np.linspace(lo, hi, npanels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * _GL_X[None, :]).ravel()
    weights = np.broadcast_to(half * _GL_W[None, :],
                              (npanels, _GL_NODES)).ravel()
    return nodes, weights


def phi_mb_batch(n: int, q: float, m: int, lams: np.ndarray,
                 cfg: MBConfig) -> np.ndarray:
    """Phi at an array of real positive lambda by the contour rule of
    ``cfg``; ValueError for any other lambda."""
    return _phi_de(n, q, m, _real_lams(lams), cfg.h)[0]


def _log_lead(x: float) -> complex:
    """log of the first nonzero Taylor coefficient of 1/Gamma at real x:
    (-1)^k k! at x = -k (k = 0, 1, ..), and elsewhere 1/Gamma(x), which is
    negative where x < 0 and floor(x) is odd."""
    r = round(x)
    if r <= 0 and abs(x - r) < 1e-9:
        return complex(math.lgamma(1.0 - r), math.pi * (-r % 2))
    negative = x < 0.0 and math.floor(x) % 2 == 1
    return complex(-math.lgamma(x), math.pi if negative else 0.0)


def _rows_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row truncated Cauchy product of two stacks of jets."""
    out = np.zeros_like(a)
    size = a.shape[1]
    for j in range(size):
        out[:, j:] += a[:, j:j + 1] * b[:, :size - j]
    return out


@lru_cache(maxsize=64)
def _residue_table(n: int, q: float, m: int, terms: int) -> tuple:
    """Lambda-independent residue data at the poles x = -d, d < terms, as
    read-only arrays (exponent, log_scale, p): the d-th residue is
    exp(log_scale[d] + exponent[d] log lam) sum_t p[d, t] log(lam)^t, the
    rows of p padded with zeros to n entries.  The pole has order n-1 from
    Gamma(x)^{n-1}, plus one at d = 0 from the 1/x.

    At x = -d + w the Laurent data are jets in w to order n-1.  Each jet is
    kept unit-leading (first nonzero coefficient 1) and the log of its
    leading coefficient, from math.lgamma, goes to log_scale: the 1/Gamma
    factor alone overflows a double at large d while the residue with its
    lambda power stays finite.  The jets move from pole to pole by linear
    factors: w Gamma(-d+w) = w Gamma(-d+1+w) / (w - d), so the unit jet of
    (w Gamma(-d+w))^{n-1} picks up (1 - w/d)^{-(n-1)}; and with
    c_d = c - (n-1) d, 1/Gamma(c_d + w) is (c_d + w) .. (c_d + n-2 + w)
    times 1/Gamma(c_{d-1} + w), one shift-add per factor.  The 1/Gamma
    chain starts from ``recip_gamma_jet(c, n-1)`` over its first nonzero
    coefficient, whether c is an integer or not.
    """
    size = n
    c = _c_exp(n, m)
    logq = math.log(q)
    powers = np.arange(size)
    # (1 - w/d)^{-(n-1)} = sum_k binom(n-2+k, k) (w/d)^k
    binom = np.array([math.comb(n - 2 + k, k) for k in range(size)],
                     dtype=float)
    # q^{-w} (w Gamma(w))^{n-1} = exp(-w log q + (n-1) log Gamma(1+w))
    log_gam = (n - 1) * np.array(LOG_GAMMA_1P[:size], dtype=complex)
    log_gam[1] -= logq
    gam = jet_exp(log_gam)
    # real at real c, and a real division makes the leading 1 exact
    recip = recip_gamma_jet(c, size - 1).real
    recip = recip / recip[np.flatnonzero(recip)[0]]
    scale = (n - 1.0) ** powers
    gams = np.empty((terms, size), dtype=complex)
    recips = np.empty((terms, size), dtype=complex)
    log_scales = np.empty(terms, dtype=complex)
    for d in range(terms):
        center = c - (n - 1) * d
        if d:
            gam = jet_mul(gam, binom * (1.0 / d) ** powers)
            for j in range(n - 1):
                if center + j == 0.0:
                    recip = np.concatenate(([0.0], recip[:-1]))
                else:
                    recip[1:] += recip[:-1] / (center + j)
        lead = _log_lead(center)
        rounded = round(center)
        if (abs(center - rounded) < 1e-9 and rounded <= 0
                and lead.real + math.log(np.max(np.abs(recip * scale)))
                > _LOG_DBL_MAX):
            raise NumericsError(
                "residue term %d overflows at center %d; reduce terms"
                % (d, rounded))
        gams[d] = gam
        recips[d] = recip
        log_scales[d] = d * logq - (n - 1) * _log_lead(-d) + lead
    prod = _rows_mul(gams, recips * scale)
    # 1/x = 1/(-d + w) = -(1/d) sum_t (w/d)^t at d >= 1; at d = 0 the 1/w
    # raises the pole order
    inv = 1.0 / np.arange(1, terms)
    prod[1:] = _rows_mul(prod[1:], -inv[:, None] ** (powers + 1))
    coef = scale / np.array([math.factorial(t) for t in range(size)])
    poly = np.zeros((terms, n), dtype=complex)
    poly[0] = prod[0, ::-1] * coef
    poly[1:, :n - 1] = prod[1:, n - 2::-1] * coef[:n - 1]
    table = (-(n - 1) * np.arange(terms) + c - 1.0, log_scales, poly)
    for arr in table:
        arr.flags.writeable = False
    return table


def phi_residue_series(n: int, q: float, m: int, lam, terms: int = 60):
    """Residue series of Phi at real lambda > u(q), a number or an array,
    its poles summed in order for every lambda at once."""
    if q <= 0:
        raise ValueError("q must be real positive")
    lams = _real_lams(lam)
    if np.any(lams <= u_of_q(n, q)):
        raise ValueError("residue series needs lambda > u(q)")
    expo, log_scale, poly = _residue_table(n, q, m, terms)
    # cmath's log and an unfused complex product: numpy's log and complex
    # multiply round differently, and the payloads print these bits
    loglam = np.array([cmath.log(v).real for v in lams.flat])
    total = np.empty(loglam.size, dtype=complex)
    for lo in range(0, loglam.size, _SERIES_BLOCK):
        ll = loglam[lo:lo + _SERIES_BLOCK]
        val = np.zeros((terms, ll.size), dtype=complex)
        for t in range(n - 1, -1, -1):
            val = val * ll + poly[:, t, None]
        arg = log_scale[:, None] + expo[:, None] * ll
        e = np.where(arg.real < -745.0, 0.0, np.exp(arg))
        total[lo:lo + _SERIES_BLOCK] = (
            np.cumsum(e.real * val.real - e.imag * val.imag, axis=0)[-1]
            + 1j * np.cumsum(e.real * val.imag + e.imag * val.real,
                             axis=0)[-1])
    pref = (2.0 * math.pi) ** ((1 - n) / 2.0)
    out = (2.0 * math.pi * pref * total).reshape(lams.shape)
    return complex(out) if out.ndim == 0 else out


def zero_region_scan(n: int, q: float, m: int, npts: int = 20,
                     tol: float = 1e-7) -> dict:
    """Max |Phi| over a grid in the vanishing window 0 < lambda <= u(q)."""
    u = u_of_q(n, q)
    lams = u * np.linspace(0.05, 1.0, npts)
    cfg = make_mb_config(n, q, m, u, tol)
    vals = phi_mb_batch(n, q, m, lams, cfg)
    return {"max_abs": float(np.max(np.abs(vals))), "config": cfg,
            "lambdas": lams, "values": vals}


def local_exponent_fit(n: int, q: float, m: int) -> dict:
    """Least-squares slope of log|Phi(u+s)| against log s.

    The s-grid has 9 geometric points with upper edge 0.1 u(q).  The lower edge
    adapts to the expected decay rate so the smallest sampled value stays
    above the float64 quadrature noise floor; a steeper local power needs
    a shallower window.  A coefficient of determination below 0.999
    raises FitQualityError instead of returning a number that looks like
    an exponent.
    """
    u = u_of_q(n, q)
    s_hi = 0.1 * u
    rough_cfg = make_mb_config(n, q, m, u * 1.2, 1e-8)
    rough = abs(complex(phi_mb_batch(n, q, m, np.array([u + s_hi]),
                                     rough_cfg)[0]))
    noise_floor = 1e-11
    s_lo = s_hi * (noise_floor / rough) ** (1.0 / (m - 0.5))
    s_lo = min(max(s_lo, 1e-3 * u), 2e-2 * u)
    s = np.geomspace(s_lo, s_hi, 9)
    target = max(rough * (s[0] / s[-1]) ** (m - 0.5) * 1e-2, 1e-13)
    cfg = make_mb_config(n, q, m, u * 1.2, target)
    vals = np.abs(phi_mb_batch(n, q, m, u + s, cfg))
    x = np.log(s)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    if r2 < 0.999:
        raise FitQualityError("exponent fit r^2 = %.6f" % r2)
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2,
            "config": cfg}


# ---------------------------------------------------------------------------
# the inversion-integral cross checks
# ---------------------------------------------------------------------------

def _gamma_line(n: int, q: float) -> tuple:
    """Nodes x on Re x = 1, |Im x| <= 40 (160 panels), their weights, and
    q^{-x} Gamma(x)^{n-1} there; the cut drops less than e^{-115} / q."""
    b, w = _gl_panels(-40.0, 40.0, 160)
    x = _LINE + 1j * b
    return x, w, np.exp((n - 1) * log_gamma_array(x) - x * math.log(q))


# sigma = t_1 + .. + t_d: its box [lo, hi] and panels per n (about 3 wide),
# and for n = 4 the cut and panels of tau, t = sigma/2 +- u with u a
# stretch of tau
_SIGMA_BOX = {3: (-40.0, 10.0, 17), 4: (-50.0, 10.0, 20)}
_TAU_BOX = (0.0, 36.0, 12)


@lru_cache(maxsize=None)
def _torus_rule(n: int) -> tuple:
    """w F_d(sigma) and e^{-sigma} on the sigma nodes, read-only, where
    F_d(sigma) is the q-free part of the log-torus integrand summed over
    the slice t_1 + .. + t_d = sigma (d = n - 2, unit Jacobian).

    F_1(sigma) = exp(-e^sigma).  F_2(sigma) = 2 int_0^inf exp(-2 e^{sigma/2}
    cosh u) du, from t = sigma/2 +- u; its peak at u = 0 narrows as
    e^{-sigma/4} past sigma = 0, so u = e^{-max(sigma, 0)/4} tau keeps it
    on the panels of tau.  The tau sum runs one panel at a time: a whole
    sigma x tau block would be one more large temporary.
    """
    sigma, w = _gl_panels(*_SIGMA_BOX[n])
    if n == 3:
        prof = np.exp(-np.exp(sigma))
    else:
        amp = 2.0 * np.exp(0.5 * sigma)
        stretch = np.exp(-0.25 * np.maximum(sigma, 0.0))
        tau, wt = _gl_panels(*_TAU_BOX)
        prof = np.zeros_like(sigma)
        for tp, wp in zip(tau.reshape(-1, _GL_NODES),
                          wt.reshape(-1, _GL_NODES)):
            prof += np.exp(-amp[:, None] * np.cosh(np.outer(stretch, tp))) @ wp
        prof *= 2.0 * stretch
    rule = (w * prof, np.exp(-sigma))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def oscillatory_j(n: int, q: float) -> float:
    """The same J(q) as an oscillation-free integral over log-tori,
    int exp(-(e^{t_1} + .. + e^{t_d} + q e^{-t_1-..-t_d})) dt with d = n - 2,
    as int F_d(sigma) exp(-q e^{-sigma}) dsigma on the nodes of
    ``_torus_rule``: sigma in [-40, 10] (n = 3) or [-50, 10] (n = 4).

    Truncation, each face falling doubly exponentially beyond it: on the
    upper sigma face the profile is F_1(10) = exp(-e^10) or
    F_2(10) ~ e^{-298}; on the lower one the q factor is exp(-q e^{40}) or
    exp(-q e^{50}); the u cut drops at most exp(-e^{11}), at sigma = -50.
    """
    if n not in _SIGMA_BOX:
        raise ValueError("oscillatory route implemented for n in {3, 4}")
    wprof, inv = _torus_rule(n)
    return float(wprof @ np.exp(-q * inv))


def inversion_consistency(n: int, q: float) -> dict:
    """Two routes to int q^{-x} Gamma(x)^{n-1} dx / x on the vertical line.

    Left: 2 pi i times int_0^inf J(q e^v) dv, J by ``oscillatory_j``, on six
    panels over [0, vmax].  Right: the contour rule of ``_gamma_line``.  The
    two share no integrand, so agreement pins the contour bookkeeping.
    ``j_calls`` counts the J evaluations and ``j_nodes`` the sigma nodes
    they summed.
    """
    vmax = max(9.0, math.log(4000.0 / q))
    v, wv = _gl_panels(0.0, vmax, 6)
    outer = 0.0
    calls = 0
    for vk, wk in zip(v, wv):
        s = q * math.exp(vk)
        # crude superexponential bound: skip points that cannot matter
        if (n - 1) * s ** (1.0 / (n - 1)) > 45.0 + math.log1p(s):
            continue
        outer += wk * oscillatory_j(n, s)
        calls += 1
    lhs = 2j * math.pi * outer

    x, w, vals = _gamma_line(n, q)
    rhs = 1j * complex((vals / x) @ w)
    return {"lhs": lhs, "rhs": rhs, "abs_diff": abs(lhs - rhs),
            "rel_diff": abs(lhs - rhs) / max(abs(rhs), 1e-300),
            "j_calls": calls, "j_nodes": calls * len(_torus_rule(n)[0])}


# Laplace variables of the spot check
_LAPLACE_S = (0.5, 1.0, 2.0)


def laplace_spot_check(n: int, q: float, m: int) -> dict:
    """Laplace transform of Phi from the lambda side against the contour
    side, at s in _LAPLACE_S.

    Left: quadrature of exp(-lambda s) Phi(lambda) over [u, Lambda + 15/s_min],
    with Lambda = 1.5 u + 30/s_min.  Right: the contour integral with the
    lambda-power replaced by its Laplace image s^{n/2 - (n-1)x - m - 1/2}.
    Lambda values are produced by the contour only on the edge region
    [u, 1.5 u], where the residue series has not kicked in; past that the
    series is used on 20 and 6 equal panels (the two agree to ~1e-14 on the
    overlap, far below the 1e-4 target here).  `extension_sensitivity`, the
    change from stopping the left side at Lambda instead, bounds its
    truncation.

    On the edge Phi(u + t) = t^{m - 1/2} (a_0 + a_1 t + ...), the local form
    at a regular singular point, so equal panels in lambda would converge
    only algebraically at u.  The edge is one 32-node panel in tau in
    [0, 1] with lambda = u + (1.5 u - u) tau^2 and weight 2 (1.5 u - u) tau:
    the integrand is then tau^{2m} times a function smooth in tau, and the
    rule converges geometrically.
    """
    u = u_of_q(n, q)
    smin = min(_LAPLACE_S)
    lam_break = 1.5 * u
    lam_max = lam_break + 30.0 / smin
    cfg = make_mb_config(n, q, m, lam_break, 3e-6)

    def lhs_on(lams: np.ndarray, wts: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.array([np.sum(wts * np.exp(-lams * s) * g)
                         for s in _LAPLACE_S])

    def series_on(lo: float, hi: float, npan: int) -> np.ndarray:
        lams, wts = _gl_panels(lo, hi, npan)
        return lhs_on(lams, wts, phi_residue_series(n, q, m, lams))

    tau, wtau = _gl_panels(0.0, 1.0, 1)
    width = lam_break - u
    edge = u + width * tau ** 2
    lhs_narrow = (lhs_on(edge, 2.0 * width * tau * wtau,
                         phi_mb_batch(n, q, m, edge, cfg))
                  + series_on(lam_break, lam_max, 20))
    lhs = lhs_narrow + series_on(lam_max, lam_max + 15.0 / smin, 6)

    x, w, vals = _gamma_line(n, q)
    pref = (2.0 * math.pi) ** ((1 - n) / 2.0)
    rhs = np.array([pref * complex((vals / x * np.exp(
        (n / 2.0 - (n - 1) * x - m - 0.5) * math.log(s))) @ w)
        for s in _LAPLACE_S])

    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    sens = np.max(np.abs(lhs - lhs_narrow) / np.maximum(np.abs(rhs), 1e-300))
    return {"s_values": list(_LAPLACE_S), "lhs": lhs, "rhs": rhs,
            "rel_errors": rel, "extension_sensitivity": float(sens),
            "config": cfg}
