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
step h by halving.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special

from .numerics import (NumericsError, jet_exp, jet_mul, jet_recip,
                       log_gamma_jet, recip_gamma_jet)

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
# roundoff of a rule sum, in units of eps * sum_j w_j |F(b_j)|: at most 5
# against h = 0.003125 for h = 0.025..0.00625, n = 3, 4, m = 3..8,
# q = 0.3..2 and lambda = 0.05u..4u
_ROUNDOFF_UNITS = 16.0
# lambdas per block of the residue series, which keeps its arrays small
_SERIES_BLOCK = 64


class FitQualityError(NumericsError):
    pass


@dataclass
class MBConfig:
    """Step h of the Ooura-Mori rule on Re x = _LINE, its nodes per
    lambda, and the error estimate of ``make_mb_config``."""
    h: float
    nodes: int
    error_estimate: float


def u_of_q(n: int, q: float) -> float:
    """Principal real root (n-1) q^{1/(n-1)} bounding the vanishing region."""
    return (n - 1) * q ** (1.0 / (n - 1))


def _c_exp(n: int, m: int) -> float:
    return m + 0.5 - n / 2.0


def _log_integrand(n: int, q: float, m: int, x: np.ndarray) -> np.ndarray:
    """log of q^{-x} Gamma(x)^{n-1} / (Gamma((n-1)x+c) x), lambda part left out."""
    c = _c_exp(n, m)
    return ((n - 1) * scipy.special.loggamma(x)
            - scipy.special.loggamma((n - 1) * x + c)
            - x * math.log(q) - np.log(x))


@lru_cache(maxsize=None)
def _de_rule(h: float) -> tuple:
    """M = pi/h, then phi(t) and h phi'(t) at the sine nodes t = kh
    followed by the cosine nodes t = (k+1/2)h, _DE_TLO <= t <= _DE_THI,
    and the number of sine nodes; the arrays are read-only.

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
    weights = h * dphi
    for arr in (phi, weights):
        arr.flags.writeable = False
    return big_m, phi, weights, hi - lo + 1


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
    (x = _LINE + ib).  Folding b -> -b gives int_0^inf of
    cos(omega b) (H(b) + H(-b)) + i sin(omega b) (H(b) - H(-b)): the
    cosine part goes to the cosine nodes, the sine part to the sine nodes,
    on b = M phi(t) / max(|omega|, _OMEGA_FLOOR).  For real lambda
    H(-b) = conj H(b).
    """
    big_m, phi, weights, nsin = _de_rule(h)
    logu = math.log(u_of_q(n, q))
    c = _c_exp(n, m)
    pref = (2.0 * math.pi) ** ((1 - n) / 2.0)
    vals = np.empty(len(lams), dtype=complex)
    mags = np.empty(len(lams))
    # one lambda at a time: each has its own nodes
    for i, lam in enumerate(lams):
        loglam = cmath.log(lam).real  # rounded as in phi_residue_series
        omega = (n - 1) * (loglam - logu)
        stretch = big_m / max(abs(omega), _OMEGA_FLOOR)
        b = stretch * phi
        x = _LINE + 1j * b
        theta = omega * b
        h_pos = np.exp(_log_integrand(n, q, m, x)
                       + loglam * ((n - 1) * x + c - 1) - 1j * theta)
        h_neg = np.conj(h_pos)
        odd = 1j * np.sin(theta[:nsin]) * (h_pos[:nsin] - h_neg[:nsin])
        even = np.cos(theta[nsin:]) * (h_pos[nsin:] + h_neg[nsin:])
        norm = pref * stretch
        vals[i] = norm * (odd @ weights[:nsin] + even @ weights[nsin:])
        mags[i] = norm * ((np.abs(h_pos) + np.abs(h_neg)) @ weights)
    return vals, mags


def make_mb_config(n: int, q: float, m: int, lam_max: float,
                   tol: float) -> MBConfig:
    """Halve the step h from _DE_H0 until |I_h - I_2h| <= tol, or until it
    is down to the roundoff bound of I_h where that is above tol.

    Both are taken at the edge lambda = u, where the oscillation stops and
    the rule converges slowest, and at lam_max; the error estimate is the
    larger of |I_h - I_2h| + roundoff there, so it exceeds tol only when
    roundoff sets the floor.  h = _DE_H0 only serves as I_2h: that rule is
    too coarse to be in its asymptotic regime, and the difference can come
    out small by accident."""
    if m <= 0.5:
        raise ValueError("contour needs m > 1/2 for a decaying integrand")
    if q <= 0:
        raise ValueError("q must be real positive")
    probes = np.unique([u_of_q(n, q), float(lam_max)])
    h = _DE_H0
    coarse, _ = _phi_de(n, q, m, probes, h)
    for _ in range(_DE_HALVINGS):
        h /= 2.0
        fine, magnitude = _phi_de(n, q, m, probes, h)
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


@lru_cache(maxsize=64)
def _residue_table(n: int, q: float, m: int, terms: int) -> tuple:
    """Lambda-independent residue data at the poles x = -d, d < terms, as
    read-only arrays (exponent, log_scale, p): the d-th residue is
    exp(log_scale[d] + exponent[d] log lam) sum_t p[d, t] log(lam)^t, the
    rows of p padded with zeros to n entries.  The pole has order n-1 from
    Gamma(x)^{n-1}, plus one at d = 0 from the 1/x; its Laurent data comes
    from jets of the entire function 1/Gamma.  log_scale holds the
    magnitude, because the 1/Gamma factor alone overflows a double at
    large d while the residue with its lambda power stays finite.
    """
    order = n + 1
    c = _c_exp(n, m)
    logq = math.log(q)
    qjet = np.array([(-logq) ** t / math.factorial(t)
                     for t in range(order + 1)], dtype=complex)
    scale = np.array([(n - 1.0) ** t for t in range(order + 1)])
    expo = np.empty(terms)
    log_scales = np.empty(terms, dtype=complex)
    poly = np.zeros((terms, n), dtype=complex)
    for d in range(terms):
        # regular part of Gamma(-d+w): w Gamma has jet 1/shifted(1/Gamma),
        # a leading magnitude times a unit-leading jet
        rg = recip_gamma_jet(-d, order + 1)
        rg1 = rg[1]
        gamma_reg = jet_recip(rg[1:order + 2] / rg1)
        log_scale = -(n - 1) * np.log(complex(rg1)) + d * logq
        prod = gamma_reg.copy()
        for _ in range(n - 2):
            prod = jet_mul(prod, gamma_reg)
        center = c - (n - 1) * d
        rounded = round(center)
        if abs(center - rounded) < 1e-9 and rounded <= 0:
            # zero of 1/Gamma: finite jet, pull out its first nonzero entry
            gjet = recip_gamma_jet(rounded, order) * scale
            if not np.all(np.isfinite(gjet)):
                raise NumericsError(
                    "residue term %d overflows at center %d; reduce terms"
                    % (d, rounded))
            nz = int(np.flatnonzero(np.abs(gjet) > 0.0)[0])
            s0 = gjet[nz]
            gjet = gjet / s0
            log_scale += np.log(complex(s0))
        else:
            lg = log_gamma_jet(center, order)
            lg0 = lg.copy()
            lg0[0] = 0.0
            gjet = jet_exp(-lg0) * scale
            log_scale -= lg[0]
        prod = jet_mul(prod, jet_mul(qjet, gjet))
        if d == 0:
            idx = n - 1
        else:
            xinv = np.array([-(1.0 / d) * d ** (-t)
                             for t in range(order + 1)], dtype=complex)
            prod = jet_mul(prod, xinv)
            idx = n - 2
        expo[d] = -(n - 1) * d + c - 1
        log_scales[d] = log_scale
        poly[d, :idx + 1] = [complex(prod[idx - t]) * (n - 1.0) ** t
                             / math.factorial(t) for t in range(idx + 1)]
    table = (expo, log_scales, poly)
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
    return x, w, np.exp((n - 1) * scipy.special.loggamma(x) - x * math.log(q))


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
    series is used (the two agree to ~1e-14 on the overlap, far below the
    1e-4 target here).  `extension_sensitivity`, the change from stopping
    the left side at Lambda instead, bounds its truncation.
    """
    u = u_of_q(n, q)
    smin = min(_LAPLACE_S)
    lam_break = 1.5 * u
    lam_max = lam_break + 30.0 / smin
    cfg = make_mb_config(n, q, m, lam_break, 3e-6)

    def lhs_on(lo: float, hi: float, npan: int) -> np.ndarray:
        # every panel lies wholly on one side of lam_break
        lams, wts = _gl_panels(lo, hi, npan)
        if hi <= lam_break:
            g = phi_mb_batch(n, q, m, lams, cfg)
        else:
            g = phi_residue_series(n, q, m, lams)
        return np.array([np.sum(wts * np.exp(-lams * s) * g)
                         for s in _LAPLACE_S])

    lhs_narrow = lhs_on(u, lam_break, 8) + lhs_on(lam_break, lam_max, 20)
    lhs = lhs_narrow + lhs_on(lam_max, lam_max + 15.0 / smin, 6)

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
