"""Loop construction, monodromy of the period matrix, and reflection
vectors.

A loop is a value, Loop(arc, way_in, circle): out from the base point
lambda_0 = 2(n-1) q^{1/(n-1)} along a clockwise arc of the big circle,
in along a radial segment to MEET u_k, once counterclockwise around the
circle about the chosen singular point u_k that starts there, and back
the same way.  Monodromy acts on the right: I_continued = I_base . C, so
concatenating loops multiplies their matrices in path order.

No ODE is continued.  The period series converges on the arc and the
way in, so it is summed at the way in's end on the branch the arc's
angle psi reaches.  At a semisimple point the connection has a simple
pole at u_k with rank-one residue, so its local solutions are a
Frobenius series in lambda - u_k, which converges there too.  The turn
multiplies the one solution that is not holomorphic at u_k by
exp(2 pi i r), and the reflection's direction is read off that solution.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cohomology import (SpaceModel, euler_pairing, exceptional_sheaf,
                         intersection_pairing, line_bundle, make_blproj,
                         make_proj, psi_map)
from .numerics import BranchState, NumericsError, principal_branch
from .periods import GUARD_FACTOR, SERIES_CAP, fundamental_solution
from .quantum import (QuantumProduct, SSeries, quantum_mult_proj,
                      sseries_proj)
from . import numerics

# tolerance of the base-point period series that starts each loop
BASE_SERIES_TOL = 1e-12
# bound on the "exponent" and "reflection" gates of a loop
EIG_TOL = 1e-4
# each loop's way in ends at MEET u_k, where both series converge: past
# the period series' guard radius GUARD_FACTOR max|u| = 1.5 (n-1)|w|, and
# MEET - 1 = 0.55 < 2 sin(pi/(n-1)) inside the local disc about u_k, whose
# radius is 2 (n-1)|w| sin(pi/(n-1)), for every n <= 12
MEET = 1.55


class IllConditionedError(NumericsError):
    pass


@dataclass
class MonodromyResult:
    matrix: np.ndarray
    direction: np.ndarray
    residuals: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def base_radius(n: int) -> float:
    return 2.0 * (n - 1)


class Segment(NamedTuple):
    start: complex
    end: complex


class Arc(NamedTuple):
    """Circular arc center + radius*exp(i*angle), angle from angle0 to angle1
    (counterclockwise when angle1 > angle0)."""

    center: complex
    radius: float
    angle0: float
    angle1: float

    def point(self, t: float) -> complex:
        a = self.angle0 + (self.angle1 - self.angle0) * t
        return self.center + self.radius * cmath.exp(1j * a)

    @property
    def start(self) -> complex:
        return self.point(0.0)

    @property
    def end(self) -> complex:
        return self.point(1.0)


class Loop(NamedTuple):
    """The loop gamma_k: out along arc, about 0 from the base point (of no
    length at k = 0), in along way_in, once counterclockwise around circle
    about u_k, and back the same way, which is implied."""

    arc: Arc
    way_in: Segment
    circle: Arc


def gamma_loop(n: int, q_log: complex, k: int) -> Loop:
    """The loop around the k-th singular point u_k, based at
    2(n-1)q^{1/(n-1)}, whose way in ends at MEET u_k on the circle of
    radius (MEET - 1)|u_k| about u_k.  ValueError where that circle reaches
    another u_i, which is where the period series and the local series
    about u_k stop overlapping: n >= 13.
    """
    if not 0 <= k <= n - 2:
        raise ValueError("loop index k out of range [0, n-2]")
    if MEET - 1.0 >= 2.0 * math.sin(math.pi / (n - 1)):
        raise ValueError("no overlap of the period series and the local "
                         "series at n = %d" % n)
    lam0 = base_radius(n)
    phi = -2.0 * math.pi * k / (n - 1)
    direction = cmath.exp(1j * phi)
    w = cmath.exp(complex(q_log) / (n - 1))
    # the loop at q = 1 times w: radii times |w|, angles plus arg w
    rot, mag = cmath.phase(w), abs(w)
    # every arc starts at one base point, bit for bit (k = 0: no length)
    arc = Arc(0.0 * w, lam0 * mag, 0.0 + rot, phi + rot)
    outer = lam0 * direction * w if k > 0 else arc.start
    circle = Arc((n - 1) * direction * w, (MEET - 1.0) * (n - 1) * mag,
                 phi + rot, phi + 2.0 * math.pi + rot)
    # the way in ends exactly where the circle starts, so I_in and the
    # local solutions are read at one point
    return Loop(arc, Segment(outer, circle.start), circle)


def _local_solutions(u: np.ndarray, ut: np.ndarray, k: int,
                     x: complex) -> tuple[np.ndarray, float, int]:
    """The local solutions about the simple pole u_k, in the eigenbasis of E.

    Column k is x^-r times the solution with exponent r = ut_kk, the others
    the holomorphic solutions, which start in the kernel of row k of ut.
    With T_J = Z_J x^J, a column of exponent rho (r in column k, else 0)
    steps as T_{J+1} = B_J T_J, B_J = A_J + e_k row_k A_J / (J + 1 + rho - r):
    A_J = x diag(1/(g_i (J + 1 + rho))) (ut - J - rho) with row k zeroed,
    g_i = u_k - u_i, and row_k is row k of ut without ut_kk.  The series
    converges out to the nearest other u_i, so ValueError when |x| reaches
    that far; numerics.sum_series sums it and returns sum_J T_J, the
    stopping term relative to its column, and the terms summed.
    """
    r = complex(ut[k, k])
    if abs(r - round(r.real)) < 1e-9:
        raise NumericsError("not a reflection: integer local exponent %s"
                            % r)
    gaps = u[k] - u
    if abs(x) >= np.min(np.abs(np.delete(gaps, k))):
        raise ValueError("the circle starts outside the disc of the local "
                         "series about u_k")
    gaps[k] = 1.0           # row k is set from the others
    row_k = ut[k].copy()
    row_k[k] = 0.0
    first = np.eye(len(u), dtype=complex)
    first[k] = -row_k / r
    first[k, k] = 1.0
    rho = np.array([[0.0], [r]])        # exponents: columns != k, column k
    blocks = []

    def step(j, term):
        # sum_series steps j = 0, 1, ..: B_j(0), B_j(r) for _TBLOCK j at once
        if j % numerics._TBLOCK == 0:
            s = j + np.arange(numerics._TBLOCK) + rho
            mats = (ut - s[..., None, None] * np.eye(len(u))) \
                * (x / np.multiply.outer(s + 1.0, gaps))[..., None]
            mats[..., k, :] = (row_k @ mats) / (s + 1.0 - r)[..., None]
            blocks[:] = zip(mats[0], mats[1])
        b0, br = blocks[j % numerics._TBLOCK]
        out = b0 @ term
        out[:, k] = br @ term[:, k]
        return out

    return numerics.sum_series(
        first, step, "local series did not converge at x=%r" % x)


@lru_cache(maxsize=64)
def _base_cond(space: SpaceModel, product: QuantumProduct, sseries: SSeries,
               level: int, base: complex, tol: float) -> float:
    """The 2-norm cond of I at base's principal branch."""
    return float(np.linalg.cond(fundamental_solution(
        space, product, sseries, level, principal_branch(base), tol).value))


def monodromy_matrix(space: SpaceModel, product: QuantumProduct,
                     sseries: SSeries, level: int, loop: Loop,
                     tol: float) -> MonodromyResult:
    """Monodromy C of the period matrix around the loop, I_cont = I_in C,
    read off the local solutions at the singular point the loop circles.

    The matrix acts on cohomology coefficient vectors: the columns of the
    fundamental solution are the periods of the basis classes, so C is the
    monodromy transformation written in that basis.  Its entries can be
    genuinely large at high derivative levels (they match the algebraic
    reflection operator, whose components grow with the class degree), so
    residual checks against it must be scale-relative.

    No ODE is continued.  The arc and the way in only move the branch of
    log lambda, by i (angle1 - angle0) of the arc, so the period series is
    summed at the way in's end lambda_in on that branch (I_in).  There, with
    E = V diag(u) V^-1 (product.eig) and Ũ = V^-1 U V, the local solutions
    x^r V Z(x) e_k (r = Ũ_kk, x = lambda - u_k) and V Z(x) e_i, i != k, are
    a Frobenius series (Dubrovin, LNM 1620; Coddington-Levinson, ch. 4).
    The turn multiplies the first by exp(i turn r) and fixes the others, so
    with H = V Z(x_in) it changes I_in by (exp(i turn r) - 1) vec (e_k^T
    H^-1 I_in), vec = I_in^-1 H e_k.  C is the reflection I - 2 vec (vec|.)
    / (vec|vec) in that direction, and ``direction`` carries vec over its
    2-norm; in the class basis C is the same wherever it is read.

    tol sets the period series (BASE_SERIES_TOL in the suite and the CLI).
    The base-point series, summed once for every loop of one (space,
    product, sseries, level, base, tol), raises IllConditionedError
    when its condition number exceeds 1e8.  The circle must close and
    enclose exactly one eigenvalue u_k of E, else ValueError.  residuals:
    "solve" (defect of I_in vec = H e_k over max|H e_k|), "frobenius" (first
    omitted term of the local series, relative to its column), "truncation"
    (the last terms of the series at lambda_in over max|I_in|); "cond" and
    "cond_in", the 2-norm condition numbers of I_base and I_in, which are
    not relative; the two gates reflection_vector reads: "exponent",
    |exp(2 pi i r) + 1|, and "reflection", the max distance of C from the
    measured change over the max of the latter.  counters: "series_terms",
    the terms of the series at lambda_in, and "frobenius_terms".
    """
    arc, way_in, circle = loop
    base = principal_branch(arc.start)
    cond = _base_cond(space, product, sseries, level, base.base, tol)
    if cond > 1e8:
        raise IllConditionedError("period matrix condition number %g" % cond)
    if circle.angle1 == circle.angle0 or abs(circle.end - circle.start) \
            > 1e-12 * max(1.0, abs(circle.start)):
        raise ValueError("the loop's circle must close")
    u, vmat = product.eig
    inside = np.flatnonzero(np.abs(u - circle.center) < circle.radius)
    if len(inside) != 1:
        raise ValueError("the circle encloses %d eigenvalues of E, not one"
                         % len(inside))
    k = int(inside[0])
    branch = BranchState(way_in.end, numerics._resync_log(
        way_in.end, base.log_value + 1j * (arc.angle1 - arc.angle0)))
    sol = fundamental_solution(space, product, sseries, level, branch, tol)
    i_in = sol.value
    upper = space.theta - (level + 0.5) * np.eye(space.size)
    ut = np.linalg.solve(vmat, upper @ vmat)
    zsum, frob_err, frob_terms = _local_solutions(u, ut, k,
                                                  circle.start - u[k])
    h = vmat @ zsum
    vec = np.linalg.solve(i_in, h[:, k])
    solve_res = float(np.max(np.abs(i_in @ vec - h[:, k])))
    solve_res /= float(np.max(np.abs(h[:, k])))
    factor = cmath.exp(1j * (circle.angle1 - circle.angle0) * ut[k, k])
    measured = np.eye(space.size) + (factor - 1.0) * np.outer(
        vec, np.linalg.solve(h, i_in)[k])
    vec = vec / np.linalg.norm(vec)
    row = np.array([intersection_pairing(space, vec, e)
                    for e in np.eye(space.size)])
    c2 = complex(row @ vec)
    cond_in = float(np.linalg.cond(i_in))
    if abs(c2) < 1e-12:
        raise NumericsError("anti-invariant direction is isotropic (cond of "
                            "I at lambda_in %.1e)" % cond_in)
    cmat = np.eye(space.size) - (2.0 / c2) * np.outer(vec, row)
    residuals = {
        "solve": solve_res,
        "frobenius": frob_err,
        "truncation": sol.truncation_error / float(np.max(np.abs(i_in))),
        "cond": cond,
        "cond_in": cond_in,
        "exponent": abs(cmath.exp(2j * math.pi * ut[k, k]) + 1.0),
        "reflection": float(np.max(np.abs(cmat - measured))
                            / np.max(np.abs(measured))),
    }
    return MonodromyResult(matrix=cmat, direction=vec, residuals=residuals,
                           counters={"series_terms": sol.terms,
                                     "frobenius_terms": frob_terms})


def _orient(v: np.ndarray) -> np.ndarray:
    """v or -v, making the larger part, real or imaginary, of the first
    entry above 1e-8 max|v| positive: noise decides only near 45 degrees."""
    lead = v[np.flatnonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))[0]]
    part = lead.real if abs(lead.real) >= abs(lead.imag) else lead.imag
    return -v if part < 0.0 else v


def reflection_vector(result: MonodromyResult, space: SpaceModel,
                      candidate: np.ndarray | None = None) -> np.ndarray:
    """alpha with C = I - alpha (alpha|.) and (alpha|alpha) = 2.

    alpha is the carried direction scaled by sqrt(2 / (vec|vec)), which
    fixes it up to sign whatever its phase.  NumericsError ("not a
    reflection") unless the residuals "exponent" and "reflection" are
    within EIG_TOL, or when the direction is isotropic.  The sign
    maximizes Re (alpha|candidate) if a candidate is given, else is set by
    _orient.  The defects of C alpha = -alpha and (alpha|alpha) = 2 go to
    ``result.residuals`` as "eigen" and "pairing".
    """
    res = result.residuals
    if not (res["exponent"] <= EIG_TOL and res["reflection"] <= EIG_TOL):
        raise NumericsError("not a reflection: |exp(2 pi i r) + 1| = %g and "
                            "the measured change is %g from C"
                            % (res["exponent"], res["reflection"]))
    vec = result.direction
    c2 = intersection_pairing(space, vec, vec)
    if abs(c2) < 1e-12:
        raise NumericsError("anti-invariant direction is isotropic")
    alpha = vec * cmath.sqrt(2.0 / c2)
    if candidate is None:
        alpha = _orient(alpha)
    elif intersection_pairing(space, alpha,
                              np.asarray(candidate, complex)).real < 0.0:
        alpha = -alpha
    res["eigen"] = float(np.max(np.abs(result.matrix @ alpha + alpha))
                         / np.max(np.abs(alpha)))
    res["pairing"] = abs(intersection_pairing(space, alpha, alpha) - 2.0)
    return alpha


def big_circle_matrix(space: SpaceModel, product: QuantumProduct,
                      sseries: SSeries, level: int, base: complex,
                      tol: float) -> np.ndarray:
    """Monodromy of one full counterclockwise turn of the big circle: the
    exact monodromy at infinity T = -exp(2 pi i theta) exp(2 pi i rho), with
    exp(2 pi i theta) = (-1)^dim as theta_i = dim/2 mod 1, free of q, level
    and base (Dubrovin, LNM 1620).  ValueError for a base inside the guard
    radius.  sseries, level and tol are not read; perfbench/workloads.py
    passes them positionally.
    """
    limit = GUARD_FACTOR * product.radius
    if abs(base) <= limit:
        raise ValueError("base point inside the guarded radius: |lambda|=%g "
                         "<= %g" % (abs(base), limit))
    return -(-1.0) ** space.dim * (space.exp_pi_i_rho @ space.exp_pi_i_rho)


def proj_reflection_check(n: int, q: BranchState, k: int,
                          m: int | None = None) -> dict:
    """Compare the reflection vector of the level -m (default -n) periods
    around the k-th singular point of P^{n-2} against the Gamma-structure
    image c of O(k), with loop and c on the branch of log q that q carries.

    residual is min(|alpha - c|, |alpha + c|) in the max norm; sign (+1 or
    -1) says which of the two it is.
    """
    q.check()
    m = n if m is None else m
    space = make_proj(n - 2)
    product = quantum_mult_proj(n - 2, q.base)
    sser = sseries_proj(n - 2, q.base, SERIES_CAP)
    result = monodromy_matrix(space, product, sser, -m,
                              gamma_loop(n, q.log_value, k), BASE_SERIES_TOL)
    cand = psi_map(space, line_bundle(k), q.log_value)
    alpha = reflection_vector(result, space, candidate=cand)
    d_plus = float(np.max(np.abs(alpha - cand)))
    d_minus = float(np.max(np.abs(alpha + cand)))
    return {"n": n, "k": k, "m": m, "alpha": alpha, "candidate": cand,
            "sign": 1 if d_plus <= d_minus else -1,
            "residual": min(d_plus, d_minus), "monodromy": result}


@lru_cache(maxsize=256)
def _exceptional_image(n: int, Q: float, j: int) -> np.ndarray:
    """Psi(O_E(j)) on the blowup of P^n at real Q > 0, read-only."""
    image = psi_map(make_blproj(n), exceptional_sheaf(j),
                    (0.0, (n - 1) * math.log(Q)))
    image.flags.writeable = False
    return image


@lru_cache(maxsize=64)
def _exceptional_pairing(n: int, Q: float) -> complex:
    """<Psi(O_E), Psi(O_E)> on the blowup of P^n at real Q > 0: the same on
    every loop."""
    image = _exceptional_image(n, Q, 0)
    return euler_pairing(make_blproj(n), image, image)


def twisted_reflection_check(n: int, Q: float, k: int, m: int | None = None,
                             tol: float = BASE_SERIES_TOL) -> dict:
    """Compare the reflection vector around the k-th twisted singular point
    against the Gamma-structure image of the exceptional sheaf class.

    Q must be real positive; the projective model runs at q = -Q^{-(n-1)}
    on the branch log q = i pi - (n-1) log Q.  The extracted class is
    carried to the blowup model, normalized there to square 2 in the
    intersection pairing, and compared componentwise to the image of
    O_E(-k+1) on the exceptional components; the ratio must be a constant
    +1 or -1.

    The reduced model only sees the exceptional components: the h^n part
    of the candidate (the image of e^n under the top-degree fold) lies in
    the pullback summand and is invisible there.  The comparison and the
    forced t^2 = 1 are still sharp, because the intersection pairing of
    two classes with no unit component never pairs anything against h^n,
    so both sides square to 2 on the carried components alone.
    """
    qc = complex(Q)
    if not (qc.imag == 0.0 and qc.real > 0.0):
        raise ValueError("Q must be real and positive")
    Q = qc.real
    m = n if m is None else m
    q_log = 1j * math.pi - (n - 1) * math.log(Q)
    q = cmath.exp(q_log)
    proj = make_proj(n - 2)
    product = quantum_mult_proj(n - 2, q)
    sser = sseries_proj(n - 2, q, SERIES_CAP)
    result = monodromy_matrix(proj, product, sser, -m,
                              gamma_loop(n, q_log, k), tol)
    alpha = reflection_vector(result, proj)

    # the projective class is sigma(beta); undo sigma and pass to the blowup
    phases = np.exp(-1j * math.pi * np.diag(proj.theta))
    beta_p = phases * alpha
    bl = make_blproj(n)
    beta_dir = np.zeros(bl.size, dtype=complex)
    for i in range(1, n):
        beta_dir[bl.index("e" if i == 1 else "e^%d" % i)] = beta_p[i - 1]
    c2 = intersection_pairing(bl, beta_dir, beta_dir)
    beta = _orient(beta_dir * cmath.sqrt(2.0 / c2))

    cand = _exceptional_image(n, Q, -k + 1)
    emask = np.array([lbl.startswith("e") for lbl in bl.basis])
    ce, be = cand[emask], beta[emask]
    t = complex(np.vdot(ce, be) / np.vdot(ce, ce))
    fit_res = float(np.max(np.abs(be - t * ce)) / np.max(np.abs(ce)))
    dev = min(abs(t - 1.0), abs(t + 1.0))

    return {
        "n": n, "Q": Q, "k": k, "m": m,
        "constant": t,
        "constant_deviation": dev,
        "fit_residual": fit_res,
        "beta": beta,
        "candidate": cand,
        "exceptional_pairing": _exceptional_pairing(n, Q),
        "monodromy": result,
    }
