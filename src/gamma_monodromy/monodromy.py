"""Loop construction, monodromy of the period matrix, and reflection
vectors.

Loops are based at lambda_0 = 2(n-1) * q^{1/(n-1)} and consist of a
clockwise arc along the big circle, a radial segment toward the chosen
singular point u_k, a full counterclockwise circle of small radius around
it, and the reverse way back.  Monodromy acts on the right:
I_continued = I_base . C, so concatenating loops multiplies their matrices
in path order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .cohomology import (SpaceModel, euler_pairing, exceptional_sheaf,
                         intersection_pairing, line_bundle, make_blproj,
                         make_proj, psi_map)
from .numerics import (Arc, BranchState, NumericsError, Segment,
                       principal_branch, scale_path)
from .periods import SERIES_CAP, fundamental_solution
from .quantum import (QuantumProduct, SSeries, quantum_mult_proj,
                      sseries_proj)
from . import numerics

# tolerance of the base-point period series that starts each loop
BASE_SERIES_TOL = 1e-12
# bound on sigma_2/sigma_1 of C - I and on |nontrivial eigenvalue of C + 1|
EIG_TOL = 1e-4


class IllConditionedError(NumericsError):
    pass


@dataclass
class MonodromyResult:
    loop: list
    matrix: np.ndarray
    residuals: dict = field(default_factory=dict)


def base_radius(n: int) -> float:
    return 2.0 * (n - 1)


def gamma_loop(n: int, q_log: complex, k: int) -> list:
    """Closed loop around the k-th singular point, based at 2(n-1)q^{1/(n-1)}.

    The small circle radius is (n-1)/2 capped at a fifth of the minimal
    pairwise distance between singular points, so the loop can never link
    two of them.
    """
    if not 0 <= k <= n - 2:
        raise ValueError("loop index k out of range [0, n-2]")
    lam0 = base_radius(n)
    phi = -2.0 * math.pi * k / (n - 1)
    r = 0.5 * (lam0 - (n - 1))
    if n > 2:
        minpd = 2.0 * (n - 1) * math.sin(math.pi / (n - 1))
        r = min(r, 0.2 * minpd)
    direction = cmath.exp(1j * phi)
    outer = lam0 * direction
    inner = (n - 1 + r) * direction
    center = (n - 1) * direction
    pieces: list = []
    if k > 0:
        pieces.append(Arc(0.0, lam0, 0.0, phi))
    pieces.append(Segment(outer, inner))
    pieces.append(Arc(center, r, phi, phi + 2.0 * math.pi))
    pieces.append(Segment(inner, outer))
    if k > 0:
        pieces.append(Arc(0.0, lam0, phi, 0.0))
    w = cmath.exp(complex(q_log) / (n - 1))
    return scale_path(pieces, w)


def monodromy_matrix(space: SpaceModel, product: QuantumProduct,
                     sseries: SSeries, level: int, loop: list,
                     tol: float) -> MonodromyResult:
    """Continue the period matrix around the loop; C = I_base^{-1} I_cont.

    The matrix acts on cohomology coefficient vectors: the columns of the
    fundamental solution are the periods of the basis classes, so C is the
    monodromy transformation written in that basis.  Its entries can be
    genuinely large at high derivative levels (they match the algebraic
    reflection operator, whose components grow with the class degree), so
    residual checks against it must be scale-relative.

    tol sets the base-point period series (BASE_SERIES_TOL in the suite
    and the CLI).  residuals: "solve" (defect of I_base C = I_cont over
    max|I_cont|), "continuation" (first omitted Taylor terms, relative to
    their columns), "truncation" (the base series' last terms over
    max|I_base|), all three relative so they add into one budget; and
    "cond", the condition number of I_base.
    """
    base = loop[0].start
    branch0 = principal_branch(base)
    sol = fundamental_solution(space, product, sseries, level, branch0, tol)
    i_base = sol.value
    cond = float(np.linalg.cond(i_base))
    if cond > 1e8:
        raise IllConditionedError("period matrix condition number %g" % cond)
    upper = space.theta - (level + 0.5) * np.eye(space.size)
    i_cont, _, cont_err = numerics.ode_continue(product.euler_mult, upper,
                                                loop, i_base, branch0=branch0)
    cmat = np.linalg.solve(i_base, i_cont)
    solve_res = float(np.max(np.abs(i_base @ cmat - i_cont)))
    scale = float(np.max(np.abs(i_cont)))
    residuals = {
        "solve": solve_res / scale if scale else solve_res,
        "continuation": cont_err,
        "truncation": sol.truncation_error / float(np.max(np.abs(i_base))),
        "cond": cond,
    }
    return MonodromyResult(loop=list(loop), matrix=cmat, residuals=residuals)


def _orient(v: np.ndarray) -> np.ndarray:
    """v or -v, making the larger part, real or imaginary, of the first
    entry above 1e-8 max|v| positive: noise decides only near 45 degrees."""
    lead = v[np.flatnonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))[0]]
    part = lead.real if abs(lead.real) >= abs(lead.imag) else lead.imag
    return -v if part < 0.0 else v


def reflection_vector(result: MonodromyResult, space: SpaceModel,
                      candidate: np.ndarray | None = None) -> np.ndarray:
    """alpha with C = I - alpha (alpha|.) and (alpha|alpha) = 2.

    D = C - I has rank one and column space span alpha, so alpha is the
    dominant left singular vector u of D scaled by sqrt(2 / (u|u)), which
    fixes it up to sign whatever the phase of u.  NumericsError unless
    sigma_1 > 0, sigma_2 <= EIG_TOL sigma_1 and the nontrivial eigenvalue
    1 + u^H D u is within EIG_TOL of -1 (a transvection I + N fails).
    The sign maximizes Re (alpha|candidate) if a candidate is given, else
    is set by _orient.  sigma_2/sigma_1 and the defects of C alpha = -alpha
    and (alpha|alpha) = 2 go to ``result.residuals`` as "rank_one",
    "eigen" and "pairing".
    """
    mat = result.matrix
    d = mat - np.eye(len(mat))
    u, sv, _ = np.linalg.svd(d)
    vec = u[:, 0]
    eig = 1.0 + complex(np.vdot(vec, d @ vec))
    if not (sv[0] > 0.0 and sv[1] <= EIG_TOL * sv[0]
            and abs(eig + 1.0) <= EIG_TOL):
        raise NumericsError("not a reflection: C - I has singular values "
                            "%g, %g and C the eigenvalue %s"
                            % (sv[0], sv[1], eig))
    c2 = intersection_pairing(space, vec, vec)
    if abs(c2) < 1e-12:
        raise NumericsError("anti-invariant direction is isotropic")
    alpha = vec * cmath.sqrt(2.0 / c2)
    if candidate is None:
        alpha = _orient(alpha)
    elif intersection_pairing(space, alpha,
                              np.asarray(candidate, complex)).real < 0.0:
        alpha = -alpha
    result.residuals["rank_one"] = float(sv[1] / sv[0])
    result.residuals["eigen"] = float(
        np.max(np.abs(mat @ alpha + alpha)) / np.max(np.abs(alpha)))
    result.residuals["pairing"] = abs(
        intersection_pairing(space, alpha, alpha) - 2.0)
    return alpha


def big_circle_matrix(space: SpaceModel, product: QuantumProduct,
                      sseries: SSeries, level: int, base: complex,
                      tol: float) -> np.ndarray:
    """Monodromy of one full counterclockwise turn of the big circle.

    No continuation is needed: the period series converges on the whole
    circle, so the turn only shifts the branch of log lambda by 2 pi i.
    """
    b0 = principal_branch(base)
    b1 = BranchState(b0.base, b0.log_value + 2j * math.pi)
    i0 = fundamental_solution(space, product, sseries, level, b0, tol).value
    i1 = fundamental_solution(space, product, sseries, level, b1, tol).value
    return np.linalg.solve(i0, i1)


def proj_reflection_check(n: int, q: BranchState, k: int,
                          m: int | None = None) -> dict:
    """Compare the reflection vector of the level -m (default -n) periods
    around the k-th singular point of P^{n-2} against the Gamma-structure
    image c of O(k), with loop and c on the branch of log q that q carries.

    residual is min(|alpha - c|, |alpha + c|) in the max norm; sign (+1 or
    -1) says which of the two it is.
    """
    q.check()
    if m is None:
        m = n
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
    if m is None:
        m = n
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

    cand = psi_map(bl, exceptional_sheaf(-k + 1), (0.0, (n - 1) * math.log(Q)))
    emask = np.array([lbl.startswith("e") for lbl in bl.basis])
    ce, be = cand[emask], beta[emask]
    t = complex(np.vdot(ce, be) / np.vdot(ce, ce))
    fit_res = float(np.max(np.abs(be - t * ce)) / np.max(np.abs(ce)))
    dev = min(abs(t - 1.0), abs(t + 1.0))

    oe = exceptional_sheaf(0)
    psi_oe = psi_map(bl, oe, (0.0, (n - 1) * math.log(Q)))
    pairing_check = euler_pairing(bl, psi_oe, psi_oe)

    return {
        "n": n, "Q": Q, "k": k, "m": m,
        "constant": t,
        "constant_deviation": dev,
        "fit_residual": fit_res,
        "beta": beta,
        "candidate": cand,
        "exceptional_pairing": pairing_check,
        "monodromy": result,
    }
