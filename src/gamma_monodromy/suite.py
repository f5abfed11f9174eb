"""The ten package-level acceptance checks, shared by the test suite and
the command line runner.

Each criterion function returns a dict with at least: name, pass (bool),
tol, residual (worst value measured against tol), seconds, details.
Everything is deterministic: fixed grids, fixed summation orders, no
randomness.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import mirror, vanishing
from .cohomology import (euler_char, euler_pairing, intersection_pairing,
                         line_bundle, make_proj, make_twisted, psi_map)
from .monodromy import (BASE_SERIES_TOL, base_radius, big_circle_matrix,
                        gamma_loop, monodromy_matrix, proj_reflection_check,
                        twisted_reflection_check)
from .numerics import principal_branch
from .periods import (SERIES_CAP, connection_rhs, fundamental_solution,
                      twisted_projective_match)
from .quantum import (epsilon_matrix, quantum_mult_proj, quantum_mult_twisted,
                      sseries_proj, sseries_twisted, symplectic_residual)

SERIES_TOL = 1e-11


def _mat_rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def _proj_model(n: int) -> tuple:
    """Space, quantum product and S-series of P^{n-2} at q = 1."""
    return (make_proj(n - 2), quantum_mult_proj(n - 2, 1.0),
            sseries_proj(n - 2, complex(1.0), SERIES_CAP))


def criterion_reflections() -> dict:
    """Extracted reflection vectors match the Gamma-structure classes on
    P^{n-2}, n in {3,4,5}, with involutive determinant -1 monodromy."""
    tol_vec, tol_pair, tol_mat = 1e-5, 1e-6, 1e-6
    worst = {"vector": 0.0, "pairing": 0.0, "det": 0.0, "invol": 0.0}
    per_n = {}
    ok = True
    q = principal_branch(1.0)
    for n in (3, 4, 5):
        t0 = time.perf_counter()
        reps = [proj_reflection_check(n, q, k) for k in range(n - 1)]
        per_n[n] = time.perf_counter() - t0
        ok = ok and per_n[n] < 60.0
        for rep in reps:
            res = rep["monodromy"]
            size = res.matrix.shape[0]
            det_res = abs(np.linalg.det(res.matrix) + 1.0)
            # the reflection operator has intrinsically large entries at
            # high class degree, so measure the involution defect per unit
            # of matrix scale
            cscale = max(1.0, float(np.max(np.abs(res.matrix))))
            invol = float(np.max(np.abs(
                res.matrix @ res.matrix - np.eye(size)))) / cscale
            worst["vector"] = max(worst["vector"], rep["residual"])
            worst["pairing"] = max(worst["pairing"], res.residuals["pairing"])
            worst["det"] = max(worst["det"], det_res)
            worst["invol"] = max(worst["invol"], invol)
    ok = ok and worst["vector"] < tol_vec and worst["pairing"] < tol_pair \
        and worst["det"] < tol_mat and worst["invol"] < tol_mat
    return {"name": "reflections", "pass": bool(ok), "tol": tol_vec,
            "residual": worst["vector"],
            "details": {"worst": worst, "seconds_per_n": per_n}}


def criterion_twisted() -> dict:
    """Twisted reflection constants are +-1 and the exceptional-sheaf class
    has unit self-pairing."""
    tol_const, tol_pair = 1e-4, 1e-10
    worst_dev = 0.0
    worst_fit = 0.0
    worst_pair = 0.0
    consts = {}
    for n in (3, 4):
        for k in range(n - 1):
            r = twisted_reflection_check(n, 1.0, k)
            worst_dev = max(worst_dev, r["constant_deviation"])
            worst_fit = max(worst_fit, r["fit_residual"])
            worst_pair = max(worst_pair, abs(r["exceptional_pairing"] - 1.0))
            consts["%d:%d" % (n, k)] = complex(r["constant"])
    ok = worst_dev < tol_const and worst_fit < tol_const \
        and worst_pair < tol_pair
    return {"name": "twisted", "pass": bool(ok), "tol": tol_const,
            "residual": max(worst_dev, worst_fit),
            "details": {"constants": consts, "worst_dev": worst_dev,
                        "worst_fit": worst_fit, "worst_pairing": worst_pair}}


def criterion_identification() -> dict:
    """Twisted periods equal conjugated projective periods at
    q = -Q^{-(n-1)}, on a 10-point lambda grid."""
    tol = 1e-8
    worst = 0.0
    Q = 1.0
    for n in (3, 4, 5):
        radii = np.linspace(2.1, 3.8, 10) * (n - 1) / abs(Q)
        args = np.linspace(-0.35, 0.35, 10)
        for rr, aa in zip(radii, args):
            br = principal_branch(rr * np.exp(1j * aa))
            # the identity's columns are the basis classes
            lhs, rhs = twisted_projective_match(n, Q, n, np.eye(n - 1), br,
                                                SERIES_TOL)
            worst = max(worst, _mat_rel(lhs, rhs))
    return {"name": "identification", "pass": bool(worst < tol), "tol": tol,
            "residual": worst, "details": {}}


def criterion_hrr() -> dict:
    """Euler pairings of Gamma-structure classes reproduce Euler
    characteristics on P^{n-2} up to n = 6."""
    tol = 1e-9
    worst = 0.0
    for m in (1, 2, 3, 4):
        space = make_proj(m)
        for q_log in (0.0, 0.4 + 0.3j * math.pi):
            psis = [psi_map(space, line_bundle(i), q_log)
                    for i in range(m + 1)]
            for i in range(m + 1):
                for j in range(m + 1):
                    chi = euler_char(space, line_bundle(i), line_bundle(j))
                    val = euler_pairing(space, psis[i], psis[j])
                    worst = max(worst, abs(val - chi))
    return {"name": "hrr", "pass": bool(worst < tol), "tol": tol,
            "residual": worst, "details": {}}


def _models() -> list:
    """(n, space, quantum product, S-series) of P^1..P^3 at q = 1 and of the
    twisted n = 3 theory at Q = 1, singular points on |lambda| = n - 1."""
    models = [(n, *_proj_model(n)) for n in (3, 4, 5)]
    models.append((3, make_twisted(3), quantum_mult_twisted(3, 1.0),
                   sseries_twisted(3, complex(1.0), SERIES_CAP)))
    return models


def criterion_ladder() -> dict:
    """d/d lambda of the period matrix equals the next level: checked by
    central differences, and as the connection residual using the exact
    level shift for the derivative."""
    tol_fd, resid_factor = 1e-6, 10.0
    worst_fd = 0.0
    worst_ratio = 0.0
    for n, space, product, sser in _models():
        level = -n
        radii = np.linspace(2.2, 3.4, 5) * (n - 1)
        args = np.linspace(-0.2, 0.2, 5)
        rhs = connection_rhs(space, product, level)
        for rr, aa in zip(radii, args):
            lam = rr * np.exp(1j * aa)
            br = principal_branch(lam)
            sol0 = fundamental_solution(space, product, sser, level, br,
                                        SERIES_TOL)
            sol1 = fundamental_solution(space, product, sser, level + 1, br,
                                        SERIES_TOL)
            h = 1e-5 * abs(lam)
            brp = principal_branch(lam + h)
            brm = principal_branch(lam - h)
            fp = fundamental_solution(space, product, sser, level, brp,
                                      SERIES_TOL).value
            fm = fundamental_solution(space, product, sser, level, brm,
                                      SERIES_TOL).value
            fd = (fp - fm) / (2.0 * h)
            worst_fd = max(worst_fd, _mat_rel(fd, sol1.value))
            resid = float(np.max(np.abs(sol1.value - rhs(lam, sol0.value))))
            budget = resid_factor * (sol0.truncation_error
                                     + sol1.truncation_error)
            worst_ratio = max(worst_ratio, resid / budget)
    ok = worst_fd < tol_fd and worst_ratio < 1.0
    return {"name": "ladder", "pass": bool(ok), "tol": tol_fd,
            "residual": worst_fd,
            "details": {"worst_connection_ratio": worst_ratio}}


def criterion_pairing() -> dict:
    """(I^0 a, (lambda - E*) I^0 b) is lambda-independent and equals the
    intersection pairing."""
    tol = 1e-7
    worst_var = 0.0
    worst_match = 0.0
    for n, space, product, sser in _models():
        target = np.array(
            [[intersection_pairing(space, ea, eb)
              for eb in np.eye(space.size)] for ea in np.eye(space.size)])
        radii = np.linspace(2.1, 3.9, 10) * (n - 1)
        args = np.linspace(-0.3, 0.3, 10)
        mats = []
        for rr, aa in zip(radii, args):
            lam = rr * np.exp(1j * aa)
            br = principal_branch(lam)
            sol = fundamental_solution(space, product, sser, 0, br,
                                       SERIES_TOL).value
            pmat = sol.T @ space.pairing @ (
                lam * sol - product.euler_mult @ sol)
            mats.append(pmat)
        for pm in mats[1:]:
            worst_var = max(worst_var, float(np.max(np.abs(pm - mats[0]))))
        for pm in mats:
            worst_match = max(worst_match, float(np.max(np.abs(pm - target))))
    ok = worst_var < tol and worst_match < tol
    return {"name": "pairing", "pass": bool(ok), "tol": tol,
            "residual": max(worst_var, worst_match),
            "details": {"variation": worst_var, "match": worst_match}}


def criterion_mirror() -> dict:
    """Vanishing window, series/contour agreement, local exponent,
    inversion consistency, and the Laplace spot check; details["margins"]
    holds residual/tol of each of the five sub-gates.  The residual is the
    largest of the four sub-residuals gated at 1e-4 or below (the exponent
    is a slope, gated at 0.02); details["j_calls"] and details["j_nodes"]
    sum the counters of both inversion checks."""
    t0 = time.perf_counter()
    tols = {"zero_window": 1e-6, "series_contour": 1e-6, "exponent": 0.02,
            "inversion": 1e-4, "laplace": 1e-4}
    details = {}

    worst_zero = 0.0
    for n in (3, 4):
        for q in (0.5, 1.0, 2.0):
            scan = mirror.zero_region_scan(n, q, n, npts=20, tol=1e-7)
            worst_zero = max(worst_zero, scan["max_abs"])
    details["zero_region_max"] = worst_zero

    worst_sc = 0.0
    for n in (3, 4):
        q = 1.0
        u = mirror.u_of_q(n, q)
        lams = u * np.linspace(1.5, 4.0, 10)
        cfg = mirror.make_mb_config(n, q, n, float(lams[-1]), 1e-8)
        mb = mirror.phi_mb_batch(n, q, n, lams, cfg)
        ser = mirror.phi_residue_series(n, q, n, lams)
        worst_sc = max(worst_sc, float(np.max(np.abs(mb - ser))))
    details["series_contour_max"] = worst_sc

    worst_exp = 0.0
    for n, m in ((3, 3), (3, 6), (4, 4)):
        fit = mirror.local_exponent_fit(n, 1.0, m)
        dev = abs(fit["slope"] - (m - 0.5))
        details["exponent_%d_%d" % (n, m)] = fit["slope"]
        worst_exp = max(worst_exp, dev)
    details["exponent_worst_dev"] = worst_exp

    worst_inv = 0.0
    details["j_calls"] = details["j_nodes"] = 0
    for n in (3, 4):
        inv = mirror.inversion_consistency(n, 1.0)
        worst_inv = max(worst_inv, inv["rel_diff"])
        details["j_calls"] += inv["j_calls"]
        details["j_nodes"] += inv["j_nodes"]
    details["inversion_rel"] = worst_inv

    lap = mirror.laplace_spot_check(3, 1.0, 3)
    details["laplace_rel"] = float(np.max(lap["rel_errors"]))
    details["laplace_sensitivity"] = lap["extension_sensitivity"]

    residuals = {"zero_window": worst_zero, "series_contour": worst_sc,
                 "exponent": worst_exp, "inversion": worst_inv,
                 "laplace": details["laplace_rel"]}
    details["margins"] = {key: residuals[key] / tols[key] for key in tols}
    ok = all(residuals[key] < tols[key] for key in tols)

    seconds = time.perf_counter() - t0
    details["seconds"] = seconds
    ok = ok and seconds < 300.0
    return {"name": "mirror", "pass": bool(ok), "tol": 1e-4,
            "residual": max(worst_zero, worst_sc, worst_inv,
                            details["laplace_rel"]),
            "details": details}


def criterion_vanishing() -> dict:
    """No predicate-true coefficient survives in the calibration scan, with
    enough slots on both sides of the predicate for the scan to mean
    something."""
    total_true = 0
    total_nonzero_false = 0
    violations = []
    per_n = {}
    for n in (3, 4, 5):
        rep = vanishing.crosscheck_against_blowup_s(n, K=8, Dmax=4)
        total_true += rep["predicate_true"]
        total_nonzero_false += rep["nonzero_false"]
        violations.extend(rep["violations"])
        per_n[n] = {k: rep[k] for k in
                    ("checked", "predicate_true", "nonzero_false")}
    ok = not violations and total_true >= 20 and total_nonzero_false >= 5
    return {"name": "vanishing", "pass": bool(ok), "tol": 0.0,
            "residual": float(len(violations)),
            "details": {"per_n": per_n, "predicate_true": total_true,
                        "nonzero_false": total_nonzero_false}}


def criterion_calibration() -> dict:
    """Homogeneity of the twisted calibration (exact power of Q per entry),
    its divisor derivative relation, the symplectic property, and the
    diagonal conjugation of the twisted product."""
    tol = 1e-10
    K = 10
    worst_exact = 0.0
    worst_deriv = 0.0
    worst_sympl = 0.0
    for n in range(2, 7):
        s1 = sseries_twisted(n, complex(1.0), K)
        s2 = sseries_twisted(n, complex(2.0), K)
        pw = np.arange(1, n, dtype=float)
        expo = pw[:, None] - pw[None, :]
        for l in range(K + 1):
            scale2 = 2.0 ** (expo - l)
            diff = np.max(np.abs(s2.mats[l] - scale2 * s1.mats[l]))
            ref = max(float(np.max(np.abs(s1.mats[l]))), 1.0)
            worst_exact = max(worst_exact, float(diff) / ref)
        for Q in (0.8, 1.3):
            ser = sseries_twisted(n, complex(Q), K)
            prod = quantum_mult_twisted(n, Q)
            space = ser.space
            for l in range(1, K + 1):
                lhs = (expo - l) * ser.mats[l]
                rhs = (n - 1) * prod.gen_mult @ ser.mats[l - 1] \
                    + ser.mats[l - 1] @ space.rho
                ref = max(float(np.max(np.abs(ser.mats[l]))), 1.0)
                worst_deriv = max(worst_deriv,
                                  float(np.max(np.abs(lhs - rhs))) / ref)
            worst_sympl = max(worst_sympl, symplectic_residual(ser))
        worst_sympl = max(worst_sympl, symplectic_residual(
            sseries_proj(n - 2, complex(1.0), K)) if n >= 3 else 0.0)
        # diagonal conjugation: Q^Delta (e*) Q^{-Delta} = Q^{-1} epsilon
        Qv = 2.0
        space = make_twisted(n)
        prod = quantum_mult_twisted(n, Qv)
        dd = np.diag(space.delta)
        conj = np.diag(Qv ** dd) @ prod.gen_mult @ np.diag(Qv ** (-dd))
        worst_exact = max(worst_exact, float(
            np.max(np.abs(conj - epsilon_matrix(n) / Qv))))
    ok = worst_exact < 1e-12 and worst_deriv < tol and worst_sympl < tol
    return {"name": "calibration", "pass": bool(ok), "tol": tol,
            "residual": max(worst_deriv, worst_sympl),
            "details": {"exactness": worst_exact, "derivative": worst_deriv,
                        "symplectic": worst_sympl}}


def criterion_composite() -> dict:
    """The path-ordered product of the single loops reproduces one full
    counterclockwise turn of the big circle.

    With the right-action convention C(gamma then delta) = C_gamma C_delta
    the counterclockwise circle decomposes with the k = n-2 loop first and
    the k = 0 loop last, i.e. the matrix product C_{n-2} ... C_1 C_0.
    """
    tol = 1e-5
    worst = 0.0
    per_n = {}
    for n in (3, 4, 5):
        space, product, sser = _proj_model(n)
        big = big_circle_matrix(space, product, sser, -n, base_radius(n),
                                SERIES_TOL)
        prod_desc = np.eye(space.size, dtype=complex)
        for k in reversed(range(n - 1)):
            prod_desc = prod_desc @ monodromy_matrix(
                space, product, sser, -n, gamma_loop(n, 0.0, k),
                BASE_SERIES_TOL).matrix
        res = float(np.max(np.abs(prod_desc - big)))
        per_n[n] = res
        worst = max(worst, res)
    return {"name": "composite", "pass": bool(worst < tol), "tol": tol,
            "residual": worst, "details": {"per_n": per_n}}


ALL_CRITERIA = [
    ("reflections", criterion_reflections),
    ("twisted", criterion_twisted),
    ("identification", criterion_identification),
    ("hrr", criterion_hrr),
    ("ladder", criterion_ladder),
    ("pairing", criterion_pairing),
    ("mirror", criterion_mirror),
    ("vanishing", criterion_vanishing),
    ("calibration", criterion_calibration),
    ("composite", criterion_composite),
]


def run_suite(only: str | None = None) -> list[dict]:
    items = [(name, fn) for name, fn in ALL_CRITERIA
             if only is None or only == name]
    if not items:
        raise ValueError("no criterion named %r" % only)
    results = []
    for _name, fn in items:
        t0 = time.perf_counter()
        out = fn()
        out["seconds"] = time.perf_counter() - t0
        results.append(out)
    return results
