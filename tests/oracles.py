"""Oracles the tests compare the package against, kept out of the package
because nothing in it calls them: complex powers on a branch of log, the
master period evaluated directly from Gamma jets, and continuation along
paths of several pieces, each arc replaced by an inscribed polygon."""

import cmath

import numpy as np

from gamma_monodromy import monodromy as md
from gamma_monodromy import numerics as nx
from gamma_monodromy import periods as pd

# sides of the polygon that stands in for an arc
SIDES = 16


def branch_power(b: nx.BranchState, s: complex) -> complex:
    """lambda**s on the branch carried by b, i.e. exp(s*log_value)."""
    return cmath.exp(complex(s) * b.log_value)


def log_pow_jet(branch: nx.BranchState, nu: complex,
                order: int) -> np.ndarray:
    """Jet of lam^{nu+w-1/2} in w: lam^{nu-1/2} * (log lam)^t / t!."""
    out = np.zeros(order + 1, dtype=complex)
    out[0] = branch_power(branch, nu - 0.5)
    for t in range(1, order + 1):
        out[t] = out[t - 1] * branch.log_value / t
    return out


def master_period(space, level: int, branch: nx.BranchState) -> np.ndarray:
    """Master period matrix at the given integer level and branch of log,
    evaluated directly from Gamma jets (the oracle for `_JetChain`)."""
    depth = space.depth
    order = depth - 1
    size = space.size
    theta = np.diag(space.theta)
    acc = np.zeros((size, size), dtype=complex)
    rho_pow = np.eye(size, dtype=complex)
    for k in range(depth):
        diag = np.zeros(size, dtype=complex)
        for i in range(size):
            nu = theta[i] - level - k
            jet = nx.jet_mul(log_pow_jet(branch, nu, order),
                             pd._rg_jet_coeffs(nu + 0.5, order))
            diag[i] = jet[k]
        acc = acc + rho_pow @ np.diag(diag)
        rho_pow = space.rho @ rho_pow
    return acc


def full_path(loop: md.Loop) -> list:
    """The whole closed loop as a path: out along the arc, in, once around
    the circle, and back the same way."""
    arc, way_in, circle = loop
    return [arc, way_in, circle, md.Segment(way_in.end, way_in.start),
            md.Arc(arc.center, arc.radius, arc.angle1, arc.angle0)]


def vertices(piece, sides: int = SIDES) -> list:
    """The ends of a segment, or the vertices of the polygon inscribed in
    an arc, one side per 1/sides of its angle."""
    if isinstance(piece, md.Segment):
        return [piece.start, piece.end]
    return [piece.point(j / sides) for j in range(sides + 1)]


def continue_path(euler: np.ndarray, upper: np.ndarray, path: list,
                  y0: np.ndarray, sides: int = SIDES):
    """numerics.ode_continue chained over the vertex pairs of path, a list
    of Segment and Arc pieces, each piece from its own start.  Valid where
    no singular point lies between an arc and its polygon: continuation
    depends only on the path's homotopy class.  Returns the value, the
    summed error estimates and the summed (steps, terms)."""
    y, err, steps, terms = y0, 0.0, 0, 0
    for piece in path:
        pts = vertices(piece, sides)
        for a, b in zip(pts, pts[1:]):
            y, e, (s, t) = nx.ode_continue(euler, upper, a, b, y)
            err += e
            steps += s
            terms += t
    return y, err, (steps, terms)
