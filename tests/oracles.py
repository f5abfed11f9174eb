"""Oracles the tests compare the package against, kept out of the package
because nothing in it calls them: complex powers on a branch of log, the
master period evaluated directly from Gamma jets, continuation of the
connection by Taylor steps along a straight segment, continuation
along paths of several pieces, each arc replaced by an inscribed
polygon, and the local Frobenius series stepped entry by entry."""

import cmath
import functools

import numpy as np

from gamma_monodromy import monodromy as md
from gamma_monodromy import numerics as nx

# sides of the polygon that stands in for an arc
SIDES = 16
# a continuation node this close to a singular point, relative to
# max(1, |lambda|), raises
_SING_EPS = 1e-12


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


@functools.lru_cache(maxsize=None)
def recip_gamma_jet(z: complex, order: int) -> np.ndarray:
    """numerics.recip_gamma_jet, cached and read-only: the oracles ask for
    the same few centres many times."""
    jet = nx.recip_gamma_jet(z, order)
    jet.flags.writeable = False
    return jet


def master_period(space, level: int, branch: nx.BranchState) -> np.ndarray:
    """Master period matrix at the given integer level and branch of log,
    evaluated directly from Gamma jets (the oracle for the period series'
    jet chain)."""
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
                             recip_gamma_jet(nu + 0.5, order))
            diag[i] = jet[k]
        acc = acc + rho_pow @ np.diag(diag)
        rho_pow = space.rho @ rho_pow
    return acc


def ode_continue(euler: np.ndarray, upper: np.ndarray, start: complex,
                 end: complex, y0: np.ndarray) -> tuple:
    """Continue a solution of (lambda - E) dY/dlambda = U Y along the
    straight segment from start to end.

    E (euler) and U (upper) are constant square matrices; y0 is a vector
    or a matrix of columns.  Around a node c the Taylor coefficients obey
    Y_{j+1} = (c - E)^{-1} (U - j) Y_j / (j+1), summed by
    ``numerics.sum_series``.  The series converges on the disk reaching
    the nearest eigenvalue of E, the only singular points of the
    connection, and each step h moves at most half that distance, so the
    terms decay at least like 2^-j up to a polynomial factor.

    Returns the continued solution, the continuation error estimate (the
    sum over steps of the first omitted term relative to its column's
    scale) and the work done, (steps, terms): Taylor steps, and terms
    summed into their values; start == end returns y0 with work (0, 0).
    Raises NumericsError when a node comes within _SING_EPS * max(1,
    |lambda|) of an eigenvalue of E, or when a step's series does not
    stop in numerics._TERM_CAP terms.
    """
    y0 = np.asarray(y0, dtype=complex)
    y = y0.reshape(len(y0), -1).copy()
    sing = np.linalg.eigvals(euler)
    eye = np.eye(len(euler))
    trunc, steps, terms = 0.0, 0, 0
    plen = abs(end - start)
    t = 0.0 if plen else 1.0
    c = start
    while t < 1.0:
        reach = float(np.min(np.abs(c - sing)))
        if reach < _SING_EPS * max(1.0, abs(c)):
            raise nx.NumericsError(
                "continuation node %r on a singular point" % c)
        t_next = min(1.0, t + 0.5 * reach / plen)
        z = end if t_next == 1.0 else start + (end - start) * t_next
        h = z - c
        resolvent = np.linalg.inv(c * eye - euler)

        def step(j, term):
            return (h / (j + 1)) * (resolvent @ (upper @ term - j * term))
        y, rel, summed = nx.sum_series(
            y, step, "Taylor series did not converge at lambda=%r" % c)
        trunc += rel
        steps += 1
        terms += summed
        t, c = t_next, z

    return y.reshape(y0.shape), trunc, (steps, terms)


def local_solutions(u: np.ndarray, ut: np.ndarray, k: int,
                    x: complex) -> tuple[np.ndarray, float, int]:
    """monodromy._local_solutions with each term formed entry by entry from
    the recurrence, rows i != k then row k, in place of its per-term
    matrices."""
    r = complex(ut[k, k])
    gaps = u[k] - u
    gaps[k] = 1.0
    row_k = ut[k].copy()
    row_k[k] = 0.0
    rho = np.zeros(len(u), dtype=complex)
    rho[k] = r
    first = np.eye(len(u), dtype=complex)
    first[k] = -row_k / r
    first[k, k] = 1.0

    def step(j, term):
        term = x * (ut @ term - (j + rho) * term) \
            / np.outer(gaps, j + 1 + rho)
        term[k] = row_k @ term / (j + 1 + rho - r)
        return term

    return nx.sum_series(first, step, "local series did not converge")


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
    """ode_continue chained over the vertex pairs of path, a list
    of Segment and Arc pieces, each piece from its own start.  Valid where
    no singular point lies between an arc and its polygon: continuation
    depends only on the path's homotopy class.  Returns the value, the
    summed error estimates and the summed (steps, terms)."""
    y, err, steps, terms = y0, 0.0, 0, 0
    for piece in path:
        pts = vertices(piece, sides)
        for a, b in zip(pts, pts[1:]):
            y, e, (s, t) = ode_continue(euler, upper, a, b, y)
            err += e
            steps += s
            terms += t
    return y, err, (steps, terms)
