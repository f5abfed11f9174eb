"""Weight-based vanishing predicate for genus-zero descendant correlators
on a point blowup, cross-checked against the closed calibration series.

Classes pulled back from the base carry weight zero; the k-th power of the
exceptional class carries weight k-1.  A correlator with one descendant
insertion, extra exceptional insertions e^{l_1}, .., e^{l_s}, curve class
beta + d * (line in the exceptional divisor), must vanish when

  (i)   beta is nonzero, and
  (ii)  wt_a + sum (l_i - 1) > 0 or d > 0, and
  (iii) wt_a + sum (l_i - 1) < (d+1)(n-1) - k.

The cross-check scans every coefficient slot of the closed formula for the
calibration applied to the unit class (the q2 = 0 sector), reading each
slot as such a correlator with no extra insertions and d = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import SpaceModel, make_blproj
from .quantum import blowup_unit_terms

COEFF_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class CorrelatorDescriptor:
    n: int
    wt_a: int                       # weight of the descendant insertion
    k: int                          # descendant power
    exceptional_powers: tuple[int, ...]
    d: int                          # multiple of the exceptional line class
    beta_nonzero: bool

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.k < 0 or self.d < 0 or self.wt_a < 0:
            raise ValueError("k, d and weights must be nonnegative")
        for l in self.exceptional_powers:
            if not 2 <= l <= self.n - 1:
                raise ValueError("exceptional powers must lie in [2, n-1]")


def weight(space: SpaceModel, label: str) -> int:
    """0 on pullback classes, k-1 on the k-th exceptional power."""
    idx = space.index(label)
    if space.kind == "proj":
        return 0
    if label.startswith("e"):
        return int(space.degrees[idx]) - 1
    return 0


def must_vanish(desc: CorrelatorDescriptor) -> bool:
    total = desc.wt_a + sum(l - 1 for l in desc.exceptional_powers)
    if not desc.beta_nonzero:
        return False
    if not (total > 0 or desc.d > 0):
        return False
    return total < (desc.d + 1) * (desc.n - 1) - desc.k


def _dual_weight(space: SpaceModel, idx: int) -> int:
    """Weight of the basis element that pairs with basis element idx."""
    dual = int(space.pairing[idx].nonzero()[0][0])
    return weight(space, space.basis[dual])


def crosscheck_against_blowup_s(n: int, K: int = 8, Dmax: int = 4) -> dict:
    """Scan the unit-column calibration coefficients against the predicate.

    Every slot (q1-degree d', z-power -l, basis component) is read as the
    correlator with a level l-1 descendant of the dual class, no extra
    exceptional insertions, d = 0 and beta nonzero iff d' >= 1.  Predicate
    says vanish -> the coefficient must be zero.  Nonzero slots where the
    predicate does not apply are counted as well: they show the scan has
    teeth.
    """
    if n > 5 or K > 8 or Dmax > 4:
        raise ValueError("scan range capped at n=5, K=8, Dmax=4")
    space = make_blproj(n)
    terms = blowup_unit_terms(n, K)
    checked = 0
    predicate_true = 0
    violations = []
    nonzero_false = 0
    for dprime in range(Dmax + 1):
        col = terms.get(dprime)
        if col is None:
            continue
        for l in range(1, K + 1):
            for idx in range(space.size):
                coeff = col[l][idx]
                desc = CorrelatorDescriptor(
                    n=n, wt_a=_dual_weight(space, idx), k=l - 1,
                    exceptional_powers=(), d=0,
                    beta_nonzero=dprime >= 1)
                checked += 1
                if must_vanish(desc):
                    predicate_true += 1
                    if abs(coeff) > COEFF_ZERO_TOL:
                        violations.append((dprime, l, space.basis[idx],
                                           complex(coeff)))
                elif abs(coeff) > COEFF_ZERO_TOL:
                    nonzero_false += 1
    return {
        "n": n, "K": K, "Dmax": Dmax,
        "checked": checked,
        "predicate_true": predicate_true,
        "violations": violations,
        "nonzero_false": nonzero_false,
    }
