"""Reflection vectors of the second structure connection on small quantum
cohomology, checked against the Gamma-class integral structure.

Subpackage layout:

- numerics:   jets, branch tracking, special functions, series summation
- cohomology: graded ring models, Gamma class, Euler pairings
- quantum:    small quantum products and calibration series
- periods:    period vectors of the second structure connection
- monodromy:  loop geometry, monodromy matrices, reflection vectors
- mirror:     Mellin-Barnes and residue representations of period integrals
- vanishing:  weight-based vanishing predicate for blowup correlators
- cli:        command line entry points
"""

__version__ = "0.1.0"
