"""Efficiency-dressed measurements under the two bookkeeping conventions.

Each number is the quantum value of a one-party expression: a single
probability term reads one outcome's click probability, a single
correlation term the folded observable A(eta) = 2 eta Pi+ - I.
"""

import numpy as np

import belldet as bd
from belldet import BellExpression, BellForm, BellTerm

FOLD, TRINARY = bd.Convention.FOLD, bd.Convention.TRINARY
eta_crit = 2.0 / (1.0 + np.sqrt(2.0))
setting = bd.MeasurementSetting(theta=0.0)  # measure |0><0| vs |1><1|
zero = bd.PureState(1, np.array([1.0, 0.0])).density()
one = bd.PureState(1, np.array([0.0, 1.0])).density()
mixed = bd.DensityMatrix(1, np.eye(2) / 2)


def click(outcome, rho, eta, convention):
    """Probability that the detector reports ``outcome``."""
    expr = BellExpression(1, 1, BellForm.PROBABILITY, (BellTerm((0,), 1.0, (outcome,)),), 0.0)
    return bd.quantum_value(expr, rho, [[setting]], [eta], convention)


def folded(rho, eta):
    """<A(eta)>, the folded +/- observable of correlation terms."""
    expr = BellExpression(1, 1, BellForm.CORRELATION, (BellTerm((0,), 1.0),), 0.0)
    return bd.quantum_value(expr, rho, [[setting]], [eta], FOLD)


print("FOLD convention: a missed detection counts as '-'")
for eta in (1.0, eta_crit, 0.5, 0.0):
    p_plus, p_minus = click("+", zero, eta, FOLD), click("-", zero, eta, FOLD)
    # |0> and |1> are A(eta)'s eigenvectors, so these are its eigenvalues
    eigenvalues = sorted([folded(zero, eta), folded(one, eta)])
    print(f"  eta={eta:.4f}: p(+)={p_plus:.4f}  p(-)={p_minus:.4f}  "
          f"A(eta) eigenvalues={np.round(eigenvalues, 4)}")

print()
print("TRINARY convention: the no-click branch is its own outcome")
for eta in (1.0, 2.0 / 3.0, 0.9):
    p = [click(outcome, mixed, eta, TRINARY) for outcome in "+-0"]
    print(f"  eta={eta:.4f} on I/2: (p+, p-, p0) = ({p[0]:.4f}, {p[1]:.4f}, {p[2]:.4f})")

print()
print("The dressed observable is affine in eta, so thresholds solve cleanly:")
values = [folded(mixed, eta) for eta in (0.0, 0.5, 1.0)]
print(f"  <A(eta)> on I/2 at eta=0, 0.5, 1: {np.round(values, 12)} "
      "(midpoint = average of endpoints)")
