"""Build the named multiqubit states and reduce them to Bell pairs.

The whole protocol rests on one observation: for GHZ, Dicke and cluster
states one can pick single-qubit projectors for all but two parties such
that the surviving pair is maximally entangled.
"""

import numpy as np

import belldet as bd
from belldet.detmodel import X_PLUS, Z_ONE, Z_ZERO

np.set_printoptions(precision=4, suppress=True)


def reduce_to_pair(spec, projectors, lost=0):
    """Projection probabilities and the two-qubit state left for the Bell test."""
    config = bd.ScenarioConfig(
        state=spec, k=2, eta_L=0.1, eta_H=1.0, bell=bd.preset("CHSH"),
        projectors=tuple(projectors), lost=lost,
    )
    return bd.projected_state(config)


print("=== GHZ_4, project |+> on qubits 0 and 1 ===")
p_list, rho = reduce_to_pair(bd.StateSpec("GHZ", 4), [X_PLUS, X_PLUS])
for step, weight in enumerate(p_list):
    print(f"projection {step + 1}: weight = {weight:.4f}, {3 - step} qubits left")
print("final state matches the phi+ Bell pair:",
      np.allclose(rho.matrix, bd.ghz(2).density().matrix, atol=1e-12))

print()
print("=== Dicke(4,2), project |1> then |0> ===")
p_list, rho = reduce_to_pair(bd.StateSpec("Dicke", 4, excitations=2), [Z_ONE, Z_ZERO])
for weight in p_list:
    print(f"weight = {weight:.4f}")
print("final state matches the psi+ Bell pair:",
      np.allclose(rho.matrix, bd.dicke(2, 1).density().matrix, atol=1e-12))

print()
print("=== Cluster state: qubit 0 may even be lost entirely ===")
p_list, final = reduce_to_pair(bd.StateSpec("Cluster4", 4), [Z_ZERO], lost=1)
print(f"after losing qubit 0 and projecting |0>: weight = {p_list[0]:.4f}")
print("Bell pair recovered:",
      np.allclose(final.matrix, bd.ghz(2).density().matrix, atol=1e-12))

print()
print("=== Tilting the first projector prepares a partially entangled pair ===")
alpha = 0.3
tilted = bd.MeasurementSetting(2 * alpha)
p_list, rho_prime = reduce_to_pair(bd.StateSpec("GHZ", 4), [tilted, X_PLUS])
print(f"projection probabilities: {p_list}")
print("equals cos(a)|00> + sin(a)|11>:",
      np.allclose(rho_prime.matrix, bd.partial_pair(alpha).density().matrix, atol=1e-12))
