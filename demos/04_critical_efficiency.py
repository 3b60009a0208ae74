"""Two efficient detectors suffice for GHZ, Dicke and cluster states.

Project all but two qubits, run CHSH on the rest, and solve for the
critical efficiency of the two good detectors. The low-efficiency
detectors only need eta_L > 0: their efficiency scales the composite
expression without changing its sign.
"""

import time

import belldet as bd
from belldet.detmodel import Z_ZERO

chsh = bd.preset("CHSH")

cases = {
    "GHZ_3": bd.ScenarioConfig(bd.StateSpec("GHZ", 3), 2, 0.1, 1.0, chsh),
    "GHZ_6": bd.ScenarioConfig(bd.StateSpec("GHZ", 6), 2, 0.1, 1.0, chsh),
    "Dicke(4,2)": bd.ScenarioConfig(bd.StateSpec("Dicke", 4, excitations=2), 2, 0.1, 1.0, chsh),
    "Cluster4": bd.ScenarioConfig(bd.StateSpec("Cluster4", 4), 2, 0.1, 1.0, chsh),
    "Cluster4, first detector blind": bd.ScenarioConfig(
        bd.StateSpec("Cluster4", 4), 2, 0.1, 1.0, chsh, lost=1, projectors=(Z_ZERO,)
    ),
}

print(f"reference threshold 2/(1+sqrt(2)) = {2/(1+2**0.5):.9f}")
print()
for name, config in cases.items():
    start = time.monotonic()
    result = bd.critical_eta_high(config)
    print(f"{name:32s} eta_H^crit = {result.critical_value:.9f} "
          f"({time.monotonic()-start:.1f}s)")

print()
print("the low efficiencies never flip the sign of the composite expression:")
for eta_L in (1e-3, 1e-2, 1e-1, 1.0):
    config = bd.ScenarioConfig(bd.StateSpec("GHZ", 4), 2, eta_L, 0.9, chsh)
    lhs = bd.composite_parts(config, restarts=16)[0]
    print(f"  eta_L = {eta_L:7.0e}: composite = {lhs:.3e} (violation: {lhs > 0})")
