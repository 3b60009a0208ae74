"""CHSH on a Bell pair: quantum maximum, efficiency curve, classical bound."""

import numpy as np

import belldet as bd

chsh = bd.preset("CHSH")
rho = bd.bell_phi_plus().density()

print(f"classical bound by best response over local strategies: {bd.lhv_bound(chsh)}")

settings, value = bd.optimize_settings(chsh, rho, [1.0, 1.0])
print(f"optimized quantum value at eta = 1: {value:.9f}  (2*sqrt(2) = {2*np.sqrt(2):.9f})")
angles = [[f"{s.theta:+.4f}" for s in party] for party in settings]
print(f"optimal angles (radians): {angles}")

print()
print("quantum value against the shared detector efficiency, settings fixed:")
eta_crit = 2.0 / (1.0 + np.sqrt(2.0))
for eta in (1.0, 0.9, eta_crit, 0.8, 0.7):
    q = bd.quantum_value(chsh, rho, settings, [eta, eta])
    marker = "  <- threshold" if abs(eta - eta_crit) < 1e-12 else ""
    print(f"  eta = {eta:.6f}: value = {q:.6f}{marker}")

print()
result = bd.critical_eta(chsh, rho)
print(f"solved symmetric critical efficiency: {result.critical_value:.9f}")
print(f"  residual {result.achieved_residual:.2e} after {result.iterations} rounds")
print(f"  2/(1+sqrt(2)) = {eta_crit:.9f}")
