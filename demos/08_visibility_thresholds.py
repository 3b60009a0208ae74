"""White noise and detection efficiency trade off against each other."""

import numpy as np

import belldet as bd

chsh = bd.preset("CHSH")

print("=== critical visibility at perfect detection ===")
bell_config = bd.ScenarioConfig(bd.StateSpec("BellPhiPlus", 2), 2, 1.0, 1.0, chsh)
result = bd.critical_visibility(bell_config)
print(f"Bell pair: v* = {result.critical_value:.9f}  (1/sqrt(2) = {1/np.sqrt(2):.9f})")
# v* solves v (Q_pure - L) + (1 - v) (Q_noise - L) = 0, with L = 2
gap_pure, gap_noise = (result.diagnostics[f"bell_value_{part}"] - 2.0 for part in ("pure", "noise"))
print(f"  closed-form cross-check: {gap_noise / (gap_noise - gap_pure):.9f}")

ghz_config = bd.ScenarioConfig(bd.StateSpec("GHZ", 4), 2, 0.1, 1.0, chsh)
result = bd.critical_visibility(ghz_config)
print(f"GHZ_4:     v* = {result.critical_value:.9f}")

print()
print("=== lowering eta_H raises the visibility the state must keep ===")
eta_crit = bd.critical_eta_high(ghz_config).critical_value
for eta_H in (1.0, 0.95, 0.9, 0.85, eta_crit):
    config = bd.ScenarioConfig(bd.StateSpec("GHZ", 4), 2, 0.1, eta_H, chsh)
    result = bd.critical_visibility(config)
    print(f"  eta_H = {eta_H:.6f}: v* = {result.critical_value:.6f}")
print("at the critical efficiency the threshold closes at v* = 1: noise-free")
print("states are exactly the boundary case.")
