"""Cheap detectors cost time: the trial-count trade-off."""

import belldet as bd

chsh = bd.preset("CHSH")

print("GHZ_4, CHSH on the last two qubits, projections succeed with 1/2 each.")
print()
print("eta_L/eta_H   n' = extra trials vs a standard all-efficient test")
for ratio in (1.0, 0.8, 0.6, 0.45, 0.3, 0.15, 0.05):
    config = bd.ScenarioConfig(bd.StateSpec("GHZ", 4), 2, ratio, 1.0, chsh)
    print(f"   {ratio:5.2f}      {bd.trial_stats(config).n_prime:12.1f}")

print()
config = bd.ScenarioConfig(bd.StateSpec("GHZ", 4), 2, 0.45, 1.0, chsh)
stats = bd.trial_stats(config)
p_succ, p_std = stats.p_succ, stats.p_succ_standard
print(f"at ratio 0.45: p_succ = {p_succ:.6f} vs standard {p_std:.6f}")
print(f"  -> n' = {stats.n_prime:.2f}, about 20 times more repetitions")
for r in (100, 1000):
    print(f"  expected trials for {r} successes: "
          f"{bd.pascal_expected_trials(r, p_succ):,.0f} "
          f"(standard: {bd.pascal_expected_trials(r, p_std):,.0f})")

print()
print("finite-run statistics come from the binomial distribution, e.g. the")
print("chance of seeing exactly r successes in 40 trials at p_succ:")
for r in (0, 2, 4, 8):
    print(f"  r = {r}: {bd.bernoulli_pmf(40, r, p_succ):.4f}")
