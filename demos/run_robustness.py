"""Explore the worst-case analysis under marginal-cost measurement error.

Altruists perceive their marginal-cost term scaled by an unknown factor in
[e_lower, e_upper].  The price of anarchy measures the worst equilibrium
social delay over that interval (and over abundant altruistic ratios)
relative to the optimum; one altruism level minimizes it in closed form.

Run:  python demos/run_robustness.py
"""

from pathlib import Path

import onramp

ramp = onramp.OnRamp.from_config(onramp.load_config(Path(__file__).with_name("onramp.json")))
interval = onramp.ErrorInterval(0.5, 2.0)

print(f"error interval [{interval.e_lower}, {interval.e_upper}]")
label = onramp.classification(ramp, interval)
print(f"worst-case regime: {label.regime.value}")

# Sample the PoA curve: it falls toward the optimal level and rises past it.
print(f"\n{'beta':>5} {'poa':>10}")
for tenths in range(1, 21):
    beta = tenths / 10.0
    value = onramp.poa(ramp, beta, interval)
    print(f"{beta:>5.1f} {value:>10.6f}")

result = onramp.optimal_beta(ramp, interval)
print(f"\noptimal level beta* = {result.beta_star:.6f} ({result.branch.value} branch)")
print(f"poa at beta*        = {result.poa:.6f}")
for point in result.worst_case_points:
    print(
        f"worst case: error={point.error:g} ratio={point.alpha:g}"
        f" share={point.x_hat_b:.5f} delay={point.j_soc:.6f}"
    )

# Cross-check against the oracle: a golden-section search on sampled errors.
sampled = onramp.grid_optimal_beta(ramp, interval)
print(f"\ngrid-oracle minimizer: {sampled:.4f} (analytic {result.beta_star:.4f})")
