"""Walk through the structural analysis of one on-ramp configuration.

Loads the calibrated demo configuration into one model object, which holds
the affine delay constants, the all-selfish equilibrium and the social
optimum, and maps how the equilibrium moves as the altruistic share and level
change.

Run:  python demos/run_analysis.py
"""

from pathlib import Path

import onramp

ramp = onramp.OnRamp.from_config(onramp.load_config(Path(__file__).with_name("onramp.json")))

print("== configuration ==")
print(f"ramp share n0 = {ramp.n0},  inner-lane share n2 = {ramp.n2}")
print(f"steadfast delay = {ramp.steadfast_slope:.4g} * (1 - x) + {ramp.steadfast_intercept:.4g}")
print(f"bypass delay    = {ramp.bypass_slope:.4g} * x + {ramp.bypass_intercept:.4g}")
print(f"lane-2 delay    = {ramp.lane2_slope:.4g} * x + {ramp.bypass_intercept:.4g}")

print("\n== structure ==")
print(f"all-selfish bypass share (phi)   = {ramp.phi:.6f}")
print(f"optimal bypass share (delta)     = {ramp.delta:.6f}")
print(f"regime ratio (pi)                = {ramp.pi:.6f}")
print(f"selfish social delay             = {ramp.j_soc_at_phi:.6f}")
print(f"optimal social delay             = {ramp.j_opt:.6f}")
print(f"inside the meaningful set        = {ramp.in_meaningful_set}")

# The share of altruists must exceed phi before the social delay moves at all,
# and the optimum needs level 1 with at least delta altruists.
print("\n== equilibrium map ==")
print(f"{'alpha':>6} {'beta':>5} {'case':>9} {'x_hat_b':>9} {'j_soc':>9}  improves  optimal")
for alpha in (0.2, 0.55, 0.63, 0.8, 1.0):
    for beta in (0.5, 1.0):
        result = onramp.solve(ramp, alpha, beta)
        flags = onramp.improvement_conditions(ramp, alpha, beta)
        print(
            f"{alpha:>6.2f} {beta:>5.2f} {result.case.value:>9}"
            f" {result.x_hat_b:>9.5f} {result.social_delay:>9.5f}"
            f"  {str(flags.decreases):>8}  {str(flags.optimizes):>7}"
        )

# Every reported equilibrium satisfies the switching conditions: no driver of
# either class can lower its own (perceived) cost by changing option.
result = onramp.solve(ramp, alpha=0.8, beta=1.0)
report = onramp.verify_wardrop(ramp, result.flow, beta=1.0)
print(f"\nworst switching product at (alpha=0.8, beta=1): {report.max_product:.2e}")
