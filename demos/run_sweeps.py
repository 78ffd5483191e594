"""Produce the two sweep CSVs: social delay vs. ratio, and vs. effective level.

Writes demos/output/ratio_sweep.csv and demos/output/level_sweep.csv.  Any
plotting tool can consume them; the columns are documented in the README.

Run:  python demos/run_sweeps.py
"""

from pathlib import Path

import onramp
from onramp.sweeps import alpha_sweep, beta_e_sweep, write_alpha_sweep, write_beta_e_sweep

here = Path(__file__).parent
ramp = onramp.OnRamp.from_config(onramp.load_config(here / "onramp.json"))

out_dir = here / "output"
out_dir.mkdir(exist_ok=True)

# Sweep the altruistic ratio for three levels.  The level-1 curve is flat at
# the selfish delay until phi, falls to the optimum, and stays there past delta.
rows = alpha_sweep(ramp, betas=[0.2, 0.5, 1.0], alpha_step=0.01)
with open(out_dir / "ratio_sweep.csv", "w", encoding="utf-8", newline="") as stream:
    write_alpha_sweep(rows, stream)
print(f"ratio_sweep.csv: {len(rows)} rows")

# Sweep the effective level for two abundant ratios.  The 0.8 curve bottoms out
# exactly at level 1; the 0.63 curve flattens once the level passes its
# transition point because the altruists have all switched already.
rows = beta_e_sweep(ramp, alphas=[0.63, 0.8], beta_e_max=4.0, step=0.01)
with open(out_dir / "level_sweep.csv", "w", encoding="utf-8", newline="") as stream:
    write_beta_e_sweep(rows, stream)
print(f"level_sweep.csv: {len(rows)} rows")

transition = onramp.transition_beta(0.63, ramp.phi, ramp.delta)
print(f"transition level for ratio 0.63: {transition:.5f}")
print(f"optimal social delay {ramp.j_opt:.6f} reached at level 1 for ratios >= {ramp.delta:.4f}")
