"""Independent re-derivation of the onramp closed forms from raw config values.

The benchmark checks every result against this module, never against the
function that produced it.  Everything here is written out from the delay
model itself (affine delays in the total bypass share), so a defect in the
package's formulas shows as a mismatch instead of being copied.
"""

from __future__ import annotations

import math

# widest relative disagreement accepted between the package and this module
REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


class Reference:
    """Closed forms of one configuration document (a dict of the seven keys)."""

    def __init__(self, doc: dict):
        self.n0 = doc["n0"]
        self.n2 = 1.0 - self.n0
        c1t, c1m, c2t, c2m = doc["c1t"], doc["c1m"], doc["c2t"], doc["c2m"]
        mu, gamma = doc["mu"], doc["gamma"]
        # the five constants of the affine delays: steadfast S(x) = ks*(1-x) + bs,
        # bypass B(x) = kb*x + bb, lane 2 L(x) = k2*x + bb
        self.ks = c1t * mu + c1m * self.n0
        self.bs = c1t * mu * self.n0
        self.kb = c2t * gamma + c2m * self.n2
        self.bb = c2t * self.n2
        self.k2 = c2t + c2m * self.n2
        slopes = self.ks + self.kb
        # S(phi) == B(phi)
        self.phi = (self.ks + self.bs - self.bb) / slopes
        # J'(delta) == 0 for J(x) = (1 + n0 - x) S(x) + x B(x) + n2 L(x)
        self.delta = (
            2.0 * self.ks + self.bs + self.n0 * self.ks - self.bb - self.n2 * self.k2
        ) / (2.0 * slopes)
        self.j_opt = self.social_delay(min(max(self.delta, 0.0), 1.0))
        if not self.phi > 0.0:
            self.reason = "Phi <= 0"
        elif not self.phi < self.delta:
            self.reason = "Phi >= Delta"
        elif not self.delta < 1.0:
            self.reason = "Delta >= 1"
        else:
            self.reason = None
        denominator = 2.0 * self.delta - self.phi - 1.0
        self.pi = (1.0 - self.phi) / denominator if denominator != 0.0 else math.inf

    @property
    def meaningful(self) -> bool:
        return self.reason is None

    def travel_gap(self, x: float) -> float:
        return self.ks * (1.0 - x) + self.bs - (self.kb * x + self.bb)

    def perceived_gap(self, x: float, level: float) -> float:
        marginal = self.ks * ((1.0 - x) + self.n0) - (self.kb * x + self.k2 * self.n2)
        return self.travel_gap(x) + level * marginal

    def social_delay(self, x: float) -> float:
        steadfast = self.ks * (1.0 - x) + self.bs
        return (
            (1.0 + self.n0 - x) * steadfast
            + x * (self.kb * x + self.bb)
            + self.n2 * (self.k2 * x + self.bb)
        )

    def crossing(self, level: float) -> float:
        """Share where the perceived gap is zero: solve its affine form."""
        at_zero = self.perceived_gap(0.0, level)
        slope = self.perceived_gap(1.0, level) - at_zero
        return -at_zero / slope

    def share(self, alpha: float, level: float) -> float:
        """Equilibrium total bypass share at altruistic ratio alpha."""
        if level == 0.0 or alpha <= self.phi:
            return self.phi
        return min(alpha, self.crossing(level))

    def max_switching_product(self, flow, level: float) -> float:
        x = flow.selfish_bypass + flow.altruistic_bypass
        travel = self.travel_gap(x)
        perceived = self.perceived_gap(x, level)
        return max(
            flow.selfish_steadfast * travel,
            flow.selfish_bypass * -travel,
            flow.altruistic_steadfast * perceived,
            flow.altruistic_bypass * -perceived,
        )

    def product_tol(self) -> float:
        """Switching products are rounding noise times the delay magnitudes."""
        return 1e-9 * (1.0 + self.ks + self.bs + self.kb + self.bb + self.k2)

    def poa(self, beta: float, e_lower: float, e_upper: float) -> float:
        """Worst case over the error endpoints at full altruism, over the optimum."""
        worst = max(self.social_delay(self.share(1.0, beta * e)) for e in (e_lower, e_upper))
        return worst / self.j_opt

    def transition_limited(self, e_lower: float, e_upper: float) -> bool:
        return 0.0 < self.pi < math.sqrt(e_upper / e_lower)

    def beta_star(self, e_lower: float, e_upper: float) -> float:
        if self.transition_limited(e_lower, e_upper):
            return 1.0 / (e_lower * self.pi)
        return 1.0 / math.sqrt(e_lower * e_upper)
