"""Delay models for a two-lane highway on-ramp with mixed selfish/altruistic drivers.

Lane 0 is the on-ramp, lane 1 the outer mainline lane whose drivers choose to
stay steadfast (merge with the ramp traffic) or bypass it (shift to lane 2),
and lane 2 the inner mainline lane.  Flows are proportions of the lane-1
flow.  Once a configuration is fixed, every delay is affine in the total
bypass share, so the whole model reduces to five derived constants.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from pathlib import Path

from .errors import ConfigError

# required keys of a JSON config document, in field order; no others are accepted
CONFIG_KEYS = ("n0", "c1t", "c1m", "c2t", "c2m", "mu", "gamma")
_fields_of, _keys_of = attrgetter(*CONFIG_KEYS), itemgetter(*CONFIG_KEYS)
# the largest finite float; an int above it compares below inf but has no float
FLOAT_MAX = sys.float_info.max
# the largest effective level: above it the altruistic crossing's 2*level*delta overflows
LEVEL_MAX = FLOAT_MAX / 2


@dataclass(frozen=True)
class OnRampConfig:
    """One on-ramp: the normalized on-ramp flow and six calibrated cost coefficients.

    ``n0`` is the on-ramp share of the flow neighboring lane 1; lane 2 carries
    the rest, ``n2 = 1 - n0``, stored on construction because the delay
    formulas read it on every call.  ``c1t``/``c1m`` weight the lane-1 through
    and merge terms, ``c2t``/``c2m`` the lane-2 terms; ``mu`` amplifies the
    merge interaction and ``gamma`` the lane-change interaction.  The
    coefficients are treated as opaque nonnegative constants.
    """

    n0: float
    c1t: float
    c1m: float
    c2t: float
    c2m: float
    mu: float
    gamma: float
    n2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "n2", 1.0 - self.n0)
            values = _fields_of(self)
            if {float}.issuperset(map(type, values)) and all(map(math.isfinite, values)):
                if min(values) >= 0.0 and self.n2 >= 0.0:
                    return  # the common valid case, in one pass
        except (TypeError, OverflowError):  # the checks below raise in field order
            pass
        _float_of("n0", self.n0)
        object.__setattr__(self, "n2", 1.0 - self.n0)
        if not math.isfinite(self.n0):
            raise ConfigError("neighbor flows must be finite numbers")
        if self.n0 < 0.0 or self.n2 < 0.0:
            raise ConfigError(f"neighbor flows must be nonnegative, got n0={self.n0}, n2={self.n2}")
        for name in CONFIG_KEYS[1:]:
            value = getattr(self, name)
            _float_of(name, value)
            if not math.isfinite(value) or value < 0.0:
                raise ConfigError(f"cost coefficient {name} must be finite and >= 0, got {value}")

    @classmethod
    def from_dict(cls, data) -> "OnRampConfig":
        """Build a config from a flat mapping with exactly the keys in CONFIG_KEYS."""
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = sorted(data.keys() - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if len(data) == len(CONFIG_KEYS) and {float}.issuperset(map(type, data.values())):
            return cls(*_keys_of(data))  # every key, each a float: the common case in one pass
        values = []
        for key in CONFIG_KEYS:
            if key not in data:
                raise ConfigError(f"missing config key: {key}")
            values.append(_float_of(key, data[key]))
        return cls(*values)


def _float_of(key: str, value) -> float:
    """``value`` as a float, or a ConfigError naming ``key``: bools, non-numbers, huge ints."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"config key {key} is too large for a float") from exc


def load_config(path) -> OnRampConfig:
    """Parse a JSON config file into an OnRampConfig."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return OnRampConfig.from_dict(data)


@dataclass(frozen=True)
class DelayCoefficients:
    """Affine constants of the four delay curves in the total bypass share x.

    steadfast (and on-ramp) delay: steadfast_slope * (1 - x) + steadfast_intercept
    bypass delay:                  bypass_slope * x + bypass_intercept
    lane-2 delay:                  lane2_slope * x + bypass_intercept
    """

    steadfast_slope: float
    steadfast_intercept: float
    bypass_slope: float
    bypass_intercept: float
    lane2_slope: float

    @property
    def slope_sum(self) -> float:
        return self.steadfast_slope + self.bypass_slope


def require_finite(name: str, value: float) -> float:
    """Return ``value``, or raise ConfigError when the config values overflow it."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} = {value} is not finite; the config values are too large")
    return value


def derive_coefficients(config: OnRampConfig) -> DelayCoefficients:
    """Collapse a validated config into the five affine delay constants, all finite."""
    c = config
    n0, n2 = c.n0, c.n2
    values = (
        c.c1t * c.mu + c.c1m * n0,  # steadfast_slope
        c.c1t * c.mu * n0,  # steadfast_intercept
        c.c2t * c.gamma + c.c2m * n2,  # bypass_slope
        c.c2t * n2,  # bypass_intercept
        c.c2t + c.c2m * n2,  # lane2_slope
    )
    derived = DelayCoefficients(*values)
    if not all(map(math.isfinite, values)):  # only here: vars() slows every later read
        for name, value in vars(derived).items():
            require_finite(name, value)
    return derived


@dataclass(frozen=True)
class DelayProfile:
    """Travel delays by option/lane; on_ramp always equals steadfast."""

    steadfast: float
    bypass: float
    on_ramp: float
    lane2: float


def check_share(x_hat_b: float) -> None:
    if not 0.0 <= x_hat_b <= 1.0:
        raise ValueError(f"bypass share must lie in [0, 1], got {x_hat_b}")


def delay_lines(derived: DelayCoefficients, x_hat_b):
    """Steadfast, bypass and lane-2 delays at any share: a float or numpy array, unchecked."""
    return (
        derived.steadfast_slope * (1.0 - x_hat_b) + derived.steadfast_intercept,
        derived.bypass_slope * x_hat_b + derived.bypass_intercept,
        derived.lane2_slope * x_hat_b + derived.bypass_intercept,
    )


def delays(derived: DelayCoefficients, x_hat_b: float) -> DelayProfile:
    """Travel delays at total bypass share ``x_hat_b`` in [0, 1]."""
    check_share(x_hat_b)
    steadfast, bypass, lane2 = delay_lines(derived, x_hat_b)
    return DelayProfile(steadfast, bypass, steadfast, lane2)


def social_delay(config: OnRampConfig, derived: DelayCoefficients, x_hat_b: float) -> float:
    """Flow-weighted total delay, a convex quadratic in the bypass share.

    The argument is deliberately unrestricted: the unconstrained minimizer may
    fall outside [0, 1] and callers locate it by evaluating the same affine
    extension used here.
    """
    steadfast, bypass, lane2 = delay_lines(derived, x_hat_b)
    n0, n2 = config.n0, config.n2
    return (1.0 - x_hat_b) * steadfast + x_hat_b * bypass + n0 * steadfast + n2 * lane2


@dataclass(frozen=True)
class AltruisticCostPair:
    """Costs perceived by altruistic drivers for the two options."""

    steadfast_cost: float
    bypass_cost: float


def option_costs(config: OnRampConfig, derived: DelayCoefficients, x_hat_b, level):
    """(steadfast delay, bypass delay, steadfast cost, bypass cost) at ``x_hat_b``.

    Each perceived cost is the delay plus the effective level beta*error times
    that option's marginal-delay term.  Unchecked; floats or numpy arrays.
    """
    steadfast, bypass, _ = delay_lines(derived, x_hat_b)
    n0, n2 = config.n0, config.n2
    steadfast_cost = steadfast + level * derived.steadfast_slope * ((1.0 - x_hat_b) + n0)
    bypass_cost = bypass + level * (derived.bypass_slope * x_hat_b + derived.lane2_slope * n2)
    return steadfast, bypass, steadfast_cost, bypass_cost


def cost_gaps(config: OnRampConfig, derived: DelayCoefficients, x_hat_b, level):
    """Steadfast-minus-bypass (travel delay, perceived cost) gaps; positive favors bypass."""
    steadfast, bypass, steadfast_cost, bypass_cost = option_costs(
        config, derived, x_hat_b, level
    )
    return steadfast - bypass, steadfast_cost - bypass_cost


def altruistic_costs(
    config: OnRampConfig,
    derived: DelayCoefficients,
    x_hat_b: float,
    beta: float,
    error: float = 1.0,
) -> AltruisticCostPair:
    """Perceived costs at level ``beta`` with multiplicative error ``error``.

    Each cost is the travel delay plus beta*error times the marginal-delay
    term of that option; the costs depend on beta and error only through
    their product, which is computed first so scaling one against the other
    is exactly neutral.
    """
    check_population(beta=beta, error=error)
    check_share(x_hat_b)
    _, _, steadfast_cost, bypass_cost = option_costs(config, derived, x_hat_b, beta * error)
    return AltruisticCostPair(steadfast_cost=steadfast_cost, bypass_cost=bypass_cost)


@dataclass(frozen=True)
class FlowDistribution:
    """Split of the lane-1 flow by driver class and option.

    Deliberately unvalidated so that infeasible candidates can be constructed
    and reported on; use validate_flow_distribution for feasibility checks.
    """

    selfish_steadfast: float
    selfish_bypass: float
    altruistic_steadfast: float
    altruistic_bypass: float

    @property
    def total_bypass(self) -> float:
        return self.selfish_bypass + self.altruistic_bypass


@dataclass(frozen=True)
class ConstraintViolation:
    constraint: str
    residual: float


def validate_flow_distribution(
    flow: FlowDistribution, alpha: float, tol: float = 1e-9
) -> list[ConstraintViolation]:
    """Report every feasibility constraint violated beyond ``tol``.

    An empty list means the flow is a feasible split for altruistic ratio
    ``alpha``: class masses balance and all components are nonnegative.
    """
    violations = []
    selfish_residual = abs(flow.selfish_steadfast + flow.selfish_bypass - (1.0 - alpha))
    if selfish_residual > tol:
        violations.append(ConstraintViolation("selfish_mass_balance", selfish_residual))
    altruistic_residual = abs(
        flow.altruistic_steadfast + flow.altruistic_bypass - alpha
    )
    if altruistic_residual > tol:
        violations.append(
            ConstraintViolation("altruistic_mass_balance", altruistic_residual)
        )
    for component in fields(flow):
        value = getattr(flow, component.name)
        if value < -tol:
            violations.append(ConstraintViolation(f"nonnegative_{component.name}", -value))
    return violations


def check_float(name: str, value) -> None:
    """Raise ValueError naming ``name`` when ``value`` is an int too large for a float."""
    if isinstance(value, int) and abs(value) > FLOAT_MAX:
        raise ValueError(f"{name} is too large for a float")


def check_population(alpha: float = 0.0, beta: float = 0.0, error: float = 1.0) -> None:
    """Require alpha in [0, 1], beta >= 0, error > 0 and beta*error <= LEVEL_MAX; defaults pass."""
    if not 0.0 <= alpha <= 1.0:
        check_float("alpha", alpha)
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not 0.0 <= beta <= FLOAT_MAX:
        check_float("beta", beta)
        reason = "must be >= 0" if beta < 0.0 else "must be finite"
        raise ValueError(f"beta {reason}, got {beta}")
    if not 0.0 < error <= FLOAT_MAX:
        check_float("error factor", error)
        reason = "must be > 0" if error <= 0.0 else "must be finite"
        raise ValueError(f"error factor {reason}, got {error}")
    if not beta * error <= LEVEL_MAX:
        cause = "is not finite" if beta * error > FLOAT_MAX else f"exceeds the bound {LEVEL_MAX}"
        raise ValueError(f"effective level beta*error = {beta} * {error} {cause}")
