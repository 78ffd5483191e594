"""Delay models for a two-lane highway on-ramp with mixed selfish/altruistic drivers.

Lane 0 is the on-ramp, lane 1 the outer mainline lane whose drivers choose to
stay steadfast (merge with the ramp traffic) or bypass it (shift to lane 2),
and lane 2 the inner mainline lane.  Flows are proportions of the lane-1
flow.  Once a configuration is fixed, every delay is affine in the total
bypass share, so the whole model reduces to five derived constants.  One
frozen ``OnRamp``, built once from a config, holds them with the neighboring
flows and the closed-form structure computed from them; every solver, oracle
and sweep takes it as its one model argument.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import ConfigError, DegenerateConfigError

__all__ = [
    "DelayProfile", "FlowDistribution", "OnRamp", "OnRampConfig", "delays",
    "derive_coefficients", "load_config", "social_delay",
]

# required keys of a JSON config document, in field order; no others are accepted
CONFIG_KEYS = ("n0", "c1t", "c1m", "c2t", "c2m", "mu", "gamma")
_KEY_SET = frozenset(CONFIG_KEYS)
_fields_of, _keys_of = attrgetter(*CONFIG_KEYS), itemgetter(*CONFIG_KEYS)
# the largest finite float; an int above it compares below inf but has no float
FLOAT_MAX = sys.float_info.max
# the largest effective level: above it the altruistic crossing's 2*level*delta overflows
LEVEL_MAX = FLOAT_MAX / 2


@dataclass(frozen=True)
class OnRampConfig:
    """One on-ramp: the normalized on-ramp flow and six calibrated cost coefficients.

    ``n0`` is the on-ramp share of the flow neighboring lane 1; lane 2 carries
    the rest, ``n2 = 1 - n0``.  ``c1t``/``c1m`` weight the lane-1 through
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

    def __post_init__(self):
        values = _fields_of(self)
        if ({float}.issuperset(map(type, values)) and all(map(math.isfinite, values))
                and min(values) >= 0.0 and 1.0 - self.n0 >= 0.0):
            return  # the common valid case, in one pass
        for name, value in zip(CONFIG_KEYS, values):  # else field by field, each stored as a float
            value = _float_of(name, value)
            object.__setattr__(self, name, value)
            if name == "n0" and not math.isfinite(value):
                raise ConfigError("neighbor flows must be finite numbers")
            if name == "n0" and (value < 0.0 or self.n2 < 0.0):
                raise ConfigError(
                    f"neighbor flows must be nonnegative, got n0={value}, n2={self.n2}")
            if not math.isfinite(value) or value < 0.0:  # a cost coefficient: n0 passed above
                raise ConfigError(f"cost coefficient {name} must be finite and >= 0, got {value}")

    @property
    def n2(self) -> float:
        return 1.0 - self.n0

    @classmethod
    def from_dict(cls, data) -> "OnRampConfig":
        """A config from a JSON object of exactly CONFIG_KEYS; the constructor checks each value."""
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        if data.keys() != _KEY_SET:
            unknown = sorted(data.keys() - _KEY_SET)
            if unknown:
                raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
            missing = next(key for key in CONFIG_KEYS if key not in data)
            raise ConfigError(f"missing config key: {missing}")
        return cls(*_keys_of(data))


def _float_of(key: str, value) -> float:
    """``value`` as a float, or a ConfigError naming ``key``: bools, non-numbers, huge ints."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"config key {key} is too large for a float") from exc


def load_config(path) -> OnRampConfig:
    """Parse a JSON config file into an OnRampConfig.

    The file is read as bytes in one call, then decoded and its newlines translated as
    text mode does, so that a BOM or a UTF-16 file stays an error and JSON error
    positions count the same characters.
    """
    with open(path, "rb", buffering=0) as stream:
        raw = stream.read()
    try:
        text = raw.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)  # a str: json.loads would sniff the encoding of bytes
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return OnRampConfig.from_dict(data)


def require_finite(name: str, value: float) -> float:
    """Return ``value``, or raise ConfigError when the config values overflow it."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} = {value} is not finite; the config values are too large")
    return value


@dataclass(frozen=True)
class OnRamp:
    """One configuration's delay model and its analysis; build it with from_config.

    The neighboring flows ``n0`` and ``n2``, then the affine constants of the
    delay curves in the total bypass share x:

    steadfast (and on-ramp) delay: steadfast_slope * (1 - x) + steadfast_intercept
    bypass delay:                  bypass_slope * x + bypass_intercept
    lane-2 delay:                  lane2_slope * x + bypass_intercept

    The analysis is computed from those on construction: the selfish crossing
    ``phi``, the social-delay minimizer ``delta``, the optimum ``j_opt`` on
    [0, 1] and the all-selfish delay ``j_soc_at_phi``, all finite; ``pi`` by
    _pi_value; meaningful-set membership.  ``decrease_interval`` is open on the
    left (alpha must exceed phi to help) while ``optimize_interval`` is closed.
    """

    n0: float
    n2: float
    steadfast_slope: float
    steadfast_intercept: float
    bypass_slope: float
    bypass_intercept: float
    lane2_slope: float
    phi: float = field(init=False)
    delta: float = field(init=False)
    pi: float = field(init=False)
    j_opt: float = field(init=False)
    j_soc_at_phi: float = field(init=False)
    in_meaningful_set: bool = field(init=False)
    exclusion_reason: str | None = field(init=False)
    decrease_interval: tuple[float, float] = field(init=False)
    optimize_interval: tuple[float, float] = field(init=False)

    @classmethod
    def from_config(cls, config: OnRampConfig) -> "OnRamp":
        """Collapse a validated config into the delay constants and analyze them."""
        c = config
        n0, n2 = c.n0, c.n2
        return cls(
            n0, n2,
            c.c1t * c.mu + c.c1m * n0,  # steadfast_slope
            c.c1t * c.mu * n0,  # steadfast_intercept
            c.c2t * c.gamma + c.c2m * n2,  # bypass_slope
            c.c2t * n2,  # bypass_intercept
            c.c2t + c.c2m * n2,  # lane2_slope
        )

    def __post_init__(self):
        ks, bs = self.steadfast_slope, self.steadfast_intercept
        kb, bb, k2 = self.bypass_slope, self.bypass_intercept, self.lane2_slope
        if not all(map(math.isfinite, (ks, bs, kb, bb, k2))):
            for name in _CONSTANTS:
                require_finite(name, getattr(self, name))
        slope_sum = ks + kb
        if slope_sum <= 0.0:
            raise DegenerateConfigError("all delay slopes vanish; no interior crossing")
        phi = require_finite("phi", (ks + bs - bb) / slope_sum)
        # stationarity of the convex quadratic: its second-order coefficient is
        # the slope sum, its linear one the intercept gap and neighbor weights
        delta = require_finite(
            "delta", (2.0 * ks + bs - bb + self.n0 * ks - self.n2 * k2) / (2.0 * slope_sum)
        )
        clamped = min(max(delta, 0.0), 1.0)
        j_opt = require_finite("j_opt", social_delay(self, clamped))
        reason = (  # why (phi, delta) is outside the meaningful set 0 < phi < delta < 1
            "Phi <= 0" if not phi > 0.0
            else "Phi >= Delta" if not phi < delta
            else "Delta >= 1" if not delta < 1.0
            else None
        )
        pi = _pi_value(phi, delta)
        j_soc_at_phi = require_finite("j_soc_at_phi", social_delay(self, phi))
        # one field at a time: reading self.__dict__ would build the instance's dict, and
        # every later field read of this model would take about 1.5x as long (CPython 3.11)
        set_ = object.__setattr__
        set_(self, "phi", phi)
        set_(self, "delta", delta)
        set_(self, "pi", pi)
        set_(self, "j_opt", j_opt)
        set_(self, "j_soc_at_phi", j_soc_at_phi)
        set_(self, "in_meaningful_set", reason is None)
        set_(self, "exclusion_reason", reason)
        set_(self, "decrease_interval", (phi, 1.0))
        set_(self, "optimize_interval", (clamped, 1.0))

    @property
    def slope_sum(self) -> float:
        return self.steadfast_slope + self.bypass_slope


_CONSTANTS = (
    "steadfast_slope", "steadfast_intercept", "bypass_slope", "bypass_intercept", "lane2_slope"
)


def derive_coefficients(config: OnRampConfig) -> OnRamp:
    return OnRamp.from_config(config)  # until perfbench calls the one-object forms


def _pi_value(phi: float, delta: float) -> float:
    """Regime ratio (1 - phi) / (2*delta - phi - 1).

    Inside the meaningful set the ratio is either negative or greater than 1;
    it is the effective level at which the altruistic crossing reaches 1.  At a
    zero denominator it is the limit: +/-inf with the sign of 1 - phi, or NaN.
    """
    numerator, denominator = 1.0 - phi, 2.0 * delta - phi - 1.0
    if denominator == 0.0:
        return math.copysign(math.inf, numerator) if numerator != 0.0 else math.nan
    return numerator / denominator


class DelayProfile(NamedTuple):
    """Travel delays by option/lane; on_ramp always equals steadfast."""

    steadfast: float
    bypass: float
    on_ramp: float
    lane2: float


def check_share(x_hat_b: float) -> None:
    if not 0.0 <= x_hat_b <= 1.0:
        raise ValueError(f"bypass share must lie in [0, 1], got {x_hat_b}")


def delay_lines(ramp: OnRamp, x_hat_b):
    """Steadfast, bypass and lane-2 delays at any share: a float or numpy array, unchecked."""
    return (
        ramp.steadfast_slope * (1.0 - x_hat_b) + ramp.steadfast_intercept,
        ramp.bypass_slope * x_hat_b + ramp.bypass_intercept,
        ramp.lane2_slope * x_hat_b + ramp.bypass_intercept,
    )


def delays(ramp: OnRamp, x_hat_b: float) -> DelayProfile:
    """Travel delays at total bypass share ``x_hat_b`` in [0, 1]."""
    check_share(x_hat_b)
    steadfast, bypass, lane2 = delay_lines(ramp, x_hat_b)
    return DelayProfile(steadfast, bypass, steadfast, lane2)


def social_delay(ramp: OnRamp, x_hat_b: float) -> float:
    """Flow-weighted total delay, a convex quadratic in the bypass share.

    The argument is deliberately unrestricted: the unconstrained minimizer may
    fall outside [0, 1] and callers locate it by evaluating the same affine
    extension used here.
    """
    steadfast, bypass, lane2 = delay_lines(ramp, x_hat_b)
    n0, n2 = ramp.n0, ramp.n2
    return (1.0 - x_hat_b) * steadfast + x_hat_b * bypass + n0 * steadfast + n2 * lane2


def cost_gaps(ramp: OnRamp, x_hat_b, level):
    """Steadfast-minus-bypass (travel delay, perceived cost) gaps; positive favors bypass.

    Each perceived cost is the delay plus the effective level beta*error times
    that option's marginal-delay term.  Unchecked; floats or numpy arrays.
    """
    steadfast, bypass, _ = delay_lines(ramp, x_hat_b)
    steadfast_cost = steadfast + level * ramp.steadfast_slope * ((1.0 - x_hat_b) + ramp.n0)
    bypass_cost = bypass + level * (ramp.bypass_slope * x_hat_b + ramp.lane2_slope * ramp.n2)
    return steadfast - bypass, steadfast_cost - bypass_cost


class FlowDistribution(NamedTuple):
    """Split of the lane-1 flow by driver class and option.

    Deliberately unvalidated, so that infeasible candidates (class masses
    other than 1 - alpha and alpha) can be constructed and reported on.
    """

    selfish_steadfast: float
    selfish_bypass: float
    altruistic_steadfast: float
    altruistic_bypass: float

    @property
    def total_bypass(self) -> float:
        return self.selfish_bypass + self.altruistic_bypass


def check_float(name: str, value) -> None:
    """Raise ValueError naming ``name`` when ``value`` is an int too large for a float."""
    if isinstance(value, int) and abs(value) > FLOAT_MAX:
        raise ValueError(f"{name} is too large for a float")


def as_float64(value):
    """A real non-int, such as a numpy float32 (FLOAT_MAX overflows there), as a float."""
    from numbers import Real  # off the start-up path: floats never get here

    return value if isinstance(value, int) or not isinstance(value, Real) else float(value)


def check_population(alpha: float = 0.0, beta: float = 0.0, error: float = 1.0) -> float:
    """Require alpha in [0, 1], beta >= 0, error > 0, beta*error <= LEVEL_MAX; return beta*error."""
    if not 0.0 <= alpha <= 1.0:
        check_float("alpha", alpha)
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    b = beta if type(beta) is float else as_float64(beta)  # compared and multiplied in float64
    e = error if type(error) is float else as_float64(error)
    if not 0.0 <= b <= FLOAT_MAX:
        check_float("beta", beta)
        reason = "must be >= 0" if b < 0.0 else "must be finite"
        raise ValueError(f"beta {reason}, got {beta}")
    if not 0.0 < e <= FLOAT_MAX:
        check_float("error factor", error)
        reason = "must be > 0" if e <= 0.0 else "must be finite"
        raise ValueError(f"error factor {reason}, got {error}")
    level = b * e
    if not level <= LEVEL_MAX:
        cause = "is not finite" if level > FLOAT_MAX else f"exceeds the bound {LEVEL_MAX}"
        raise ValueError(f"effective level beta*error = {beta} * {error} {cause}")
    return level
