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
from operator import itemgetter
from typing import NamedTuple

from .errors import ConfigError, DegenerateConfigError

# required keys of a JSON config document, in field order; no others are accepted
CONFIG_KEYS = ("n0", "c1t", "c1m", "c2t", "c2m", "mu", "gamma")
_KEY_SET = frozenset(CONFIG_KEYS)
_keys_of = itemgetter(*CONFIG_KEYS)
# the largest finite float; an int above it compares below inf but has no float
FLOAT_MAX = sys.float_info.max
# the largest effective level: above it the altruistic crossing's 2*level*delta overflows
LEVEL_MAX = FLOAT_MAX / 2
# the number format of the CLI's output and of the CSV sweeps: 12 significant digits,
# below every tolerance in use
NUMBER_FORMAT = ".12g"
# builds a NamedTuple from a tuple of its fields, skipping the generated __new__'s call
_new = tuple.__new__


def format_number(value: float) -> str:
    return format(value, NUMBER_FORMAT)


class Frozen:
    """Base of the validating records: the frozen dataclass protocol, written out.

    A record lists its fields in ``__slots__``, and its own ``__init__`` stores them
    with ``object.__setattr__``; after that, assigning or deleting a field raises
    AttributeError.  Equality, hash and repr take every field in slot order, as a
    frozen dataclass of those fields does, and copy and pickle restore the fields
    without calling the constructor.  No decorator runs at import, and no instance
    has a ``__dict__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self):
        return hash(self.__getstate__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class OnRampConfig(Frozen):
    """One on-ramp: the normalized on-ramp flow and six calibrated cost coefficients.

    ``n0`` is the on-ramp share of the flow neighboring lane 1; lane 2 carries
    the rest, ``n2 = 1 - n0``.  ``c1t``/``c1m`` weight the lane-1 through
    and merge terms, ``c2t``/``c2m`` the lane-2 terms; ``mu`` amplifies the
    merge interaction and ``gamma`` the lane-change interaction.  The
    coefficients are treated as opaque nonnegative constants.
    """

    __slots__ = CONFIG_KEYS

    def __init__(self, n0, c1t, c1m, c2t, c2m, mu, gamma):
        values = (n0, c1t, c1m, c2t, c2m, mu, gamma)
        # the common valid case in one pass, else each field in order
        if not ({float}.issuperset(map(type, values)) and all(map(math.isfinite, values))
                and min(values) >= 0.0 and 1.0 - n0 >= 0.0):
            n0, c1t, c1m, c2t, c2m, mu, gamma = map(_checked_field, CONFIG_KEYS, values)
        set_ = object.__setattr__
        set_(self, "n0", n0)
        set_(self, "c1t", c1t)
        set_(self, "c1m", c1m)
        set_(self, "c2t", c2t)
        set_(self, "c2m", c2m)
        set_(self, "mu", mu)
        set_(self, "gamma", gamma)

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


def _checked_field(name: str, value) -> float:
    """A config field as a float: checked as a number by real, then its range."""
    value = real(f"config key {name}", value, ConfigError)
    if name == "n0" and not math.isfinite(value):
        raise ConfigError("neighbor flows must be finite numbers")
    if name == "n0" and (value < 0.0 or 1.0 - value < 0.0):
        raise ConfigError(f"neighbor flows must be nonnegative, got n0={value}, n2={1.0 - value}")
    if not math.isfinite(value) or value < 0.0:  # a cost coefficient: n0 passed above
        raise ConfigError(f"cost coefficient {name} must be finite and >= 0, got {value}")
    return value


def real(name: str, value, error: type[Exception] = ValueError) -> float:
    """The one number rule of every numeric input: ``value`` as the float it equals.

    Any real number but a bool is taken: an int, a float, a Fraction or a numpy
    scalar.  A bool or a non-number raises ``error`` naming ``name`` as not a
    number, and an int beyond the float range names it as too large.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        from numbers import Real  # off the start-up path: a plain int or float never gets here

        if isinstance(value, bool) or not isinstance(value, Real):
            raise error(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise error(f"{name} is too large for a float") from exc


def positive(name: str, value, most: float = math.inf) -> float:
    """``value`` taken by real and required to lie in (0, most]: each step, bound and tolerance."""
    value = real(name, value)
    if not 0.0 < value <= most:
        bound = "be > 0" if most == math.inf else f"lie in (0, {most}]"
        raise ValueError(f"{name} must {bound}, got {value}")
    return value


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


_CONSTANTS = (
    "steadfast_slope", "steadfast_intercept", "bypass_slope", "bypass_intercept", "lane2_slope"
)


class OnRamp(Frozen):
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

    __slots__ = (
        "n0", "n2", *_CONSTANTS, "phi", "delta", "pi", "j_opt", "j_soc_at_phi",
        "in_meaningful_set", "exclusion_reason", "decrease_interval", "optimize_interval",
    )

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

    def __init__(self, n0, n2, steadfast_slope, steadfast_intercept, bypass_slope,
                 bypass_intercept, lane2_slope):
        set_ = object.__setattr__
        set_(self, "n0", n0)
        set_(self, "n2", n2)
        set_(self, "steadfast_slope", steadfast_slope)
        set_(self, "steadfast_intercept", steadfast_intercept)
        set_(self, "bypass_slope", bypass_slope)
        set_(self, "bypass_intercept", bypass_intercept)
        set_(self, "lane2_slope", lane2_slope)
        ks, bs, kb, bb, k2 = constants = (
            steadfast_slope, steadfast_intercept, bypass_slope, bypass_intercept, lane2_slope)
        if not all(map(math.isfinite, constants)):
            for name, value in zip(_CONSTANTS, constants):
                require_finite(name, value)
        slope_sum = ks + kb
        if slope_sum <= 0.0:
            raise DegenerateConfigError("all delay slopes vanish; no interior crossing")
        phi = require_finite("phi", (ks + bs - bb) / slope_sum)
        # stationarity of the convex quadratic: its second-order coefficient is
        # the slope sum, its linear one the intercept gap and neighbor weights
        delta = require_finite(
            "delta", (2.0 * ks + bs - bb + n0 * ks - n2 * k2) / (2.0 * slope_sum)
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
    return _new(DelayProfile, (steadfast, bypass, steadfast, lane2))


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


def check_population(alpha=0.0, beta=0.0, error=1.0) -> tuple[float, float]:
    """(alpha, beta*error) as floats: alpha in [0, 1], beta >= 0, error > 0, level <= LEVEL_MAX."""
    # the common valid case in one test (a level in bounds has finite factors), else each
    # argument in order
    if (type(alpha) is type(beta) is type(error) is float and 0.0 <= alpha <= 1.0
            and beta >= 0.0 and error > 0.0 and (level := beta * error) <= LEVEL_MAX):
        return alpha, level
    a = real("alpha", alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    b = real("beta", beta)
    if not 0.0 <= b <= FLOAT_MAX:
        reason = "must be >= 0" if b < 0.0 else "must be finite"
        raise ValueError(f"beta {reason}, got {beta}")
    e = real("error factor", error)
    if not 0.0 < e <= FLOAT_MAX:
        reason = "must be > 0" if e <= 0.0 else "must be finite"
        raise ValueError(f"error factor {reason}, got {error}")
    level = b * e
    if not level <= LEVEL_MAX:
        cause = "is not finite" if level > FLOAT_MAX else f"exceeds the bound {LEVEL_MAX}"
        raise ValueError(f"effective level beta*error = {beta} * {error} {cause}")
    return a, level
