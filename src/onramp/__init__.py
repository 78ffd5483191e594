"""Lane-choice equilibria and robust altruism design for two-lane highway on-ramps.

Each public name is declared once, in ``_PUBLIC``, beside the module that defines it.
``import onramp`` loads none of those modules: ``onramp.<name>`` and ``onramp.<module>``
import theirs on first use (PEP 562), so a command loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "analysis": ("Classification", "ErrorInterval", "ImprovementFlags", "Regime", "analyze",
                 "classification", "classify", "improvement_conditions"),
    "equilibrium": ("DynamicsTrace", "EquilibriumCase", "EquilibriumResult", "WardropReport",
                    "best_response_dynamics", "exact_equilibria", "solve",
                    "solve_equilibrium", "verify_wardrop"),
    "errors": ("ConfigError", "DegenerateConfigError", "NotInMeaningfulSetError", "OnRampError",
               "TransitionUndefinedError", "ZeroOptimumError"),
    "model": ("DelayProfile", "FlowDistribution", "OnRamp", "OnRampConfig", "delays",
              "derive_coefficients", "load_config", "social_delay"),
    "robustness": ("RobustnessSummary", "WorstCasePoint", "grid_optimal_beta", "grid_poa",
                   "optimal_altruism_level", "optimal_beta", "poa", "price_of_anarchy",
                   "transition_beta", "worst_case_social_delay"),
    "sweeps": ("AlphaSweepRow", "LevelSweepRow", "alpha_sweep", "beta_e_sweep", "sweep_alpha",
               "sweep_beta_e", "write_alpha_sweep", "write_beta_e_sweep"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None and name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a module binds it here; a name is bound here on its first read
    value = import_module(f"{__name__}.{module or name}")
    if module is not None:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})
