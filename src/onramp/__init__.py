"""Lane-choice equilibria and robust altruism design for two-lane highway on-ramps."""

from .analysis import *
from .equilibrium import *
from .errors import *
from .model import *
from .robustness import *
from .sweeps import *

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *equilibrium.__all__,
    *errors.__all__,
    *model.__all__,
    *robustness.__all__,
    *sweeps.__all__,
]
