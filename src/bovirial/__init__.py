"""Pseudo-spectral Benjamin-Ono evolution with windowed virial diagnostics.

The package has four layers: periodic spectral operators
(:mod:`~bovirial.spectral_core`), the integrating-factor RK4 solver and
traveling-wave family (:mod:`~bovirial.bo_solver`), weighted functionals
and term-by-term budgets (:mod:`~bovirial.virial_diagnostics`), and the
inequality calibration harness (:mod:`~bovirial.inequality_harness`).
The ``bovirial`` console script in :mod:`~bovirial.experiment_cli` drives
full scenario runs.
"""

__version__ = "0.1.0"

from . import spectral_core, bo_solver, virial_diagnostics, inequality_harness
from .spectral_core import *
from .bo_solver import *
from .virial_diagnostics import *
from .inequality_harness import *

__all__ = ["__version__", *spectral_core.__all__, *bo_solver.__all__,
           *virial_diagnostics.__all__, *inequality_harness.__all__]
