"""Calibration, sampling and verification for the l2 noise mechanism.

The mechanism adds noise with density proportional to
exp(-||y||_2 / sigma) to a vector statistic with bounded l2
sensitivity.  This package certifies (epsilon, delta) privacy for a
given sigma, searches for the smallest certified sigma, samples the
mechanism exactly (serially or via a coordinate-parallel
decomposition), tabulates closed-form error against Laplace and
Gaussian baselines, and cross-checks the certificates by Monte Carlo.

Each public name is declared once, in its submodule's __all__; the
package re-exports exactly those names.
"""

from . import calibrate, capgeom, errormodel, lossbounds, mcverify, sampler, specfun
from .calibrate import *  # noqa: F401,F403
from .capgeom import *  # noqa: F401,F403
from .errormodel import *  # noqa: F401,F403
from .lossbounds import *  # noqa: F401,F403
from .mcverify import *  # noqa: F401,F403
from .sampler import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403

__version__ = "0.1.0"

_SUBMODULES = (calibrate, capgeom, errormodel, lossbounds, mcverify, sampler, specfun)
__all__ = [name for module in _SUBMODULES for name in module.__all__]
