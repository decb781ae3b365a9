"""Multiple change point detection for piecewise stationary AR time series.

The top-level API:

- :func:`detect_changepoints` runs the full scan / segment-test /
  multiple-testing pipeline on a 1-D series.
- :func:`simulate_piecewise` and :func:`builtin_model` generate the
  paper's piecewise ARMA benchmark data (:mod:`arcpd.simulate`).
- :mod:`arcpd.bench` reproduces detection-rate tables over seeded
  replicates.

The stage modules (:mod:`arcpd.ar`, :mod:`arcpd.scan`, :mod:`arcpd.sdtest`,
:mod:`arcpd.multtest`) hold the building blocks.  See the CLI
(``arcpd detect|simulate|bench``) for file-based use.
"""

from .pipeline import ChangePointReport, DetectConfig, detect_changepoints
from .scan import SeriesTooShortError
from .sdtest import OrderMode
from .simulate import (
    builtin_model,
    builtin_model_names,
    replicate_seed,
    simulate_piecewise,
)

__version__ = "0.1.0"

__all__ = [
    "ChangePointReport",
    "DetectConfig",
    "OrderMode",
    "SeriesTooShortError",
    "builtin_model",
    "builtin_model_names",
    "detect_changepoints",
    "replicate_seed",
    "simulate_piecewise",
]
