"""permz: permutation complexity classes and Z-entropies for time series.

The package turns real-valued series into ordinal-pattern statistics
(:mod:`permz.ordinal`), measures them with Renyi and class-specific
Z-entropies (:mod:`permz.entropy`), generates the reference processes
used in the experiments (:mod:`permz.processes`), and provides the
higher-level analytics and experiment harness (:mod:`permz.analysis`,
:mod:`permz.experiments`).  The ``permz`` command line fronts all of it.
"""

__version__ = "0.1.0"

from . import analysis, entropy, ordinal
from .errors import DataError, NumericalError, PermzError, ValidationError
from .ordinal import *  # noqa: F403
from .entropy import *  # noqa: F403
from .processes import ProcessSpec, derive_seed, fgn_autocovariance, generate
from .analysis import *  # noqa: F403
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment

# The public API: the errors, every public name of ordinal, entropy and
# analysis, and a selection from processes and experiments.
__all__ = [
    "__version__",
    "PermzError",
    "ValidationError",
    "DataError",
    "NumericalError",
    *ordinal.__all__,
    *entropy.__all__,
    "ProcessSpec",
    "generate",
    "fgn_autocovariance",
    "derive_seed",
    *analysis.__all__,
    "EXPERIMENTS",
    "ExperimentConfig",
    "run_experiment",
]
