"""Grid subdivision-labeling optimizers, benchmark objectives and baselines."""

from .core import (
    BoxDomain,
    Candidate,
    Cell,
    GridPoint,
    GridSpec,
    LabeledVertex,
    RunReport,
    StepRecord,
)
from .errors import SubgridError
from .functions import Objective, get_objective, objective_names
from .harness import ExperimentConfig, Metrics, run_experiment
from .labeling import LabelRule, LabelVariant
from .slm import NeighborScheme, Sense, SlmConfig, slm_run
from .slmga import GaConfig, ga_run

__version__ = "0.1.0"

# How objective values are computed: always plain Python.
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "BoxDomain",
    "Candidate",
    "Cell",
    "ExperimentConfig",
    "GaConfig",
    "GridPoint",
    "GridSpec",
    "LabelRule",
    "LabelVariant",
    "LabeledVertex",
    "Metrics",
    "NeighborScheme",
    "Objective",
    "RunReport",
    "Sense",
    "SlmConfig",
    "StepRecord",
    "SubgridError",
    "ga_run",
    "get_objective",
    "objective_names",
    "run_experiment",
    "slm_run",
    "__version__",
]
