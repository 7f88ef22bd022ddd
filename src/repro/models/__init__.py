"""Communication performance models: traditional and LMO.

Traditional models (Hockney, LogP, LogGP, PLogP) mix processor and network
contributions; the original LMO model separates the variable ones; the
**extended LMO model** — this reproduction's core — separates all four
(constant/variable x processor/network).
"""

from repro.models.base import CommunicationModel
from repro.models.hockney import HeterogeneousHockneyModel, HockneyModel
from repro.models.loggp import LogGPModel
from repro.models.logp import LogPModel
from repro.models.lmo import LMOModel
from repro.models.lmo_extended import ExtendedLMOModel, GatherIrregularity
from repro.models.plogp import PiecewiseLinear, PLogPModel
from repro.models.collectives.formulas import (
    GatherPrediction,
    predict_binomial_gather,
    predict_binomial_gather_sweep,
    predict_binomial_scatter,
    predict_binomial_scatter_sweep,
    predict_binomial_scatterv,
    predict_linear_gather,
    predict_linear_gather_sweep,
    predict_linear_gatherv,
    predict_linear_pipelined,
    predict_linear_scatterv,
    predict_linear_scatter,
    predict_linear_scatter_sweep,
)
from repro.models.collectives.formulas_ext import predict_collective, predict_collective_sweep
from repro.models.collectives.tree_eval import predict_tree_time, predict_tree_time_batch
from repro.models.collectives.trees import CommTree, binomial_tree, flat_tree

__all__ = [
    "CommTree",
    "CommunicationModel",
    "ExtendedLMOModel",
    "GatherIrregularity",
    "GatherPrediction",
    "HeterogeneousHockneyModel",
    "HockneyModel",
    "LMOModel",
    "LogGPModel",
    "LogPModel",
    "PLogPModel",
    "PiecewiseLinear",
    "binomial_tree",
    "flat_tree",
    "predict_binomial_gather",
    "predict_binomial_gather_sweep",
    "predict_binomial_scatter",
    "predict_binomial_scatter_sweep",
    "predict_binomial_scatterv",
    "predict_linear_gather",
    "predict_linear_gather_sweep",
    "predict_linear_gatherv",
    "predict_linear_pipelined",
    "predict_linear_scatter",
    "predict_linear_scatter_sweep",
    "predict_linear_scatterv",
    "predict_collective",
    "predict_collective_sweep",
    "predict_tree_time",
    "predict_tree_time_batch",
]
