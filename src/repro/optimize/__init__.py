"""Model-based optimization of collectives: algorithm selection (Fig. 6),
gather message-splitting (Fig. 7), heterogeneous tree mapping."""

from repro.optimize.gather_splitting import optimized_gather, split_plan
from repro.optimize.partition import (
    Partition,
    even_partition,
    optimal_partition,
    partition_makespan,
    run_partitioned_workload,
)
from repro.optimize.planner import (
    CollectiveCall,
    CommunicationPlan,
    PlannedCall,
    plan_collectives,
)
from repro.optimize.mapping import MappingResult, optimize_mapping, predict_mapped_time
from repro.optimize.selection import (
    AlgorithmChoice,
    crossover_size,
    predict_algorithms,
    select_algorithm,
)

__all__ = [
    "AlgorithmChoice",
    "CollectiveCall",
    "CommunicationPlan",
    "PlannedCall",
    "plan_collectives",
    "Partition",
    "even_partition",
    "optimal_partition",
    "partition_makespan",
    "run_partitioned_workload",
    "MappingResult",
    "crossover_size",
    "optimize_mapping",
    "optimized_gather",
    "predict_algorithms",
    "predict_mapped_time",
    "select_algorithm",
    "split_plan",
]
