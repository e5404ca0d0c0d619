"""Approximate solver for the Quadratic Knapsack Problem.

Decomposes an instance into structured sub-instances solved via knapsack
FPTAS, degree-greedy selection and pluggable densest-k-subgraph backends,
then returns the best feasible candidate on the original instance.  Costs
are compared in integer units; a candidate's profit is evaluated only when
a degree bound says it can win or tie.
"""

from .decompose import SubInstance, bucket_costs, decompose
from .dks import (
    EXACT_BACKEND,
    GREEDY_BACKEND,
    DksBackend,
    UGraph,
    dks_exact,
    dks_greedy_peel,
    get_backend,
    solve_dks,
)
from .errors import CapacityError, InvalidInstanceError
from .generate import random_instance
from .instance import (
    QkpInstance,
    Solution,
    evaluate,
    instance_from_json_obj,
    instance_to_json_obj,
    load_instance,
)
from .knapsack import knapsack_fptas
from .oracle import exact_qkp
from .orchestrator import RunReport, SolveConfig, guaranteed_floor, solve
from .preprocess import PreparedInstance, prepare

__version__ = "0.1.0"
