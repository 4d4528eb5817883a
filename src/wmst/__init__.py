"""Online minimum spanning trees with weight predictions.

A workbench for the weight-arrival setting: the graph and predicted edge
weights are known upfront, true weights arrive one edge at a time, and each
arrival forces an irrevocable accept/reject.  The package provides exact
rational graph primitives, the prediction-following and greedy-swap online
players, prediction-error measures, adversarial instance families, and a
random-order experiment harness.
"""

from .adversaries import (
    RANDOM_VERTEX_LIMIT,
    AdversarialGame,
    gen_eta2_game,
    gen_ftp_lb,
    gen_general_lb_game,
    gen_ro_lb,
    random_instance,
)
from .engine import (
    ALGORITHMS,
    ArrivalOrder,
    Decision,
    FollowPredictions,
    GreedyFollowPredictions,
    OnlineAlgorithm,
    RunTrace,
    TraceStep,
    check_cycle_dominance,
    check_post_rejection_dominance,
    ftp,
    gftp,
    run,
    run_cost,
)
from .exceptions import (
    BadParameter,
    DisconnectedGraph,
    DuplicateEdge,
    EdgeInTree,
    InstanceError,
    InvariantViolation,
    MissingWeight,
    NonpositiveWeight,
    NotSpanning,
    SelfLoop,
    TooLarge,
    WmstError,
)
from .graphs import (
    BRUTE_FORCE_EDGE_LIMIT,
    Edge,
    Graph,
    SpanningTree,
    WmstInstance,
    brute_force_mst,
    exchange_witness,
    mst,
    tree_cost,
    tree_cycle,
    validate_instance,
)
from .metrics import ErrorReport, error_report, eta, eta1, eta2
from .randomorder import (
    EXACT_CONTESTED_LIMIT,
    EXACT_EDGE_LIMIT,
    RatioReport,
    RoEstimate,
    exact_expectation,
    harmonic_bound,
    mc_estimate,
    ratio_report,
)
from .rationals import ensure_fraction, format_fraction, parse_fraction

__version__ = "0.1.0"
