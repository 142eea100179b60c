"""Passive routing-tree tomography from packet-pair delay covariance.

The toolkit reconstructs the network-layer routing tree from a source to
many receivers using only the receivers' packet arrival timestamps: arrival
offsets are normalized into delay series, pairwise covariance of those
series measures how much path two receivers share, and thresholded case
analysis turns the covariance matrix into a tree. A ground-truth simulator
and a triple-classification accuracy metric round out the evaluation
harness.
"""

from .accuracy import AccuracyReport, classify_triple, score_trees
from .delay_cov import (
    align_pairs,
    build_covariance_matrix,
    covariance_oracle_from_log,
    estimate_covariance,
    normalize_series,
)
from .dynamic import attach_peer
from .errors import (
    ConfigError,
    DataError,
    InputError,
    InsufficientDataError,
    InvariantError,
    LogFormatError,
    TomographyError,
)
from .logio import export_log, import_log, load_matrix, load_tree, save_matrix, save_tree
from .model import (
    CovarianceMatrix,
    DelaySeries,
    MeasurementLog,
    NodeId,
    RoutingTree,
    branching_skeleton,
    trees_topologically_equal,
)
from .ordering import dfs_order
from .recover import Case, RecoveryConfig, classify_case, find_attachment_router, recover_tree
from .scenarios import load_config, parse_config, run_dynamic_scenario, run_scenario
from .simulator import SimulatedNetwork, SimulatorConfig, generate_topology, grow_network, simulate_session

__version__ = "0.1.0"
