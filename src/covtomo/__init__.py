"""Passive routing-tree tomography from packet-pair delay covariance.

The toolkit reconstructs the network-layer routing tree from a source to
many receivers using only the receivers' packet arrival timestamps. A
measurement log holds them as columns. `build_covariance_matrix` turns the
send-to-arrival offsets of every receiver pair into an exact covariance,
in which constant path delays and clock offsets cancel; it measures how
much path the two receivers share. `dfs_order` orders the leaves by the
matrix, and `recover_tree` walks that order, a thresholded case analysis
that builds the tree. `attach_peer` places joining receivers in a grown
tree. A ground-truth simulator and a triple-classification accuracy
metric (`score_trees`) round out the evaluation harness.

The per-pair reference estimator (`delay_cov.align_pairs`,
`normalize_series`, `estimate_covariance` over `model.DelaySeries`) and
the brute-force `accuracy.classify_triple` live in their modules, where
the tests and the benchmark check the fast paths against them.
"""

from .accuracy import AccuracyReport, score_trees
from .delay_cov import build_covariance_matrix, covariance_oracle_from_log
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
