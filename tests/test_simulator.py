import hashlib
import math

import numpy as np
import pytest

from covtomo.delay_cov import align_pairs, build_covariance_matrix, normalize_series
from covtomo.errors import ConfigError, InputError
from covtomo.logio import export_log
from covtomo.model import RoutingTree
from covtomo.simulator import (
    SimulatedNetwork,
    SimulatorConfig,
    analytic_covariance,
    analytic_path_variance,
    generate_topology,
    grow_network,
    simulate_session,
)


def small_cfg(**kwargs):
    defaults = dict(n_hosts=10, n_routers=4, seed=1, n_pairs=400, pair_interval_us=5000)
    defaults.update(kwargs)
    return SimulatorConfig(**defaults)


def manual_net(shared_vars, leaf_vars, base_us=500.0):
    """Hand-built network: src - r0 - ... - rS - {a, b}; shared_vars sit on
    the src..rS chain, leaf_vars on the two access links."""
    chain = [f"r{i}" for i in range(len(shared_vars))]
    nodes = ["src"] + chain
    link_params = {}
    router_paths = {}
    for i, r in enumerate(chain):
        link_params[SimulatedNetwork.link_key(nodes[i], r)] = (base_us, shared_vars[i])
        router_paths[r] = tuple(nodes[: i + 2])
    last = chain[-1]
    for leaf, var in zip(("a", "b"), leaf_vars):
        link_params[SimulatedNetwork.link_key(last, leaf)] = (base_us, var)
    truth = RoutingTree("src")
    cum = 0.0
    parent = "src"
    for i, r in enumerate(chain):
        cum += shared_vars[i]
        truth.add_router(parent, cum, router_id=r)
        parent = r
    truth.add_leaf("a", last)
    truth.add_leaf("b", last)
    return SimulatedNetwork(
        source="src",
        clients={"a", "b"},
        truth=truth,
        link_params=link_params,
        access_router={"a": last, "b": last},
        router_paths=router_paths,
        host_seq=0,
    )


def test_unique_minimal_topology():
    cfg = SimulatorConfig(n_hosts=2, n_routers=1, seed=3, n_pairs=10)
    net = generate_topology(cfg)
    assert len(net.truth.leaves) == 1
    (client,) = net.truth.leaves
    path = net.client_path(client)
    assert path[0] == net.source and path[1] == "r0" and path[-1] == client


def test_client_count_matches_seventy_percent():
    cfg = SimulatorConfig(n_hosts=150, n_routers=50, seed=5, n_pairs=10)
    net = generate_topology(cfg)
    assert len(net.clients) == 105
    assert len(net.truth.leaves) == 105
    net.truth.validate()


def test_topology_deterministic():
    cfg = small_cfg(seed=9)
    n1 = generate_topology(cfg)
    n2 = generate_topology(cfg)
    assert n1.truth.to_dict() == n2.truth.to_dict()
    assert n1.link_params == n2.link_params
    assert n1.source == n2.source and n1.clients == n2.clients


def test_session_bit_identical():
    cfg = small_cfg(seed=11)
    net = generate_topology(cfg)
    l1 = simulate_session(net, cfg)
    l2 = simulate_session(net, cfg)
    assert l1 == l2
    l3 = simulate_session(net, cfg, stream=1)
    assert l3 != l1


def test_zero_variance_zero_bg_gives_flat_series():
    cfg = small_cfg(link_delay_var_ms2=(0.0, 0.0))
    net = generate_topology(cfg)
    log = simulate_session(net, cfg)
    log.validate()
    clients = sorted(net.clients)
    for c in clients:
        out = normalize_series(log, c, align_pairs(log, {c}))
        assert out.values == (0,) * log.n_pairs
    cov = build_covariance_matrix(log, clients)
    assert np.all(cov.values == 0.0)

    # zero background rate scales every variance to zero as well
    cfg2 = small_cfg(bg_rate_bytes_per_sec=0.0)
    net2 = generate_topology(cfg2)
    assert all(var == 0.0 for _, var in net2.link_params.values())


def test_causality_and_validation():
    cfg = small_cfg(seed=21)
    net = generate_topology(cfg)
    log = simulate_session(net, cfg)
    log.validate()
    for r in sorted(net.clients):
        for k, ts in log.arrivals[r].items():
            assert ts >= log.sender_ts[k]


def test_loss_on_one_access_link_binomial():
    cfg = small_cfg(seed=13, n_pairs=2000)
    net = generate_topology(cfg)
    client = sorted(net.clients)[0]
    last_hop = net.path_links(client)[-1]
    net.drop_override[last_hop] = 0.1
    log = simulate_session(net, cfg)
    count = len(log.arrivals[client])
    # binomial(2000, 0.9): 3 sigma is ~40
    assert abs(count - 0.9 * cfg.n_pairs) <= 3 * math.sqrt(cfg.n_pairs * 0.9 * 0.1)
    other = sorted(net.clients)[1]
    assert len(log.arrivals[other]) == cfg.n_pairs


def test_analytic_covariance_examples():
    # disjoint paths after the root share nothing
    truth = RoutingTree("src")
    truth.add_router("src", 1.0, router_id="r0")
    truth.add_router("src", 2.0, router_id="r1")
    truth.add_leaf("a", "r0")
    truth.add_leaf("b", "r1")
    net = SimulatedNetwork(
        source="src",
        clients={"a", "b"},
        truth=truth,
        link_params={
            ("r0", "src"): (500.0, 1.0),
            ("r1", "src"): (500.0, 2.0),
            ("a", "r0"): (500.0, 0.5),
            ("b", "r1"): (500.0, 0.5),
        },
        access_router={"a": "r0", "b": "r1"},
        router_paths={"r0": ("src", "r0"), "r1": ("src", "r1")},
        host_seq=0,
    )
    assert analytic_covariance(net, "a", "b") == 0.0

    # sibling pair: every common link contributes
    shared = manual_net([1.5, 2.5], [0.7, 0.9])
    assert analytic_covariance(shared, "a", "b") == 4.0
    assert analytic_path_variance(shared, "a") == pytest.approx(4.7)
    with pytest.raises(InputError):
        analytic_covariance(shared, "a", "a")
    with pytest.raises(InputError):
        analytic_covariance(shared, "a", "zz")


def test_monte_carlo_convergence_to_analytic():
    # estimate of the shared covariance lands in a 3-standard-error band
    # whose width shrinks as n^(-1/2)
    net_vars = ([1.5, 2.5], [0.7, 0.9])
    expected = 4.0
    for n, seed in ((1_000, 1), (10_000, 2), (100_000, 3)):
        net = manual_net(*net_vars)
        cfg = SimulatorConfig(
            n_hosts=2, n_routers=1, seed=seed, n_pairs=n, pair_interval_us=1000
        )
        log = simulate_session(net, cfg)
        cov = build_covariance_matrix(log, ["a", "b"])
        va = analytic_path_variance(net, "a")
        vb = analytic_path_variance(net, "b")
        stderr = math.sqrt((va * vb + expected**2) / (n - 1))
        assert abs(cov.get("a", "b") - expected) <= 3 * stderr


def test_timestamped_schedule_mode():
    schedule = tuple(int(x) for x in np.cumsum([0] + [700, 1300, 900, 1100] * 50)[:120])
    cfg = small_cfg(pair_schedule_us=schedule, link_delay_var_ms2=(0.0, 0.0))
    net = generate_topology(cfg)
    log = simulate_session(net, cfg)
    assert not log.fixed_mode
    assert log.n_pairs == len(schedule)
    client = sorted(net.clients)[0]
    out = normalize_series(log, client, align_pairs(log, {client}))
    assert out.values == (0,) * len(schedule)


def log_digest(log, tmp_path) -> str:
    path = tmp_path / "log.ndjson"
    export_log(log, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulated_logs_match_pinned_digests(tmp_path):
    # fixed interval, with a forced 30% loss on one client's access link
    cfg = SimulatorConfig(n_hosts=12, n_routers=5, seed=13, n_pairs=300, pair_interval_us=5000)
    net = generate_topology(cfg)
    net.drop_override[net.path_links(sorted(net.clients)[0])[-1]] = 0.3
    log = simulate_session(net, cfg)
    assert not log.recv[~log.present].any()
    assert log_digest(log, tmp_path) == "f283bd6e12256d1087e99775e0e50008eb1be3f7c65fa9c2f15212c5990a1096"

    # timestamped schedule at a background rate that congests every link
    schedule = tuple(int(x) for x in np.cumsum([1000] + [700, 1300, 900, 1100] * 60))
    cfg = SimulatorConfig(
        n_hosts=12, n_routers=5, seed=17, pair_schedule_us=schedule, bg_rate_bytes_per_sec=12e6
    )
    log = simulate_session(generate_topology(cfg), cfg, stream=2)
    assert not log.fixed_mode and log.present.sum() < log.present.size
    assert log_digest(log, tmp_path) == "6b957628a4891b09c72281abc87df02bda87c419161d8ec92e7b281be34418c6"


def test_grow_network_extends_truth_deterministically():
    cfg = small_cfg(seed=31)
    n1 = generate_topology(cfg)
    n2 = generate_topology(cfg)
    added1 = grow_network(n1, cfg, 5, stream=2)
    added2 = grow_network(n2, cfg, 5, stream=2)
    assert added1 == added2
    assert n1.truth.to_dict() == n2.truth.to_dict()
    n1.truth.validate()
    for host in added1:
        assert host in n1.clients
        assert n1.truth.is_leaf(host)
    named = grow_network(n1, cfg, 1, stream=3, names=["peerX"])
    assert named == ["peerX"] and "peerX" in n1.clients
    with pytest.raises(InputError):
        grow_network(n1, cfg, 1, stream=4, names=["peerX"])


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        SimulatorConfig(n_hosts=1)
    with pytest.raises(ConfigError):
        SimulatorConfig(pair_interval_us=0)
    with pytest.raises(ConfigError):
        SimulatorConfig(link_delay_var_ms2=(2.0, 1.0))
    with pytest.raises(ConfigError):
        SimulatorConfig(topology_model="mesh")
    with pytest.raises(ConfigError):
        SimulatorConfig(pair_schedule_us=(0, 10, 5))


def test_lary_topology_model():
    cfg = small_cfg(topology_model="lary", lary_arity=2, seed=8)
    net = generate_topology(cfg)
    net.truth.validate()
    assert len(net.truth.leaves) == len(net.clients)
