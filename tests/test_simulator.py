import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo import simulator
from covtomo.delay_cov import align_pairs, build_covariance_matrix, covariance_oracle_from_log, normalize_series
from covtomo.errors import ConfigError, InputError, InvariantError
from covtomo.logio import export_log, import_log
from covtomo.model import TIMESTAMP_LIMIT_US, MeasurementLog, RoutingTree
from covtomo.simulator import (
    SimulatedNetwork,
    SimulatorConfig,
    begin_session,
    generate_topology,
    grow_network,
    simulate_session,
    truth_link_range,
)

from treegen import path_from_root, shared_covariance


def path_links(net, client):
    """The link keys of a client's path from the source."""
    path = path_from_root(net.truth, client)
    return [net.link_key(a, b) for a, b in zip(path, path[1:])]


def analytic_path_variance(net, client) -> float:
    """Total delay variance of one client's path: its access router's
    truth label plus the access link's variance."""
    parent = path_from_root(net.truth, client)[-2]
    return net.truth.router_cov[parent] + net.link_params[net.link_key(parent, client)][1]


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
        truth=truth,
        link_params=link_params,
        router_paths=router_paths,
        host_seq=0,
    )


def test_unique_minimal_topology():
    cfg = SimulatorConfig(n_hosts=3, n_routers=1, seed=3, n_pairs=10)
    net = generate_topology(cfg)
    assert len(net.truth.leaves) == 2
    for client in net.truth.leaves:
        assert path_from_root(net.truth, client) == [net.source, "r0", client]


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
    assert (log.recv >= log.sender)[log.present].all()
    assert not log.recv[~log.present].any()


def test_analytic_covariance_examples():
    # disjoint paths after the root share nothing
    truth = RoutingTree("src")
    truth.add_router("src", 1.0, router_id="r0")
    truth.add_router("src", 2.0, router_id="r1")
    truth.add_leaf("a", "r0")
    truth.add_leaf("b", "r1")
    net = SimulatedNetwork(
        source="src",
        truth=truth,
        link_params={
            ("r0", "src"): (500.0, 1.0),
            ("r1", "src"): (500.0, 2.0),
            ("a", "r0"): (500.0, 0.5),
            ("b", "r1"): (500.0, 0.5),
        },
        router_paths={"r0": ("src", "r0"), "r1": ("src", "r1")},
        host_seq=0,
    )
    assert shared_covariance(net.truth, "a", "b") == 0.0

    # sibling pair: every common link contributes
    shared = manual_net([1.5, 2.5], [0.7, 0.9])
    assert shared_covariance(shared.truth, "a", "b") == 4.0
    assert analytic_path_variance(shared, "a") == pytest.approx(4.7)
    with pytest.raises(InputError):
        shared_covariance(shared.truth, "a", "a")
    with pytest.raises(InputError):
        shared_covariance(shared.truth, "a", "zz")


def test_monte_carlo_convergence_to_analytic():
    # estimate of the shared covariance lands in a 3-standard-error band
    # whose width shrinks as n^(-1/2)
    net_vars = ([1.5, 2.5], [0.7, 0.9])
    expected = 4.0
    for n, seed in ((1_000, 1), (10_000, 2), (100_000, 3)):
        net = manual_net(*net_vars)
        cfg = SimulatorConfig(
            n_hosts=3, n_routers=1, seed=seed, n_pairs=n, pair_interval_us=1000
        )
        log = simulate_session(net, cfg)
        cov = build_covariance_matrix(log, ["a", "b"])
        va = analytic_path_variance(net, "a")
        vb = analytic_path_variance(net, "b")
        stderr = math.sqrt((va * vb + expected**2) / (n - 1))
        assert abs(cov.get("a", "b") - expected) <= 3 * stderr


def retimed(log, sender):
    """``log`` with the sender column ``sender``: each arrival moves by as
    much as its send, and a lost packet's stays 0."""
    sender = np.asarray(sender, dtype=np.int64)
    return MeasurementLog(log.ids, sender, log.recv + (sender - log.sender) * log.present, log.present)


def test_irregular_sender_on_still_links_normalizes_to_zero():
    # links without variance delay every packet alike, whenever it is sent
    cfg = small_cfg(n_pairs=120, link_delay_var_ms2=(0.0, 0.0))
    net = generate_topology(cfg)
    sender = np.cumsum([0] + [700, 1300, 900, 1100] * 30)[: cfg.n_pairs]
    log = retimed(simulate_session(net, cfg), sender)
    assert log.present.all()
    for client in sorted(net.clients):
        out = normalize_series(log, client, align_pairs(log, {client}))
        assert out.values == (0,) * cfg.n_pairs


def test_send_times_cancel_in_every_estimate(tmp_path):
    # a lossy session, and the same session riding an irregular data flow,
    # written to a file and read back: a send time cancels in recv - send,
    # so the matrix and the oracle read the same values bit for bit
    cfg = small_cfg(bg_rate_bytes_per_sec=12e6)
    even = simulate_session(generate_topology(cfg), cfg)
    assert not even.present.all()
    sender = np.cumsum(np.random.default_rng(5).integers(1, 3 * cfg.pair_interval_us, size=cfg.n_pairs))
    assert len(set(np.diff(sender).tolist())) > 1
    path = tmp_path / "log.ndjson"
    export_log(retimed(even, sender), path)
    ridden = import_log(path)
    assert ridden == retimed(even, sender)
    ridden.validate()
    receivers = list(even.ids)
    assert (
        build_covariance_matrix(ridden, receivers).values.tobytes()
        == build_covariance_matrix(even, receivers).values.tobytes()
    )
    oracles = [covariance_oracle_from_log(log) for log in (ridden, even)]
    for a, b in itertools.combinations(receivers, 2):
        assert oracles[0](a, b).hex() == oracles[1](a, b).hex()


def log_digest(log, tmp_path) -> str:
    path = tmp_path / "log.ndjson"
    export_log(log, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulated_logs_match_pinned_digests(tmp_path):
    # fixed interval, below congestion: every packet arrives
    cfg = SimulatorConfig(n_hosts=12, n_routers=5, seed=13, n_pairs=300, pair_interval_us=5000)
    log = simulate_session(generate_topology(cfg), cfg)
    assert log.present.all()
    assert log_digest(log, tmp_path) == "0db2308fb9fb10e2e4f880ad0d1b9d59fb6ad15b59d967099cdde31441f0a132"

    # an irregular sender column at a background rate that congests every
    # link: the even session at the same mean interval (1000 us), retimed
    sender = np.cumsum([1000] + [700, 1300, 900, 1100] * 60)
    cfg = SimulatorConfig(
        n_hosts=12, n_routers=5, seed=17, n_pairs=len(sender), pair_interval_us=1000, bg_rate_bytes_per_sec=12e6
    )
    log = retimed(simulate_session(generate_topology(cfg), cfg, stream=2), sender)
    assert log.present.sum() < log.present.size
    assert log_digest(log, tmp_path) == "6b957628a4891b09c72281abc87df02bda87c419161d8ec92e7b281be34418c6"


@pytest.mark.parametrize("overrides", [{}, {"bg_rate_bytes_per_sec": 12e6}], ids=["loss-free", "lossy"])
def test_session_drawn_on_another_thread_equals_simulate_session(overrides):
    # begun here with a row per link of the grown network, every row drawn
    # on another thread, finished here
    cfg = small_cfg(**overrides)
    net = generate_topology(cfg)
    grow_network(net, cfg, 3, stream=2)
    want = simulate_session(net, cfg, stream=2)
    links = len(net.truth.nodes()) - 1
    begun = begin_session(cfg, links, stream=2)
    worker = threading.Thread(target=begun.draw_rows, args=(links,))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and begun.drawn == links
    log = simulate_session(net, cfg, stream=2, begun=begun)
    assert log.present.all() == (not overrides)
    assert log.ids == want.ids and np.array_equal(log.sender, want.sender)
    assert np.array_equal(log.present, want.present) and np.array_equal(log.recv, want.recv)


@settings(max_examples=100, deadline=None)
@given(
    n_hosts=st.integers(3, 16),
    n_routers=st.integers(1, 7),
    seed=st.integers(0, 2**16),
    bg=st.sampled_from([0.0, 4e6, 12e6]),
    n_pairs=st.integers(2, 40),
)
def test_session_begun_before_its_network_equals_simulate_session(n_hosts, n_routers, seed, bg, n_pairs):
    # the head rows drawn on another thread before the network exists; at
    # bg 12e6 the noise and loss draws follow the jitter
    cfg = SimulatorConfig(
        n_hosts=n_hosts, n_routers=n_routers, seed=seed, bg_rate_bytes_per_sec=bg, n_pairs=n_pairs
    )
    fewest, most = truth_link_range(cfg)
    begun = begin_session(cfg, most)
    worker = threading.Thread(target=begun.draw_rows, args=(fewest,))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and begun.drawn == fewest
    net = generate_topology(cfg)
    links = {link for c in net.clients for link in path_links(net, c)}
    assert len(net.clients) + 1 <= len(links) <= len(net.clients) + n_routers
    assert (fewest, most) == (len(net.clients) + 1, len(net.clients) + n_routers)
    log = simulate_session(net, cfg, begun=begun)
    # the session took the buffer, so that it is freed with the session
    assert begun.jitter is None
    want = simulate_session(net, cfg)
    assert log.ids == want.ids and np.array_equal(log.sender, want.sender)
    assert np.array_equal(log.present, want.present) and np.array_equal(log.recv, want.recv)


def _begun(cfg, links, case):
    """A session begun for ``cfg``'s network of ``links`` links, spoilt as
    ``case`` names."""
    if case == "other-stream":
        return begin_session(cfg, links, stream=1)
    if case == "other-config":
        return begin_session(replace(cfg, n_pairs=cfg.n_pairs + 1), links)
    if case == "too-few-rows":
        return begin_session(cfg, links - 1)
    begun = begin_session(cfg, links + 2)
    if case == "too-many-drawn":
        begun.draw_rows(links + 1)
    else:
        simulate_session(generate_topology(cfg), cfg, begun=begun)
    return begun


@pytest.mark.parametrize("case", ["other-stream", "other-config", "too-few-rows", "too-many-drawn", "simulated"])
def test_begun_session_that_does_not_fit_is_refused(case):
    cfg = small_cfg()
    net = generate_topology(cfg)
    # a link per node below the source
    begun = _begun(cfg, len(net.truth.nodes()) - 1, case)
    # a buffer that does not fit is refused by `SessionDraws.draw_rows`
    message = "^begun session is of another config or stream$" if case.startswith("other-") else "^cannot draw up to row"
    with pytest.raises(InputError, match=message):
        simulate_session(net, cfg, begun=begun)


@pytest.mark.parametrize("rows", ["below-drawn", "past-buffer"])
def test_draw_rows_outside_the_buffer_is_refused_before_drawing(rows):
    cfg = small_cfg()
    fewest, most = truth_link_range(cfg)
    begun = begin_session(cfg, most)
    begun.draw_rows(fewest)
    head, state = begun.jitter[:fewest].copy(), begun.rng.bit_generator.state
    with pytest.raises(InputError, match="^cannot draw up to row"):
        begun.draw_rows(2 if rows == "below-drawn" else most + 5)
    assert begun.drawn == fewest and begun.rng.bit_generator.state == state
    assert np.array_equal(begun.jitter[:fewest], head)
    # so the session still equals a plain one
    net = generate_topology(cfg)
    log, want = simulate_session(net, cfg, begun=begun), simulate_session(net, cfg)
    assert log.ids == want.ids and np.array_equal(log.sender, want.sender)
    assert np.array_equal(log.present, want.present) and np.array_equal(log.recv, want.recv)
    # and its buffer, taken by the session, is refused too
    with pytest.raises(InputError, match="^cannot draw up to row"):
        begun.draw_rows(most)


@pytest.mark.parametrize("n_new", [0, -1])
def test_rejected_grow_network_changes_nothing(n_new):
    cfg = small_cfg()
    net = generate_topology(cfg)

    def state():
        return net.truth.to_dict(), set(net.clients), dict(net.link_params)

    before = state()
    with pytest.raises(InputError, match=f"^n_new_hosts must be >= 1, got {n_new}$"):
        grow_network(net, cfg, n_new, stream=1)
    assert state() == before
    # the refused call took no host id: the next one attaches as on a fresh network
    fresh = generate_topology(cfg)
    assert grow_network(net, cfg, 2, stream=1) == grow_network(fresh, cfg, 2, stream=1) == ["h0010", "h0011"]
    assert net.truth.to_dict() == fresh.truth.to_dict()


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
    # generated ids continue the network's sequence, call after call
    assert added1 + grow_network(n1, cfg, 2, stream=3) == [f"h{i:04d}" for i in range(10, 17)]


def test_truth_labels_sum_path_variances_in_path_order():
    for seed in range(4):
        cfg = small_cfg(n_hosts=60, n_routers=20, seed=seed)
        net = generate_topology(cfg)
        grow_network(net, cfg, 15, stream=1)
        for node in net.truth.nodes():
            path = path_from_root(net.truth, node)
            if net.truth.is_router(node):
                assert tuple(path) == net._router_paths[node]
                cum = 0.0
                for link in zip(path, path[1:]):
                    cum += net.link_params[net.link_key(*link)][1]
                assert net.truth.router_cov[node].hex() == cum.hex()


def test_truth_path_refuses_a_disagreeing_junction():
    links = [("s", "r1"), ("s", "r2"), ("r1", "a"), ("r2", "r1"), ("r1", "b")]
    link_params = {SimulatedNetwork.link_key(*link): (1.0, 0.5) for link in links}
    tree = RoutingTree("s")
    simulator._extend_truth_path(tree, ("s", "r1", "a"), link_params)
    with pytest.raises(InvariantError, match="routing paths disagree on parent of 'r1'"):
        simulator._extend_truth_path(tree, ("s", "r2", "r1", "b"), link_params)
    assert "r2" not in tree
    simulator._extend_truth_path(tree, ("s", "r1", "b"), link_params)
    leaves = [{"id": leaf, "cov": None, "children": []} for leaf in "ab"]
    assert tree.to_dict()["children"] == [{"id": "r1", "cov": 0.5, "children": leaves}]


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        SimulatorConfig(n_hosts=1)
    with pytest.raises(ConfigError):
        SimulatorConfig(pair_interval_us=0)
    with pytest.raises(ConfigError):
        SimulatorConfig(link_delay_var_ms2=(2.0, 1.0))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_hosts", 10.0, "n_hosts must be an integer, got 10.0"),
        ("n_routers", 4.0, "n_routers must be an integer, got 4.0"),
        ("n_hosts", True, "n_hosts must be an integer, got True"),
        # 2.5 pairs would become a 3-pair schedule
        ("n_pairs", 2.5, "n_pairs must be an integer, got 2.5"),
        ("n_pairs", False, "n_pairs must be an integer, got False"),
        # 30000.5 would become 30000 in the schedule
        ("pair_interval_us", 30000.5, "pair_interval_us must be an integer, got 30000.5"),
        ("pair_interval_us", True, "pair_interval_us must be an integer, got True"),
        # a covariance needs two receivers, and three hosts make two clients
        ("n_hosts", 2, "n_hosts must be >= 3, got 2"),
        # and two pairs: it divides by n_pairs - 1
        ("n_pairs", 1, "n_pairs must be >= 2, got 1"),
        # float() and the comparisons would read a bool as 0 or 1
        ("bg_rate_bytes_per_sec", True, "bg_rate_bytes_per_sec must be a number, got True"),
        ("bg_rate_bytes_per_sec", "4e6", "bg_rate_bytes_per_sec must be a number, got '4e6'"),
        ("link_delay_var_ms2", [False, True], "link_delay_var_ms2 must be a (lo, hi) pair of numbers"),
        ("link_delay_var_ms2", [0.5, "1.5"], "link_delay_var_ms2 must be a (lo, hi) pair of numbers"),
        ("link_delay_var_ms2", 1.0, "link_delay_var_ms2 must be a (lo, hi) pair of numbers"),
    ],
)
def test_config_rejects_counts_that_fail_later(field, value, message):
    with pytest.raises(ConfigError) as info:
        SimulatorConfig(**{field: value})
    assert str(info.value) == message


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "401-digit-int"])
def test_config_rejects_a_rate_without_a_finite_value(value):
    with pytest.raises(ConfigError) as info:
        SimulatorConfig(bg_rate_bytes_per_sec=value)
    assert str(info.value) == "bg_rate_bytes_per_sec must be a finite number"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "401-digit-int"])
@pytest.mark.parametrize("end", [0, 1])
def test_config_rejects_a_variance_range_without_finite_ends(value, end):
    bounds = [1.0, value] if end else [value, value]
    with pytest.raises(ConfigError) as info:
        SimulatorConfig(link_delay_var_ms2=bounds)
    assert str(info.value) == "link_delay_var_ms2 must be a finite range"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", True, "seed must be an integer, got True"),
        ("seed", 1.0, "seed must be an integer, got 1.0"),
    ],
)
def test_config_rejects_bad_seeds(field, value, message):
    with pytest.raises(ConfigError) as info:
        SimulatorConfig(**{field: value})
    assert str(info.value) == message


def reference_session(net, config, stream=0):
    """Plain restatement of `simulate_session`: jitter and congestion noise
    drawn by ``rng.normal(loc, scale)`` in one call each, and each client's
    jitter summed link by link in path order."""
    rng = np.random.default_rng([config.seed, simulator._STREAM_SESSION, stream])
    clients = sorted(net.clients)
    schedule = config.sender_schedule()
    n = len(schedule)
    paths = {c: path_links(net, c) for c in clients}
    links = sorted({link for ls in paths.values() for link in ls})
    # load: background plus one probe per crossing client per interval
    crossing = {link: sum(link in ls for ls in paths.values()) for link in links}
    interval_s = config.pair_interval_us / 1e6
    util = {
        link: (config.bg_rate_bytes_per_sec * 8 + count * 200 * 8 / interval_s) / 1e8
        for link, count in crossing.items()
    }
    sigma = np.array([math.sqrt(net.link_params[link][1]) * 1000.0 for link in links])
    jitter = np.clip(rng.normal(5.0 * sigma[:, None], sigma[:, None], size=(len(links), n)), 0.0, None)
    row = dict(zip(links, jitter))

    # 200-byte probes on 100 Mbps links
    trans_us = 200 * 8 / 1e8 * 1e6
    # congestion threshold 0.8, noise gain 12.0, drop probability 0.08
    threshold = 0.8
    delays = np.empty((len(clients), n))
    noise_var = np.zeros(len(clients))
    survival = np.ones(len(clients))
    for ci, c in enumerate(clients):
        summed, const = 0.0, 0.0
        for link in paths[c]:
            base, var = net.link_params[link]
            summed = summed + row[link]
            const += base + trans_us
            if util[link] > threshold:
                overshoot = (util[link] - threshold) / (1.0 - threshold)
                noise_var[ci] += var * 12.0 * overshoot * 1e6
                survival[ci] *= 1.0 - 0.08
        delays[ci] = summed + const
    noise_sigma = np.sqrt(noise_var)
    noisy = noise_sigma > 0
    if noisy.any():
        loc, scale = 5.0 * noise_sigma[noisy, None], noise_sigma[noisy, None]
        delays[noisy] += np.clip(rng.normal(loc, scale, size=(int(noisy.sum()), n)), 0.0, None)
    lost = rng.random((len(clients), n)) >= survival[:, None]
    recv = schedule[None, :] + np.rint(delays).astype(np.int64)
    recv[lost] = 0
    return clients, schedule, recv, ~lost


@st.composite
def session_setups(draw):
    """A small network, possibly grown, with a pair count and interval, and
    a background rate from idle to congesting every link."""
    cfg = SimulatorConfig(
        n_hosts=draw(st.integers(3, 16)),
        n_routers=draw(st.integers(1, 7)),
        seed=draw(st.integers(0, 2**16)),
        bg_rate_bytes_per_sec=draw(st.sampled_from([0.0, 1e6, 4e6, 9e6, 12e6])),
        n_pairs=draw(st.integers(2, 40)),
        pair_interval_us=draw(st.sampled_from([200, 5000, 30000])),
    )
    net = generate_topology(cfg)
    stream = 0
    if draw(st.booleans()):
        stream = draw(st.integers(1, 3))
        grow_network(net, cfg, draw(st.integers(1, 4)), stream=stream)
    return net, cfg, stream


@settings(max_examples=150, deadline=None)
@given(session_setups())
def test_session_equals_plain_reference(setup):
    net, cfg, stream = setup
    assert net.clients == net.truth.leaves
    # the oracles read the truth tree; restate them from the routed paths
    paths = {c: net._router_paths[net.truth.parent(c)] + (c,) for c in net.clients}
    for a, b in itertools.combinations(sorted(net.clients), 2):
        shared = 0.0
        for u, v, w in zip(paths[a], paths[a][1:], paths[b][1:]):
            if v != w:
                break
            shared += net.link_params[SimulatedNetwork.link_key(u, v)][1]
        assert shared_covariance(net.truth, a, b) == shared
    for c in net.clients:
        links = [SimulatedNetwork.link_key(u, v) for u, v in zip(paths[c], paths[c][1:])]
        assert analytic_path_variance(net, c) == sum(net.link_params[link][1] for link in links)
    log = simulate_session(net, cfg, stream=stream)
    clients, schedule, recv, present = reference_session(net, cfg, stream)
    assert list(log.ids) == clients
    assert np.array_equal(log.sender, schedule)
    assert np.array_equal(log.present, present)
    assert np.array_equal(log.recv, recv)


@st.composite
def weighted_graphs(draw):
    """A small undirected graph as a list of distinct links with integer
    weights from 0 to 3, so that equal-length routes are common."""
    n = draw(st.integers(1, 9))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), unique_by=frozenset, max_size=20))
    return n, [(u, v, draw(st.integers(0, 3))) for u, v in pairs], draw(node)


@settings(max_examples=300, deadline=None)
@given(weighted_graphs())
def test_shortest_paths_match_networkx(graph):
    n, links, source = graph
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v, w in links:
        g.add_edge(u, v, delay_us=w)
    expected = nx.single_source_dijkstra_path(g, source, weight="delay_us")
    assert simulator._shortest_paths(source, links) == {node: tuple(path) for node, path in expected.items()}


IMPORTS_ONLY_NUMPY = """
import sys

startup = set(sys.modules)
import covtomo
from covtomo.scenarios import parse_config, run_dynamic_scenario, run_scenario

config = {
    "simulator": {"n_hosts": 8, "n_routers": 3, "n_pairs": 50, "pair_interval_us": 5000},
    "recovery": {"rho_ms2": 0.3},
    "seeds": [1],
}
run_scenario(parse_config(config))
run_dynamic_scenario(parse_config(dict(config, joins={"batches": [2]})))
# Cython extensions register helper modules with no spec, which no import finds
loaded = {name.partition(".")[0] for name in set(sys.modules) - startup if getattr(sys.modules[name], "__spec__", None)}
foreign = loaded - set(sys.stdlib_module_names)
assert foreign == {"covtomo", "numpy"}, sorted(foreign)
"""


def test_package_loads_only_its_declared_dependency():
    # numpy is the one dependency pyproject.toml declares; scipy, networkx
    # and hypothesis are installed for the tests only
    env = dict(os.environ, PYTHONPATH=str(Path(simulator.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", IMPORTS_ONLY_NUMPY], env=env, check=True, timeout=120)


def scalar_link_params(cfg):
    """`generate_topology`'s link parameters drawn the plain way: the same
    stream read up to the link draws, then two scalar ``rng.uniform`` calls
    per link in link-key order."""
    rng = np.random.default_rng([cfg.seed, simulator._STREAM_TOPOLOGY])
    router_links = [(f"r{u}", f"r{v}") for u, v in sorted(simulator._waxman_router_graph(cfg, rng))]
    hosts = [simulator.host_id(i, cfg.n_hosts) for i in range(cfg.n_hosts)]
    attach = rng.integers(cfg.n_routers, size=cfg.n_hosts)
    source = hosts[int(rng.integers(cfg.n_hosts))]
    others = [h for h in hosts if h != source]
    rng.choice(others, size=min(len(others), int(round(0.7 * cfg.n_hosts))), replace=False)
    access = [(h, f"r{r}") for h, r in zip(hosts, attach)]
    params = {}
    for link in sorted(SimulatedNetwork.link_key(a, b) for a, b in router_links + access):
        base = float(rng.uniform(*simulator.LINK_BASE_DELAY_US))
        params[link] = (base, float(rng.uniform(*cfg.link_delay_var_ms2)) * cfg.bg_scale)
    return params


@pytest.mark.parametrize("seed", range(6))
def test_link_draw_equals_two_scalar_draws_per_link(seed):
    cfg = small_cfg(
        n_hosts=40, n_routers=12, seed=seed, bg_rate_bytes_per_sec=[4e6, 9e6, 3][seed % 3],
        link_delay_var_ms2=(0.25, 0.25 + seed),
    )
    net = generate_topology(cfg)
    assert list(net.link_params.items()) == list(scalar_link_params(cfg).items())


def test_config_rejects_delays_past_the_int64_timestamp_range():
    with pytest.raises(ConfigError) as info:
        SimulatorConfig(n_hosts=10, n_routers=3, n_pairs=50, bg_rate_bytes_per_sec=1e300)
    assert str(info.value) == "delays too large: a timestamp could reach inf us, past the exact int64 range (2^62 us)"
    # a send time at the edge leaves no room for a delay
    with pytest.raises(ConfigError, match=r"^delays too large: a timestamp could reach 4\.61e\+18 us"):
        small_cfg(n_pairs=2, pair_interval_us=TIMESTAMP_LIMIT_US - 1)
    # only the jitter, on uncongested links
    with pytest.raises(ConfigError, match=r"^delays too large: a timestamp could reach 3\.45e\+20 us"):
        small_cfg(link_delay_var_ms2=(0.5, 1e30))
    # only the congestion noise: the same links pass uncongested, and with
    # pairs 10 us apart, where each client's probes alone congest every
    # link, the noise lifts a bound of 6.9e17 us past the limit
    assert small_cfg(link_delay_var_ms2=(0.5, 4e24))._timestamp_bound_us() < 1e18
    with pytest.raises(ConfigError, match=r"^delays too large: a timestamp could reach 1\.\d+e\+19 us"):
        small_cfg(link_delay_var_ms2=(0.5, 4e24), pair_interval_us=10)


def test_session_needs_a_positive_interval():
    # the interval spaces the sends and sets the probe load, even at the
    # fewest pairs
    with pytest.raises(ConfigError) as info:
        small_cfg(n_pairs=2, pair_interval_us=0)
    assert str(info.value) == "pair_interval_us must be positive, got 0"
    cfg = small_cfg(n_pairs=2)
    log = simulate_session(generate_topology(cfg), cfg)
    assert log.sender.tolist() == [0, 5000]


def test_session_at_the_timestamp_bound_is_exact():
    # sends up to 10^9 us below the log's limit, with every link congested:
    # the bound allows them, and every timestamp is an exact int64 below
    # the limit; sends up to the limit itself leave no room for a delay
    interval = (TIMESTAMP_LIMIT_US - 10**9) // 399
    cfg = small_cfg(n_pairs=400, pair_interval_us=interval, bg_rate_bytes_per_sec=12e6)
    assert cfg._timestamp_bound_us() < TIMESTAMP_LIMIT_US
    with pytest.raises(ConfigError, match=r"^delays too large"):
        replace(cfg, pair_interval_us=TIMESTAMP_LIMIT_US // 399)
    with np.errstate(all="raise"):
        log = simulate_session(generate_topology(cfg), cfg)
    assert log.recv.dtype == np.int64 and int(log.recv.max()) < TIMESTAMP_LIMIT_US
    assert (log.recv[log.present] > log.sender[np.nonzero(log.present)[1]]).all()
