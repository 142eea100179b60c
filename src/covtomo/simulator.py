"""Ground-truth network simulator: generates routed topologies and
synthesizes packet-pair measurement logs with configurable link-delay
variance, background-traffic jitter, and congestion loss.

Delay model per link: a fixed base propagation delay, the packet's
transmission time, and a per-(link, pair) jitter sample drawn from a
Gaussian offset away from zero and clipped at zero (the offset makes the
clip negligible, so the configured variance is preserved). The jitter
sample for a link is shared by every client whose path crosses that link at
that pair index; that sharing is what creates covariance on shared links,
and the analytic covariance of two clients is therefore exactly the sum of
link variances over their common path prefix.

Background traffic scales every link's jitter variance linearly with the
configured rate, and pushes links over a utilization threshold into
congestion, which adds per-client independent noise and packet loss.
Utilization counts background rate plus the probe traffic itself, so small
pair intervals or large packets can congest heavily shared links. This
reproduces the qualitative extremes: almost no load means covariance gaps
too small to resolve against rho, heavy load destroys the back-to-back
timing and drops packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .errors import ConfigError, InputError, InvariantError, TopologyGenerationError
from .model import MeasurementLog, NodeId, RoutingTree

# rng stream tags so topology, sessions and growth draw independent streams
_STREAM_TOPOLOGY = 1
_STREAM_SESSION = 2
_STREAM_GROWTH = 3

# jitter is drawn at mean 5*sigma and clipped at zero: clip probability
# ~3e-7, so the configured variance survives to measurement precision
_JITTER_OFFSET_SIGMAS = 5.0


@dataclass(frozen=True)
class SimulatorConfig:
    """Simulation parameters; defaults mirror the desk-scale evaluation
    setup (150 hosts, 50 routers, 100 Mbps links, 70% of hosts as clients).
    """

    n_hosts: int = 150
    n_routers: int = 50
    topology_model: str = "waxman"  # "waxman" | "lary"
    waxman_alpha: float = 0.15
    waxman_beta: float = 0.2
    links_per_node: int = 2  # attachments per router during incremental growth
    lary_arity: int = 3
    client_fraction: float = 0.7
    seed: int = 0
    link_base_delay_us: tuple[float, float] = (200.0, 2000.0)
    link_delay_var_ms2: tuple[float, float] = (0.5, 1.5)
    bandwidth_bps: float = 1e8
    packet_size_bytes: int = 200
    pair_interval_us: int = 30000
    pair_schedule_us: tuple[int, ...] | None = None
    n_pairs: int = 2000
    bg_rate_bytes_per_sec: float = 4e6
    bg_ref_rate_bytes_per_sec: float = 4e6
    congestion_threshold: float = 0.8
    congestion_noise_gain: float = 12.0
    drop_prob: float = 0.08
    max_topology_retries: int = 20

    def __post_init__(self):
        if self.n_hosts < 2:
            raise ConfigError(f"n_hosts must be >= 2, got {self.n_hosts}")
        if self.n_routers < 1:
            raise ConfigError(f"n_routers must be >= 1, got {self.n_routers}")
        if self.topology_model not in ("waxman", "lary"):
            raise ConfigError(f"unknown topology_model {self.topology_model!r}")
        if not 0 < self.client_fraction <= 1:
            raise ConfigError(f"client_fraction must be in (0, 1], got {self.client_fraction}")
        for name in ("link_base_delay_us", "link_delay_var_ms2"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ConfigError(f"{name} must be a non-negative (lo, hi) range")
        if self.pair_schedule_us is not None:
            if len(self.pair_schedule_us) < 1:
                raise ConfigError("pair_schedule_us must not be empty")
            if any(b <= a for a, b in zip(self.pair_schedule_us, self.pair_schedule_us[1:])):
                raise ConfigError("pair_schedule_us must be strictly increasing")
        elif self.pair_interval_us <= 0:
            raise ConfigError(f"pair_interval_us must be positive, got {self.pair_interval_us}")
        if self.n_pairs < 1 and self.pair_schedule_us is None:
            raise ConfigError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.bg_ref_rate_bytes_per_sec <= 0:
            raise ConfigError("bg_ref_rate_bytes_per_sec must be positive")
        if self.bg_rate_bytes_per_sec < 0:
            raise ConfigError("bg_rate_bytes_per_sec must be non-negative")
        if not 0 <= self.drop_prob < 1:
            raise ConfigError(f"drop_prob must be in [0, 1), got {self.drop_prob}")
        if not 0 < self.congestion_threshold <= 1:
            raise ConfigError("congestion_threshold must be in (0, 1]")
        if self.bandwidth_bps <= 0:
            raise ConfigError("bandwidth_bps must be positive")

    @property
    def bg_scale(self) -> float:
        return self.bg_rate_bytes_per_sec / self.bg_ref_rate_bytes_per_sec

    def sender_schedule(self) -> np.ndarray:
        if self.pair_schedule_us is not None:
            return np.asarray(self.pair_schedule_us, dtype=np.int64)
        return np.arange(self.n_pairs, dtype=np.int64) * int(self.pair_interval_us)


class SimulatedNetwork:
    """Ground-truth topology with per-link delay parameters.

    ``truth`` is the routing tree from the source to the clients, its router
    labels holding cumulative shared-path delay variance. ``link_params``
    maps each undirected link to (base delay us, effective jitter variance
    ms^2, already scaled by the configured background rate).
    """

    def __init__(self, source, clients, truth, link_params, access_router, router_paths, host_seq):
        self.source: NodeId = source
        self.clients: set[NodeId] = set(clients)
        self.truth: RoutingTree = truth
        self.link_params: dict[tuple[NodeId, NodeId], tuple[float, float]] = link_params
        self.access_router: dict[NodeId, NodeId] = access_router
        self._router_paths: dict[NodeId, tuple[NodeId, ...]] = router_paths
        self._host_seq = host_seq
        # tests may force per-link drop probabilities regardless of congestion
        self.drop_override: dict[tuple[NodeId, NodeId], float] = {}

    @staticmethod
    def link_key(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
        return (u, v) if u <= v else (v, u)

    def client_path(self, client: NodeId) -> tuple[NodeId, ...]:
        if client not in self.clients:
            raise InputError(f"unknown client {client!r}")
        return self._router_paths[self.access_router[client]] + (client,)

    def path_links(self, client: NodeId) -> list[tuple[NodeId, NodeId]]:
        path = self.client_path(client)
        return [self.link_key(a, b) for a, b in zip(path, path[1:])]


def _waxman_router_graph(cfg: SimulatorConfig, rng: np.random.Generator) -> nx.Graph:
    """Incremental Waxman growth: routers placed uniformly in the unit
    square; each new router attaches to ``links_per_node`` earlier routers
    chosen with probability proportional to alpha*exp(-d/(beta*L)). Growing
    incrementally keeps the graph connected, which a flat Waxman trial at
    realistic alpha/beta almost never is at this size."""
    n = cfg.n_routers
    pos = rng.random((n, 2))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    if n == 1:
        return g
    diffs = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    span = float(dist.max())
    if span <= 0:
        span = 1.0
    for i in range(1, n):
        weights = cfg.waxman_alpha * np.exp(-dist[i, :i] / (cfg.waxman_beta * span))
        total = weights.sum()
        probs = weights / total if total > 0 else np.full(i, 1.0 / i)
        m = min(cfg.links_per_node, i)
        targets = rng.choice(i, size=m, replace=False, p=probs)
        for t in targets:
            g.add_edge(i, int(t))
    return g


def _lary_router_graph(cfg: SimulatorConfig, rng: np.random.Generator) -> nx.Graph:
    """Random l-ary router tree: each new router hangs under a uniformly
    chosen earlier router that still has capacity."""
    g = nx.Graph()
    g.add_nodes_from(range(cfg.n_routers))
    open_slots = {0: cfg.lary_arity}
    for i in range(1, cfg.n_routers):
        candidates = sorted(open_slots)
        parent = int(candidates[rng.integers(len(candidates))])
        g.add_edge(parent, i)
        open_slots[parent] -= 1
        if open_slots[parent] == 0:
            del open_slots[parent]
        open_slots[i] = cfg.lary_arity
    return g


def generate_topology(config: SimulatorConfig) -> SimulatedNetwork:
    """Build the ground-truth network for the configured seed: router
    interconnect per the topology model, hosts on random routers, a random
    source host, and the lowest-latency routing tree to a random client
    subset. Deterministic given the seed."""
    rng = np.random.default_rng([config.seed, _STREAM_TOPOLOGY])
    host_pad = max(4, len(str(config.n_hosts)))
    for _ in range(config.max_topology_retries):
        if config.topology_model == "waxman":
            router_graph = _waxman_router_graph(config, rng)
        else:
            router_graph = _lary_router_graph(config, rng)
        if nx.is_connected(router_graph):
            break
    else:
        raise TopologyGenerationError(
            f"router graph still disconnected after {config.max_topology_retries} attempts"
        )

    g = nx.Graph()
    router_ids = [f"r{i}" for i in range(config.n_routers)]
    g.add_nodes_from(router_ids)
    for u, v in router_graph.edges():
        g.add_edge(router_ids[u], router_ids[v])
    hosts = [f"h{i:0{host_pad}d}" for i in range(config.n_hosts)]
    access_router: dict[NodeId, NodeId] = {}
    attach = rng.integers(config.n_routers, size=config.n_hosts)
    for h, r in zip(hosts, attach):
        access_router[h] = router_ids[int(r)]
        g.add_edge(h, access_router[h])

    source = hosts[int(rng.integers(config.n_hosts))]
    others = [h for h in hosts if h != source]
    n_clients = min(len(others), int(round(config.client_fraction * config.n_hosts)))
    clients = sorted(rng.choice(others, size=n_clients, replace=False).tolist())

    # sample per-link delay parameters in a fixed edge order
    base_lo, base_hi = config.link_base_delay_us
    var_lo, var_hi = config.link_delay_var_ms2
    link_params: dict[tuple[NodeId, NodeId], tuple[float, float]] = {}
    for u, v in sorted(SimulatedNetwork.link_key(a, b) for a, b in g.edges()):
        base = float(rng.uniform(base_lo, base_hi))
        var = float(rng.uniform(var_lo, var_hi)) * config.bg_scale
        link_params[(u, v)] = (base, var)
        g[u][v]["delay_us"] = base

    # lowest-latency routing: hosts have degree 1, so they are never transit
    paths = nx.single_source_dijkstra_path(g, source, weight="delay_us")
    router_paths = {r: tuple(paths[r]) for r in router_ids if r in paths}

    truth = _build_truth_tree(source, clients, access_router, router_paths, link_params)
    net = SimulatedNetwork(
        source=source,
        clients=clients,
        truth=truth,
        link_params=link_params,
        access_router=access_router,
        router_paths=router_paths,
        host_seq=config.n_hosts,
    )
    return net


def _build_truth_tree(source, clients, access_router, router_paths, link_params) -> RoutingTree:
    tree = RoutingTree(source)
    for client in sorted(clients):
        path = router_paths[access_router[client]] + (client,)
        _extend_truth_path(tree, path, link_params)
    return tree


def _extend_truth_path(tree: RoutingTree, path, link_params) -> None:
    cum = 0.0
    for prev, node in zip(path, path[1:]):
        cum += link_params[SimulatedNetwork.link_key(prev, node)][1]
        if node in tree:
            if tree.parent(node) != prev:
                raise InvariantError(f"routing paths disagree on parent of {node!r}")
            continue
        if node == path[-1]:
            tree.add_leaf(node, prev)
        else:
            tree.add_router(prev, cum, router_id=node)


def grow_network(
    net: SimulatedNetwork,
    config: SimulatorConfig,
    n_new_hosts: int,
    stream: int = 0,
    names=None,
):
    """Attach new client hosts to random routers, extending the ground truth
    in place. Returns the new host ids (generated, or taken from ``names``).
    Deterministic given (config.seed, stream)."""
    if n_new_hosts < 1:
        raise InputError(f"n_new_hosts must be >= 1, got {n_new_hosts}")
    if names is not None and len(names) != n_new_hosts:
        raise InputError("names must match n_new_hosts")
    rng = np.random.default_rng([config.seed, _STREAM_GROWTH, stream])
    routers = sorted({r for r in net._router_paths})
    base_lo, base_hi = config.link_base_delay_us
    var_lo, var_hi = config.link_delay_var_ms2
    host_pad = max(4, len(str(config.n_hosts)))
    new_hosts = []
    for slot in range(n_new_hosts):
        if names is not None:
            host = names[slot]
            if host in net.access_router or host == net.source:
                raise InputError(f"host {host!r} already exists in the network")
        else:
            host = f"h{net._host_seq:0{host_pad}d}"
            net._host_seq += 1
        router = routers[int(rng.integers(len(routers)))]
        base = float(rng.uniform(base_lo, base_hi))
        var = float(rng.uniform(var_lo, var_hi)) * config.bg_scale
        key = SimulatedNetwork.link_key(router, host)
        net.link_params[key] = (base, var)
        net.access_router[host] = router
        net.clients.add(host)
        _extend_truth_path(net.truth, net._router_paths[router] + (host,), net.link_params)
        new_hosts.append(host)
    return new_hosts


def _link_utilization(net: SimulatedNetwork, config: SimulatorConfig, client_links) -> dict:
    """Utilization per link: uniform background load plus the probe traffic
    that actually crosses the link (one packet per client per interval)."""
    schedule = config.sender_schedule()
    if len(schedule) > 1:
        mean_interval_s = float(schedule[-1] - schedule[0]) / (len(schedule) - 1) / 1e6
    else:
        mean_interval_s = float(config.pair_interval_us) / 1e6
    probe_bits = config.packet_size_bytes * 8
    bg_bits = config.bg_rate_bytes_per_sec * 8
    counts: dict[tuple[NodeId, NodeId], int] = {}
    for links in client_links.values():
        for link in links:
            counts[link] = counts.get(link, 0) + 1
    util = {}
    for link, count in counts.items():
        probe_load = count * probe_bits / mean_interval_s
        util[link] = (bg_bits + probe_load) / config.bandwidth_bps
    return util


def simulate_session(net: SimulatedNetwork, config: SimulatorConfig, stream: int = 0) -> MeasurementLog:
    """Synthesize one measurement session over all current clients.

    Per pair index the sender emits one packet per client; a client's
    end-to-end delay sums, over its path links, base delay, transmission
    time and the link's shared jitter sample for that index, plus
    independent congestion noise. Congested links also drop packets, which
    shows up as missing arrivals. Bit-identical for identical inputs.
    """
    if not net.clients:
        raise InputError("network has no clients")
    rng = np.random.default_rng([config.seed, _STREAM_SESSION, stream])
    clients = sorted(net.clients)
    schedule = config.sender_schedule()
    n = len(schedule)

    client_links = {c: net.path_links(c) for c in clients}
    links = sorted({link for ls in client_links.values() for link in ls})
    link_idx = {link: i for i, link in enumerate(links)}
    util = _link_utilization(net, config, client_links)

    # shared per-(link, pair) jitter
    sigma_us = np.array(
        [math.sqrt(net.link_params[l][1]) * 1000.0 for l in links], dtype=float
    )
    jitter = rng.normal(
        _JITTER_OFFSET_SIGMAS * sigma_us[:, None], sigma_us[:, None], size=(len(links), n)
    )
    np.clip(jitter, 0.0, None, out=jitter)

    trans_us = config.packet_size_bytes * 8 / config.bandwidth_bps * 1e6
    threshold = config.congestion_threshold
    incidence = np.zeros((len(clients), len(links)), dtype=float)
    const_us = np.zeros(len(clients), dtype=float)
    indep_var_us2 = np.zeros(len(clients), dtype=float)
    survival = np.ones(len(clients), dtype=float)
    for ci, c in enumerate(clients):
        for link in client_links[c]:
            incidence[ci, link_idx[link]] = 1.0
            const_us[ci] += net.link_params[link][0] + trans_us
            over = util[link] - threshold
            if over > 0:
                overshoot = over / max(1.0 - threshold, 1e-9)
                indep_var_us2[ci] += (
                    net.link_params[link][1] * config.congestion_noise_gain * overshoot * 1e6
                )
                survival[ci] *= 1.0 - config.drop_prob
            drop = net.drop_override.get(link)
            if drop:
                survival[ci] *= 1.0 - drop

    delays = incidence @ jitter + const_us[:, None]
    indep_sigma = np.sqrt(indep_var_us2)
    noisy = indep_sigma > 0
    if noisy.any():
        extra = rng.normal(
            _JITTER_OFFSET_SIGMAS * indep_sigma[noisy, None],
            indep_sigma[noisy, None],
            size=(int(noisy.sum()), n),
        )
        np.clip(extra, 0.0, None, out=extra)
        delays[noisy] += extra

    lost = rng.random((len(clients), n)) >= survival[:, None]

    arrivals_ts = schedule[None, :] + np.rint(delays).astype(np.int64)
    arrivals_ts[lost] = 0
    interval = None if config.pair_schedule_us is not None else int(config.pair_interval_us)
    return MeasurementLog(clients, schedule, arrivals_ts, ~lost, interval)


def analytic_covariance(net: SimulatedNetwork, i: NodeId, j: NodeId) -> float:
    """Noiseless covariance oracle: the sum of effective link delay
    variances over the links the two clients' paths share."""
    if i == j:
        raise InputError("analytic_covariance needs two distinct clients")
    links_i = net.path_links(i)
    links_j = net.path_links(j)
    total = 0.0
    for a, b in zip(links_i, links_j):
        if a != b:
            break
        total += net.link_params[a][1]
    return total


def analytic_path_variance(net: SimulatedNetwork, i: NodeId) -> float:
    """Total delay variance of one client's path (used for stderr bands in
    convergence checks)."""
    return sum(net.link_params[l][1] for l in net.path_links(i))
