"""Ground-truth network simulator: generates routed topologies and
synthesizes packet-pair measurement logs with configurable link-delay
variance, background-traffic jitter, and congestion loss.

Every network is a Waxman graph: routers placed at random in the unit
square, each new one linked to earlier ones with a probability that decays
with distance (`_waxman_router_graph`), and hosts on random routers.

Each link gets a base delay and a jitter variance, drawn uniformly from
``LINK_BASE_DELAY_US`` and the configured variance range: all links of a
generated network in one array draw, in link-key order, and each host that
`grow_network` attaches in two scalar draws after its router's.

Delay model per link: a fixed base propagation delay, the packet's
transmission time, and a per-(link, pair) jitter sample drawn from a
Gaussian offset away from zero and clipped at zero (the offset makes the
clip negligible, so the configured variance is preserved). The jitter
sample for a link is shared by every client whose path crosses that link at
that pair index; that sharing is what creates covariance on shared links,
and the analytic covariance of two clients is therefore exactly the sum of
link variances over their common path prefix.

A session sends evenly: pair index k leaves the source at
k * ``pair_interval_us``, one packet per client. Irregular send times, as
when probes ride a data flow, come from an imported log (`logio.import_log`)
instead: the estimator reads any sender column, because a send time cancels
in recv - send.

A session walks the ground-truth tree ``truth`` once, each node after its
parent; a node stands for the link from its parent, and the clients are
the leaves. A link's jitter row, constant delay, congestion noise variance
and survival probability start from those of its parent's link, so each
holds the total over the path from the source, and a client takes the
values of its access link. A link's probe load counts the clients below
it, in one reverse pass over the same walk. That takes O(links * pairs)
memory, and every float sum runs in path order from the source, so a log
does not depend on a BLAS library's summation order.

A session can begin before its network: `begin_session` needs only the
config and the stream. It makes the session's own generator (seeded by
config seed and stream, shared with no other session) and a jitter buffer
of as many rows as the network can have links (`truth_link_range`), or of
one row per link when the network is known. `SessionDraws.draw_rows` fills
the buffer's head rows with standard normals; it reads nothing but the
generator, so it may run on another thread while the network is generated
or grown. `simulate_session` reads the tree (the walk, the link order, each
link's jitter sigma), draws the rows not drawn yet, scales every row and
finishes the session with the generator's remaining draws, or begins the
session itself. A generator gives the same normals however a fill is
split, so the log is the same bit for bit in every case.

Background traffic scales every link's jitter variance linearly with the
configured rate, and pushes links over a utilization threshold into
congestion, which adds per-client independent noise and packet loss;
congestion is a session's only source of loss.
Utilization counts background rate plus the probe traffic itself, so small
pair intervals can congest heavily shared links. This reproduces the
qualitative extremes: almost no load means covariance gaps too small to
resolve against rho, heavy load destroys the back-to-back timing and drops
packets.

Fixed constants: Waxman growth at ``WAXMAN_BETA`` 0.2, ``LINKS_PER_NODE`` 2
earlier routers per new router; ``CLIENT_FRACTION`` 0.7 of hosts as clients;
link base delays from ``LINK_BASE_DELAY_US`` (200.0, 2000.0) us; links of
``BANDWIDTH_BPS`` 1e8 (100 Mbps) carrying probes of ``PACKET_SIZE_BYTES`` 200;
jitter variance scaled by the background rate over
``BG_REF_RATE_BYTES_PER_SEC`` 4e6; congestion past ``CONGESTION_THRESHOLD``
0.8 utilization, with noise variance ``CONGESTION_NOISE_GAIN`` 12.0 times
the jitter variance per unit of overshoot, and ``DROP_PROB`` 0.08 per packet.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, InvariantError
from .model import ROUTER_ID_PREFIX, TIMESTAMP_LIMIT_US, MeasurementLog, NodeId, RoutingTree, _finite

# rng stream tags so topology, sessions and growth draw independent streams
_STREAM_TOPOLOGY = 1
_STREAM_SESSION = 2
_STREAM_GROWTH = 3

# jitter is drawn at mean 5*sigma and clipped at zero: clip probability
# ~3e-7, so the configured variance survives to measurement precision
_JITTER_OFFSET_SIGMAS = 5.0
# numpy's ziggurat sampler draws no standard normal beyond about 13.7 in
# magnitude (its tail step takes the log of one 53-bit uniform); the delay
# bound takes a draw to lie within this many sigmas
_NORMAL_BOUND_SIGMAS = 64.0
_INT_FIELDS = ("n_hosts", "n_routers", "seed", "n_pairs", "pair_interval_us")

WAXMAN_BETA = 0.2
LINKS_PER_NODE = 2  # attachments per router during incremental growth
CLIENT_FRACTION = 0.7
LINK_BASE_DELAY_US = (200.0, 2000.0)
BANDWIDTH_BPS = 1e8
PACKET_SIZE_BYTES = 200
BG_REF_RATE_BYTES_PER_SEC = 4e6
CONGESTION_THRESHOLD = 0.8
CONGESTION_NOISE_GAIN = 12.0
DROP_PROB = 0.08

# a probe's transmission time on one link, as the session and the bound take it
_TRANS_US = PACKET_SIZE_BYTES * 8 / BANDWIDTH_BPS * 1e6


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimulatorConfig:
    """Simulation parameters; defaults mirror the desk-scale evaluation
    setup (150 hosts, 50 routers, 2000 pairs 30 ms apart, 4e6 B/s of
    background). Link physics is fixed (see the module docstring).

    Sessions send ``n_pairs`` pairs evenly, ``pair_interval_us`` apart
    (`sender_schedule`); a log with irregular send times is imported, not
    simulated.

    A scenario config's simulator section holds every field but ``seed``,
    which each run takes from the config's seeds (`scenarios`).

    Counts are integers, and the rate and the variance range's ends real
    numbers; a bool is neither. A config needs at least 3 hosts and 2
    pairs. It is refused (ConfigError) unless every timestamp its sessions
    can write stays below ``TIMESTAMP_LIMIT_US`` (2^62) in magnitude, the
    domain `MeasurementLog` accepts (see `_timestamp_bound_us`).
    """

    n_hosts: int = 150
    n_routers: int = 50
    seed: int = 0
    link_delay_var_ms2: tuple[float, float] = (0.5, 1.5)
    pair_interval_us: int = 30000
    n_pairs: int = 2000
    bg_rate_bytes_per_sec: float = 4e6

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not _is_real(self.bg_rate_bytes_per_sec):
            raise ConfigError(f"bg_rate_bytes_per_sec must be a number, got {self.bg_rate_bytes_per_sec!r}")
        var_range = self.link_delay_var_ms2
        # a JSON config gives it as a list
        if not isinstance(var_range, (tuple, list)) or len(var_range) != 2 or not all(map(_is_real, var_range)):
            raise ConfigError("link_delay_var_ms2 must be a (lo, hi) pair of numbers")
        object.__setattr__(self, "link_delay_var_ms2", tuple(var_range))
        # a covariance needs two receivers and two pairs; three hosts are
        # the fewest that make two clients
        for name, low in (("n_hosts", 3), ("n_routers", 1), ("seed", 0), ("n_pairs", 2)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        lo, hi = self.link_delay_var_ms2
        if lo < 0 or hi < lo:
            raise ConfigError("link_delay_var_ms2 must be a non-negative (lo, hi) range")
        if not (_finite(lo) and _finite(hi)):
            raise ConfigError("link_delay_var_ms2 must be a finite range")
        if self.pair_interval_us <= 0:
            raise ConfigError(f"pair_interval_us must be positive, got {self.pair_interval_us}")
        if self.bg_rate_bytes_per_sec < 0:
            raise ConfigError("bg_rate_bytes_per_sec must be non-negative")
        # NaN passes the comparison above, and so does an int past the float range
        if not _finite(self.bg_rate_bytes_per_sec):
            raise ConfigError("bg_rate_bytes_per_sec must be a finite number")
        bound = self._timestamp_bound_us()
        if not bound < TIMESTAMP_LIMIT_US:
            raise ConfigError(
                f"delays too large: a timestamp could reach {bound:.3g} us, past the exact int64 range (2^62 us)"
            )

    def _timestamp_bound_us(self) -> float:
        """Largest timestamp magnitude a session of a network of this config
        can write: the largest send time plus the largest one-way delay,
        taken as `simulate_session` takes it, with every link of the longest
        possible path (n_routers + 1 links) at the largest base delay and
        variance, congested under the probes of all n_hosts hosts, and every
        normal draw at `_NORMAL_BOUND_SIGMAS`. inf when a step overflows.
        Hosts that `grow_network` adds count only through n_hosts (see
        `scenarios._join_config`)."""
        try:
            overshoot = _overshoot(_link_load(self, self.n_hosts))
            var = self.link_delay_var_ms2[1] * self.bg_scale
            links = self.n_routers + 1
            reach = _JITTER_OFFSET_SIGMAS + _NORMAL_BOUND_SIGMAS
            per_link = LINK_BASE_DELAY_US[1] + _TRANS_US + reach * math.sqrt(var) * 1e3
            noise = reach * math.sqrt(links * var * CONGESTION_NOISE_GAIN * overshoot * 1e6)
            return (self.n_pairs - 1) * self.pair_interval_us + links * per_link + noise
        except OverflowError:
            return math.inf

    @property
    def n_clients(self) -> int:
        """Clients of the network `generate_topology` builds: ``CLIENT_FRACTION``
        of the hosts, rounded, and at most every host but the source."""
        return min(self.n_hosts - 1, round(CLIENT_FRACTION * self.n_hosts))

    @property
    def bg_scale(self) -> float:
        return self.bg_rate_bytes_per_sec / BG_REF_RATE_BYTES_PER_SEC

    def sender_schedule(self) -> np.ndarray:
        """Send time of each pair index: ``pair_interval_us`` apart from 0."""
        return np.arange(self.n_pairs, dtype=np.int64) * self.pair_interval_us


# The load model of `simulate_session` and the timestamp bound, in the
# session's float order, so that the bound takes the values a session takes.


def _link_load(config: SimulatorConfig, n_clients: int) -> float:
    """Utilization: background plus a probe per interval per client below."""
    probe_bits = PACKET_SIZE_BYTES * 8
    interval_s = config.pair_interval_us / 1e6
    return (config.bg_rate_bytes_per_sec * 8 + n_clients * probe_bits / interval_s) / BANDWIDTH_BPS


def _overshoot(load: float) -> float:
    """``load`` past `CONGESTION_THRESHOLD`, in units of the headroom above it; 0.0 below."""
    over = load - CONGESTION_THRESHOLD
    return over / (1.0 - CONGESTION_THRESHOLD) if over > 0 else 0.0


class SimulatedNetwork:
    """Ground-truth topology with per-link delay parameters.

    ``truth`` is the routing tree from the source to the clients, its router
    labels holding cumulative shared-path delay variance; the clients are
    its leaves. ``link_params`` maps each undirected link to (base delay us,
    effective jitter variance ms^2, already scaled by the configured
    background rate). The per-router paths serve only growth.
    """

    def __init__(self, source, truth, link_params, router_paths, host_seq):
        self.source: NodeId = source
        self.truth: RoutingTree = truth
        self.link_params: dict[tuple[NodeId, NodeId], tuple[float, float]] = link_params
        self._router_paths: dict[NodeId, tuple[NodeId, ...]] = router_paths
        self._host_seq = host_seq

    @property
    def clients(self) -> set[NodeId]:
        """The leaves of ``truth`` (the tree's own set: read, do not mutate)."""
        return self.truth.leaves

    @staticmethod
    def link_key(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
        return (u, v) if u <= v else (v, u)


def _waxman_router_graph(cfg: SimulatorConfig, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Incremental Waxman growth: routers placed uniformly in the unit
    square; each new router attaches to `LINKS_PER_NODE` earlier routers
    chosen with probability proportional to exp(-d/(beta*L)), L the largest
    distance. Every router but the first links to an earlier one, so the
    graph is connected by construction, which a flat Waxman trial at
    realistic beta almost never is at this size. Returns the links as
    (earlier router, new router) index pairs."""
    n = cfg.n_routers
    pos = rng.random((n, 2))
    diffs = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    span = float(dist.max())
    if span <= 0:
        span = 1.0
    edges: list[tuple[int, int]] = []
    for i in range(1, n):
        # every weight is at least exp(-1 / WAXMAN_BETA) > 0
        weights = np.exp(-dist[i, :i] / (WAXMAN_BETA * span))
        targets = rng.choice(i, size=min(LINKS_PER_NODE, i), replace=False, p=weights / weights.sum())
        edges.extend((int(t), i) for t in targets)
    return edges


def _shortest_paths(source: NodeId, links) -> dict[NodeId, tuple[NodeId, ...]]:
    """Lowest-weight path from ``source`` to every node it reaches over the
    undirected ``links``, (u, v, weight) triples. Ties resolve as in
    networkx's ``single_source_dijkstra_path``: neighbours in link order,
    heap ties by push order, and a path replaced only by a strictly shorter
    one."""
    adjacent: dict[NodeId, list[tuple[NodeId, float]]] = {}
    for u, v, weight in links:
        adjacent.setdefault(u, []).append((v, weight))
        adjacent.setdefault(v, []).append((u, weight))
    paths = {source: (source,)}
    best = {source: 0}
    done = set()
    pushes = itertools.count(1)
    heap = [(0, 0, source)]
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nbr, weight in adjacent.get(node, ()):
            alt = dist + weight
            if nbr not in done and (nbr not in best or alt < best[nbr]):
                best[nbr] = alt
                paths[nbr] = paths[node] + (nbr,)
                heapq.heappush(heap, (alt, next(pushes), nbr))
    return paths


def host_id(index: int, n_hosts: int) -> NodeId:
    """Generated id of host ``index`` in a network configured with
    ``n_hosts`` hosts: ``h`` and the index zero-padded to at least 4
    digits. Hosts added by `grow_network` continue the same sequence."""
    return f"h{index:0{max(4, len(str(n_hosts)))}d}"


def generate_topology(config: SimulatorConfig) -> SimulatedNetwork:
    """Build the ground-truth network for the configured seed: routers
    linked by Waxman growth, hosts on random routers, a random
    source host, and the lowest-latency routing tree to a random client
    subset. Deterministic given the seed."""
    rng = np.random.default_rng([config.seed, _STREAM_TOPOLOGY])
    router_ids = [f"{ROUTER_ID_PREFIX}{i}" for i in range(config.n_routers)]
    # sorted: each router's neighbours in ascending index order fix how
    # routes of equal latency tie
    router_links = [(router_ids[u], router_ids[v]) for u, v in sorted(_waxman_router_graph(config, rng))]
    hosts = [host_id(i, config.n_hosts) for i in range(config.n_hosts)]
    attach = rng.integers(config.n_routers, size=config.n_hosts)
    access_router = {h: router_ids[int(r)] for h, r in zip(hosts, attach)}

    source = hosts[int(rng.integers(config.n_hosts))]
    others = [h for h in hosts if h != source]
    clients = sorted(rng.choice(others, size=config.n_clients, replace=False).tolist())

    # per-link delay parameters in a fixed link order, in one draw: per link
    # a uniform base, then a uniform variance. The array draw reads the
    # stream in that order and computes low + (high - low) * u as a scalar
    # draw does, so each value is that of two scalar draws per link.
    links = sorted(SimulatedNetwork.link_key(a, b) for a, b in router_links + list(access_router.items()))
    draws = rng.uniform(
        (LINK_BASE_DELAY_US[0], config.link_delay_var_ms2[0]),
        (LINK_BASE_DELAY_US[1], config.link_delay_var_ms2[1]),
        size=(len(links), 2),
    )
    draws[:, 1] *= config.bg_scale
    link_params = dict(zip(links, map(tuple, draws.tolist())))

    # lowest-latency routing: hosts have degree 1, so they are never transit
    # and only the source's access link carries routes
    routed = router_links + [(source, access_router[source])]
    paths = _shortest_paths(source, [(u, v, link_params[SimulatedNetwork.link_key(u, v)][0]) for u, v in routed])
    router_paths = {r: paths[r] for r in router_ids}

    truth = _build_truth_tree(source, clients, access_router, router_paths, link_params)
    return SimulatedNetwork(
        source=source,
        truth=truth,
        link_params=link_params,
        router_paths=router_paths,
        host_seq=config.n_hosts,
    )


def truth_link_range(config: SimulatorConfig) -> tuple[int, int]:
    """Fewest and most links in the truth tree of `generate_topology(config)`.
    Each client has its own access link, and the source hangs below at least
    one router, so there are at least n_clients + 1; the nodes below the
    source are the clients and at most every router, so at most
    n_clients + n_routers."""
    return config.n_clients + 1, config.n_clients + config.n_routers


def _build_truth_tree(source, clients, access_router, router_paths, link_params) -> RoutingTree:
    tree = RoutingTree(source)
    for client in sorted(clients):
        path = router_paths[access_router[client]] + (client,)
        _extend_truth_path(tree, path, link_params)
    return tree


def _extend_truth_path(tree: RoutingTree, path, link_params) -> None:
    """Add the nodes of ``path`` (source first, client last) below the last
    one the tree already holds, checking only that junction's parent: the
    routes form one shortest-path tree, so the nodes above it are in place.
    A new router's label is its parent's plus its link's variance, and the
    root's is 0.0, so each label sums its path's variances in path order."""
    j = len(path) - 1
    while path[j] not in tree:
        j -= 1
    if j and tree.parent(path[j]) != path[j - 1]:
        raise InvariantError(f"routing paths disagree on parent of {path[j]!r}")
    for prev, node in zip(path[j:], path[j + 1 :]):
        if node == path[-1]:
            tree.add_leaf(node, prev)
        else:
            var = link_params[SimulatedNetwork.link_key(prev, node)][1]
            tree.add_router(prev, tree.router_cov[prev] + var, router_id=node)


def grow_network(net: SimulatedNetwork, config: SimulatorConfig, n_new_hosts: int, stream: int = 0):
    """Attach new client hosts to random routers, extending the ground truth
    in place. Returns the new host ids, generated by `host_id` in sequence
    after the network's own, so none is taken. Deterministic given
    (config.seed, stream)."""
    if n_new_hosts < 1:
        raise InputError(f"n_new_hosts must be >= 1, got {n_new_hosts}")
    hosts = [host_id(i, config.n_hosts) for i in range(net._host_seq, net._host_seq + n_new_hosts)]
    net._host_seq += n_new_hosts
    rng = np.random.default_rng([config.seed, _STREAM_GROWTH, stream])
    routers = sorted({r for r in net._router_paths})
    base_lo, base_hi = LINK_BASE_DELAY_US
    var_lo, var_hi = config.link_delay_var_ms2
    # a host's router draw comes between the previous host's link draws and
    # its own, so the links cannot share one array draw; an array draw of
    # one link's two values costs ~3x two scalar draws
    for host in hosts:
        router = routers[int(rng.integers(len(routers)))]
        base = float(rng.uniform(base_lo, base_hi))
        var = float(rng.uniform(var_lo, var_hi)) * config.bg_scale
        key = SimulatedNetwork.link_key(router, host)
        net.link_params[key] = (base, var)
        _extend_truth_path(net.truth, net._router_paths[router] + (host,), net.link_params)
    return hosts


def _offset_scale(draws: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Turn standard normal ``draws``, one row per entry of ``sigma``, in
    place into draws at mean 5*sigma and standard deviation sigma, clipped
    at zero: the arithmetic of ``rng.normal(5*sigma, sigma)``."""
    draws *= sigma[:, None]
    draws += (_JITTER_OFFSET_SIGMAS * sigma)[:, None]
    np.clip(draws, 0.0, None, out=draws)
    return draws


@dataclass(eq=False)
class SessionDraws:
    """A session's own generator, seeded by config seed and stream and shared
    with no other session, and its jitter buffer: a column per pair, and a
    row for each link the network can have, of which `simulate_session`
    keeps one per link it has. The first ``drawn`` rows hold standard
    normals. `begin_session` makes it from the config and the stream alone,
    so it can exist before the network."""

    config: SimulatorConfig
    stream: int
    rng: np.random.Generator
    jitter: np.ndarray | None
    drawn: int = 0

    def draw_rows(self, rows: int) -> None:
        """Fill the buffer's rows from ``drawn`` up to ``rows`` with standard
        normals. It reads nothing but the generator, so it may run on another
        thread. Refuses, before any draw, ``rows`` below ``drawn`` or past the
        buffer, and a buffer its session has taken."""
        if self.jitter is None or not self.drawn <= rows <= len(self.jitter):
            raise InputError(f"cannot draw up to row {rows}: below the rows drawn, past the buffer, or it is taken")
        self.rng.standard_normal(out=self.jitter[self.drawn : rows])
        self.drawn = rows


def begin_session(config: SimulatorConfig, rows: int, stream: int = 0) -> SessionDraws:
    """The part of a session that needs no network: its generator and a
    jitter buffer of ``rows`` rows, none drawn. Rows past the ones a
    network's links take are never written."""
    rng = np.random.default_rng([config.seed, _STREAM_SESSION, stream])
    return SessionDraws(config, stream, rng, np.empty((rows, config.n_pairs)))


def simulate_session(
    net: SimulatedNetwork, config: SimulatorConfig, stream: int = 0, *, begun: SessionDraws | None = None
) -> MeasurementLog:
    """Synthesize one measurement session over all current clients.

    Per pair index the sender emits one packet per client; a client's
    end-to-end delay sums, over its path links, base delay, transmission
    time and the link's shared jitter sample for that index, plus
    independent congestion noise. Congested links also drop packets, which
    shows up as missing arrivals; no other link loses any. Bit-identical for
    identical inputs.

    ``begun``, when given, is the `begin_session` of the same config and
    stream, with no more rows drawn than the network has links and room for
    all of them (`SessionDraws.draw_rows` refuses it otherwise); without it
    the session begins here.
    """
    truth = net.truth
    if not truth.leaves:
        raise InputError("network has no clients")
    # (node, parent) for every node below the source, breadth first (the
    # loop reads what it appends); a node is the far end of its parent's link
    walk = [(child, truth.root) for child in truth.children(truth.root)]
    for node, _ in walk:
        walk.extend((child, node) for child in truth.children(node))

    # shared per-(link, pair) jitter, one row per link in link-key order
    links = sorted((net.link_key(parent, node), node) for node, parent in walk)
    row = {node: i for i, (_, node) in enumerate(links)}
    sigma_us = np.array([math.sqrt(net.link_params[link][1]) * 1000.0 for link, _ in links])
    if begun is None:
        begun = begin_session(config, len(links), stream)
    elif begun.config != config or begun.stream != stream:
        raise InputError("begun session is of another config or stream")
    # refuses, before any draw, a buffer that does not fit the network
    begun.draw_rows(len(links))
    rng = begun.rng
    # the session's first draw, scaled; the session takes the buffer from
    # ``begun``, so that it is freed below
    jitter, begun.jitter = _offset_scale(begun.jitter[: len(links)], sigma_us), None
    clients = sorted(truth.leaves)
    schedule = config.sender_schedule()
    n = len(schedule)

    # a link's load counts the clients below it
    below = dict.fromkeys(truth.leaves, 1)
    for node, parent in reversed(walk):
        below[parent] = below.get(parent, 0) + below[node]

    # accumulated down the routing tree (see the module docstring)
    const_us = {truth.root: 0.0}
    noise_var_us2 = {truth.root: 0.0}
    survival = {truth.root: 1.0}
    for node, parent in walk:
        base, var = net.link_params[net.link_key(parent, node)]
        if parent != truth.root:
            jitter[row[node]] += jitter[row[parent]]
        const_us[node] = const_us[parent] + (base + _TRANS_US)
        noise, surv = noise_var_us2[parent], survival[parent]
        overshoot = _overshoot(_link_load(config, below[node]))
        if overshoot > 0:
            noise += var * CONGESTION_NOISE_GAIN * overshoot * 1e6
            surv *= 1.0 - DROP_PROB
        noise_var_us2[node], survival[node] = noise, surv

    # a client's values are those of its access link
    delays = jitter[[row[c] for c in clients]]
    del jitter
    delays += np.array([const_us[c] for c in clients])[:, None]
    noise_var = np.array([noise_var_us2[c] for c in clients])
    noisy = noise_var > 0
    if noisy.any():
        noise_sigma = np.sqrt(noise_var[noisy])
        delays[noisy] += _offset_scale(rng.standard_normal((len(noise_sigma), n)), noise_sigma)

    np.rint(delays, out=delays)
    arrivals_ts = delays.astype(np.int64)
    del delays
    arrivals_ts += schedule

    # the session's last draw, skipped when no link can drop a packet
    survival_c = np.array([survival[c] for c in clients])[:, None]
    if (survival_c < 1).any():
        present = rng.random((len(clients), n)) < survival_c
        arrivals_ts *= present
    else:
        present = np.ones((len(clients), n), bool)
    return MeasurementLog(clients, schedule, arrivals_ts, present)
