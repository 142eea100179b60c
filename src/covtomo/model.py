"""Core domain types shared by all modules, plus the topology queries used by
recovery and scoring.

Conventions used throughout the package:

* timestamps are integer microseconds,
* covariances are reported in ms^2 (1 ms^2 == 10^6 us^2, conversion exact),
* node ids are plain strings; hosts and routers share one namespace, and
  synthetic router ids created during inference carry the ``r`` prefix so
  they can never collide with host ids (hosts use other prefixes, e.g. ``h``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InvariantError

NodeId = str

ROUTER_ID_PREFIX = "r"


class RoutingTree:
    """Rooted routing tree: the source host at the root, hosts at the leaves,
    routers in between.

    ``router_cov`` stores, for every internal router, the delay covariance
    (ms^2) accumulated along the shared path from the root down to that
    router; the root carries 0. Along every root-to-leaf path these labels
    are non-decreasing.

    ``_min_leaf`` maps every node with a leaf below it to the smallest leaf
    id under it (a leaf maps to itself); nodes without a leaf below are
    absent. Every mutation keeps it current: `add_leaf` walks up only while
    the new leaf is smaller, and `remove_leaf` rescans the children of only
    those ancestors whose minimum it was. `min_leaf_under` reads it.

    The tree is mutable through a narrow set of operations (used by the
    incremental tomography); everything else treats instances as read-only.
    Mutation is single-writer: concurrent readers are safe only between
    mutations.
    """

    def __init__(self, root: NodeId):
        self.root = root
        self._children: dict[NodeId, list[NodeId]] = {root: []}
        self._parent: dict[NodeId, NodeId] = {}
        self.router_cov: dict[NodeId, float] = {root: 0.0}
        self.leaves: set[NodeId] = set()
        self._min_leaf: dict[NodeId, NodeId] = {}
        self._router_seq = 1

    # ------------------------------------------------------------------
    # queries

    def __contains__(self, node: NodeId) -> bool:
        return node in self._children

    def nodes(self) -> list[NodeId]:
        return list(self._children)

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        try:
            return tuple(self._children[node])
        except KeyError:
            raise InputError(f"unknown node {node!r}") from None

    def parent(self, node: NodeId) -> NodeId | None:
        if node not in self._children:
            raise InputError(f"unknown node {node!r}")
        return self._parent.get(node)

    def is_leaf(self, node: NodeId) -> bool:
        return node in self.leaves

    def is_router(self, node: NodeId) -> bool:
        return node in self._children and node != self.root and node not in self.leaves

    def ancestors(self, node: NodeId) -> list[NodeId]:
        """Ancestors of ``node`` ordered parent first, root last."""
        out = []
        cur = self.parent(node)
        while cur is not None:
            out.append(cur)
            cur = self._parent.get(cur)
        return out

    def path_from_root(self, node: NodeId) -> list[NodeId]:
        path = self.ancestors(node)
        path.reverse()
        path.append(node)
        return path

    def depth_links(self, node: NodeId) -> int:
        return len(self.ancestors(node))

    def lca(self, i: NodeId, j: NodeId) -> NodeId:
        seen = {i}
        seen.update(self.ancestors(i))
        cur = j
        while cur not in seen:
            nxt = self._parent.get(cur)
            if nxt is None:
                raise InvariantError(f"{i!r} and {j!r} have no common ancestor")
            cur = nxt
        return cur

    def leaves_under(self, node: NodeId) -> list[NodeId]:
        """All leaf descendants of ``node`` (including ``node`` itself if a leaf)."""
        out = []
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur in self.leaves:
                out.append(cur)
            else:
                stack.extend(reversed(self._children[cur]))
        return out

    def min_leaf_under(self, node: NodeId) -> NodeId:
        """The smallest leaf id under ``node`` (``node`` itself if a leaf),
        equal to ``min(self.leaves_under(node))`` without the walk."""
        if node not in self._children:
            raise InputError(f"unknown node {node!r}")
        try:
            return self._min_leaf[node]
        except KeyError:
            raise InputError(f"no leaf under {node!r}") from None

    def new_router_id(self) -> NodeId:
        while True:
            candidate = f"{ROUTER_ID_PREFIX}{self._router_seq}"
            self._router_seq += 1
            if candidate not in self._children:
                return candidate

    # ------------------------------------------------------------------
    # mutation

    def add_leaf(self, leaf: NodeId, parent: NodeId) -> None:
        if leaf in self._children:
            raise InputError(f"node {leaf!r} already in tree")
        if parent not in self._children:
            raise InputError(f"unknown parent {parent!r}")
        if parent in self.leaves:
            raise InputError(f"cannot attach under leaf {parent!r}")
        self._children[leaf] = []
        self._children[parent].append(leaf)
        self._parent[leaf] = parent
        self.leaves.add(leaf)
        self._min_leaf[leaf] = leaf
        # an ancestor whose minimum is already smaller bounds all above it
        node = parent
        while node is not None and self._min_leaf.get(node, leaf) >= leaf:
            self._min_leaf[node] = leaf
            node = self._parent.get(node)

    def add_router(self, parent: NodeId, cov: float, router_id: NodeId | None = None) -> NodeId:
        if parent not in self._children:
            raise InputError(f"unknown parent {parent!r}")
        if parent in self.leaves:
            raise InputError(f"cannot attach under leaf {parent!r}")
        rid = router_id if router_id is not None else self.new_router_id()
        if rid in self._children:
            raise InputError(f"node {rid!r} already in tree")
        self._children[rid] = []
        self._children[parent].append(rid)
        self._parent[rid] = parent
        self.router_cov[rid] = float(cov)
        return rid

    def insert_router_above(self, node: NodeId, cov: float, router_id: NodeId | None = None) -> NodeId:
        """Create a router in ``node``'s slot under its parent and re-hang
        ``node`` beneath it. ``node`` must not be the root."""
        parent = self.parent(node)
        if parent is None:
            raise InputError(f"cannot insert above the root {node!r}")
        rid = router_id if router_id is not None else self.new_router_id()
        if rid in self._children:
            raise InputError(f"node {rid!r} already in tree")
        slot = self._children[parent].index(node)
        self._children[parent][slot] = rid
        self._children[rid] = [node]
        self._parent[rid] = parent
        self._parent[node] = rid
        self.router_cov[rid] = float(cov)
        if node in self._min_leaf:
            self._min_leaf[rid] = self._min_leaf[node]
        return rid

    def remove_leaf(self, leaf: NodeId) -> None:
        if leaf not in self.leaves:
            raise InputError(f"{leaf!r} is not a leaf of the tree")
        parent = self._parent.pop(leaf)
        self._children[parent].remove(leaf)
        del self._children[leaf]
        self.leaves.discard(leaf)
        del self._min_leaf[leaf]
        # only ancestors whose minimum was this leaf change
        node = parent
        while node is not None and self._min_leaf.get(node) == leaf:
            rest = [self._min_leaf[c] for c in self._children[node] if c in self._min_leaf]
            if rest:
                self._min_leaf[node] = min(rest)
            else:
                del self._min_leaf[node]
            node = self._parent.get(node)

    def splice_router(self, router: NodeId) -> None:
        """Remove a router that has at most one child, reattaching the child
        (if any) to the router's parent in the same slot."""
        if not self.is_router(router):
            raise InputError(f"{router!r} is not an internal router")
        kids = self._children[router]
        if len(kids) > 1:
            raise InputError(f"router {router!r} still has {len(kids)} children")
        parent = self._parent.pop(router)
        slot = self._children[parent].index(router)
        if kids:
            child = kids[0]
            self._children[parent][slot] = child
            self._parent[child] = parent
        else:
            self._children[parent].pop(slot)
        del self._children[router]
        self.router_cov.pop(router, None)
        self._min_leaf.pop(router, None)

    def copy(self) -> "RoutingTree":
        dup = RoutingTree(self.root)
        dup._children = {n: list(c) for n, c in self._children.items()}
        dup._parent = dict(self._parent)
        dup.router_cov = dict(self.router_cov)
        dup.leaves = set(self.leaves)
        dup._min_leaf = dict(self._min_leaf)
        dup._router_seq = self._router_seq
        return dup

    # ------------------------------------------------------------------
    # validation / serialization

    def validate(self) -> None:
        """Check structural invariants, raising InvariantError on violation."""
        seen = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in seen:
                raise InvariantError(f"node {node!r} reached twice (cycle or duplicate edge)")
            seen.add(node)
            kids = self._children.get(node)
            if kids is None:
                raise InvariantError(f"node {node!r} missing from children map")
            for c in kids:
                if self._parent.get(c) != node:
                    raise InvariantError(f"parent map inconsistent at {c!r}")
                stack.append(c)
        if seen != set(self._children):
            raise InvariantError("tree is not connected: unreachable nodes exist")
        for node in seen:
            if node == self.root:
                continue
            if node in self.leaves:
                if self._children[node]:
                    raise InvariantError(f"leaf {node!r} has children")
            else:
                if not self._children[node]:
                    raise InvariantError(f"router {node!r} has no children")
                if node not in self.router_cov:
                    raise InvariantError(f"router {node!r} has no covariance label")
                parent = self._parent[node]
                parent_cov = self.router_cov.get(parent, 0.0)
                if self.router_cov[node] < parent_cov:
                    raise InvariantError(
                        f"covariance label decreases from {parent!r} to {node!r}"
                    )

    def to_dict(self) -> dict:
        """Nested parent-child representation used by the JSON serializers."""

        def build(node: NodeId) -> dict:
            entry: dict = {"id": node}
            if node in self.leaves:
                entry["cov"] = None
            else:
                entry["cov"] = self.router_cov.get(node, 0.0)
            entry["children"] = [build(c) for c in self._children[node]]
            return entry

        return build(self.root)

    @classmethod
    def from_dict(cls, data: dict) -> "RoutingTree":
        tree = cls(data["id"])
        tree.router_cov[tree.root] = float(data.get("cov") or 0.0)

        def build(parent: NodeId, entries: list[dict]) -> None:
            for entry in entries:
                node = entry["id"]
                kids = entry.get("children") or []
                if kids:
                    tree.add_router(parent, float(entry.get("cov") or 0.0), router_id=node)
                    build(node, kids)
                else:
                    tree.add_leaf(node, parent)

        build(tree.root, data.get("children") or [])
        return tree


# ----------------------------------------------------------------------
# measurement-side types


class _Timestamps(Mapping):
    """Read-only {pair index: timestamp} view of one log column. Indices
    where ``present`` is False are absent; ``present=None`` means none is."""

    __slots__ = ("_ts", "_present", "_len")

    def __init__(self, ts: np.ndarray, present: np.ndarray | None, count: int):
        self._ts = ts
        self._present = present
        self._len = count

    def __getitem__(self, k):
        if (
            isinstance(k, (int, np.integer))
            and 0 <= k < len(self._ts)
            and (self._present is None or self._present[k])
        ):
            return int(self._ts[k])
        raise KeyError(k)

    def __iter__(self):
        if self._present is None:
            return iter(range(len(self._ts)))
        return iter(np.flatnonzero(self._present).tolist())

    def __len__(self) -> int:
        return self._len


class _Arrivals(Mapping):
    """Read-only {receiver: {pair index: arrival}} view of a log's rows."""

    __slots__ = ("_log",)

    def __init__(self, log: "MeasurementLog"):
        self._log = log

    def __getitem__(self, receiver):
        log = self._log
        i = log._row[receiver]
        return _Timestamps(log.recv[i], log.present[i], log._counts[i])

    def __iter__(self):
        return iter(self._log.ids)

    def __len__(self) -> int:
        return len(self._log.ids)


class MeasurementLog:
    """Per-session packet-pair timestamps, stored as columns.

    * ``ids``: the receivers, sorted, one row each;
    * ``sender[k]``: the time (us) the k-th packet pair left the sender;
    * ``recv[i, k]``: the time (us) pair k arrived at ``ids[i]``, and
      ``present[i, k]`` (bool) False where that packet was lost, in which
      case ``recv[i, k]`` holds 0.

    ``sender`` and ``recv`` are int64 when every timestamp fits int64 and
    dtype=object arrays of Python ints otherwise. ``interval_us`` is the
    fixed inter-pair spacing, or None when the sender schedule is irregular
    and must be read from the timestamps themselves. The arrays are
    read-only. Logs built from dicts go through `from_dicts`.

    ``sender_ts`` ({k: ts}) and ``arrivals`` ({receiver: {k: ts}}) are
    read-only Mapping views over the columns. They copy nothing:
    ``len(log.arrivals[r])`` is a per-row count taken at construction.
    """

    def __init__(self, ids, sender, recv, present, interval_us: int | None = None):
        self.ids = tuple(ids)
        if list(self.ids) != sorted(set(self.ids)):
            raise InputError("receiver ids must be sorted and distinct")
        shape = (len(self.ids), len(sender))
        if sender.ndim != 1 or recv.shape != shape or present.shape != shape:
            raise InputError("log columns do not match the receivers and the sender column")
        for column in (sender, recv, present):
            column.flags.writeable = False
        self.sender = sender
        self.recv = recv
        self.present = present
        self.interval_us = interval_us
        self.receivers = frozenset(self.ids)
        self._row = {r: i for i, r in enumerate(self.ids)}
        self._counts = present.sum(axis=1).tolist()
        self.sender_ts = _Timestamps(sender, None, len(sender))
        self.arrivals = _Arrivals(self)

    @classmethod
    def from_dicts(cls, sender_ts, arrivals, interval_us: int | None = None) -> "MeasurementLog":
        """Log from ``sender_ts`` ({k: ts} over k = 0..n-1) and ``arrivals``
        ({receiver: {k: ts}}; a missing k is a lost packet).

        Raises InvariantError when the sender indices are not 0..n-1 or an
        arrival names an index outside them.
        """
        n = len(sender_ts)
        if sorted(sender_ts) != list(range(n)):
            raise InvariantError("sender timestamps must cover pair indices 0..n-1")
        ids = sorted(arrivals)
        rows = []
        for r in ids:
            entries = arrivals[r]
            keys = list(entries)
            if keys and (min(keys) < 0 or max(keys) >= n):
                k = next(k for k in keys if not 0 <= k < n)
                raise InvariantError(f"arrival for unknown pair index {k} at {r!r}")
            rows.append((np.array(keys, dtype=np.intp), list(entries.values())))
        present = np.zeros((len(ids), n), dtype=bool)
        for i, (keys, _) in enumerate(rows):
            present[i, keys] = True

        def columns(dtype):
            recv = np.zeros((len(ids), n), dtype=dtype)
            for i, (keys, ts) in enumerate(rows):
                recv[i, keys] = ts
            return np.array([sender_ts[k] for k in range(n)], dtype=dtype), recv

        try:
            sender, recv = columns(np.int64)
        except OverflowError:
            sender, recv = columns(object)
        return cls(ids, sender, recv, present, interval_us)

    @property
    def n_pairs(self) -> int:
        return len(self.sender)

    @property
    def fixed_mode(self) -> bool:
        return self.interval_us is not None

    def row(self, receiver: NodeId) -> int:
        try:
            return self._row[receiver]
        except KeyError:
            raise InputError(f"unknown receiver {receiver!r}") from None

    def arrival(self, receiver: NodeId, k: int) -> int | None:
        return self.arrivals[receiver].get(k) if receiver in self._row else None

    def present_indices(self, receiver: NodeId) -> list[int]:
        return list(self.arrivals[receiver]) if receiver in self._row else []

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurementLog):
            return NotImplemented
        return (
            self.ids == other.ids
            and self.interval_us == other.interval_us
            and np.array_equal(self.sender, other.sender)
            and np.array_equal(self.present, other.present)
            and np.array_equal(self.recv[self.present], other.recv[other.present])
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"MeasurementLog({len(self.ids)} receivers, n_pairs={self.n_pairs}, "
            f"interval_us={self.interval_us})"
        )

    def validate(self) -> None:
        if self.n_pairs < 1:
            raise InvariantError("log holds no packet pairs")
        sender = self.sender.tolist()
        for k in range(1, self.n_pairs):
            if sender[k] <= sender[k - 1]:
                raise InvariantError(f"sender timestamps not strictly increasing at k={k}")
        if self.fixed_mode:
            for k in range(self.n_pairs):
                if sender[k] - sender[0] != k * self.interval_us:
                    raise InvariantError(f"fixed-interval contract broken at k={k}")
        early = np.argwhere(self.present & (self.recv < self.sender))
        if len(early):
            i, k = early[0].tolist()
            raise InvariantError(f"arrival before send for ({self.ids[i]!r}, k={k})")


@dataclass(frozen=True)
class DelaySeries:
    """Normalized delay-offset series for one receiver over an aligned set of
    pair indices; the first entry is 0 by construction."""

    receiver: NodeId
    indices: tuple[int, ...]
    values: tuple

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric matrix of pairwise path-delay covariances (ms^2) over an
    ordered list of receivers."""

    receivers: tuple[NodeId, ...]
    values: np.ndarray
    _index: dict[NodeId, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {r: i for i, r in enumerate(self.receivers)})
        if self.values.shape != (len(self.receivers), len(self.receivers)):
            raise InputError("covariance matrix shape does not match receiver list")

    def index(self, receiver: NodeId) -> int:
        try:
            return self._index[receiver]
        except KeyError:
            raise InputError(f"unknown receiver {receiver!r}") from None

    def get(self, a: NodeId, b: NodeId) -> float:
        return float(self.values[self.index(a), self.index(b)])

    def restrict(self, receivers) -> "CovarianceMatrix":
        ids = tuple(receivers)
        idx = [self.index(r) for r in ids]
        return CovarianceMatrix(ids, self.values[np.ix_(idx, idx)])

    def validate(self) -> None:
        if not np.array_equal(self.values, self.values.T):
            raise InvariantError("covariance matrix is not exactly symmetric")
        if np.any(np.diag(self.values) < 0):
            raise InvariantError("negative variance on the diagonal")

    def to_dict(self) -> dict:
        return {
            "receivers": list(self.receivers),
            "values": [[float(v) for v in row] for row in self.values],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CovarianceMatrix":
        return cls(tuple(data["receivers"]), np.asarray(data["values"], dtype=float))


# ----------------------------------------------------------------------
# topology queries


def _require_leaf(tree: RoutingTree, node: NodeId) -> None:
    if node not in tree:
        raise InputError(f"unknown leaf id {node!r}")
    if not tree.is_leaf(node):
        raise InputError(f"{node!r} is not a leaf")


def shared_path_length(tree: RoutingTree, i: NodeId, j: NodeId) -> int:
    """Number of links on the path from the root to the lowest common
    ancestor of two distinct leaves (0 when their paths split at the root)."""
    _require_leaf(tree, i)
    _require_leaf(tree, j)
    if i == j:
        raise InputError("shared_path_length needs two distinct leaves")
    return tree.depth_links(tree.lca(i, j))


def shared_covariance(tree: RoutingTree, i: NodeId, j: NodeId) -> float:
    """Covariance implied by the tree's router labels for a leaf pair: the
    label of their lowest common ancestor. Exact when labels hold cumulative
    shared-path delay variance, as in simulator ground truth."""
    _require_leaf(tree, i)
    _require_leaf(tree, j)
    if i == j:
        raise InputError("shared_covariance needs two distinct leaves")
    return tree.router_cov[tree.lca(i, j)]


def covariance_matrix_from_tree(tree: RoutingTree, receivers=None) -> CovarianceMatrix:
    """Analytic covariance matrix for the tree's leaves. Off-diagonal entries
    come from shared_covariance; the diagonal holds the label of each leaf's
    parent (the leaf's own last-hop variance is unidentifiable from pair
    covariances and never read by the inference)."""
    ids = tuple(sorted(tree.leaves) if receivers is None else receivers)
    n = len(ids)
    values = np.zeros((n, n), dtype=float)
    for a in range(n):
        parent = tree.parent(ids[a])
        values[a, a] = tree.router_cov.get(parent, 0.0)
        for b in range(a + 1, n):
            cov = shared_covariance(tree, ids[a], ids[b])
            values[a, b] = cov
            values[b, a] = cov
    return CovarianceMatrix(ids, values)


def branching_skeleton(tree: RoutingTree) -> RoutingTree:
    """Copy of the tree with every single-child router spliced out. This is
    the maximal structure identifiable from leaf covariances: a chain of
    routers without branching is invisible to them."""
    skel = tree.copy()
    for node in list(skel.nodes()):
        if node in skel and skel.is_router(node) and len(skel.children(node)) == 1:
            skel.splice_router(node)
    return skel


def _canonical_form(tree: RoutingTree, node: NodeId):
    if tree.is_leaf(node):
        return ("leaf", node)
    return ("node", tuple(sorted(_canonical_form(tree, c) for c in tree.children(node))))


def trees_topologically_equal(t1: RoutingTree, t2: RoutingTree) -> bool:
    """True iff some relabeling of internal routers makes the trees identical
    once single-child routers are suppressed on both sides."""
    if t1.leaves != t2.leaves:
        raise InputError("trees have different leaf sets")
    if t1.root != t2.root:
        raise InputError("trees have different roots")
    s1 = branching_skeleton(t1)
    s2 = branching_skeleton(t2)
    return _canonical_form(s1, s1.root) == _canonical_form(s2, s2.root)
