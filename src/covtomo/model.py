"""Core domain types shared by all modules, plus the topology queries used by
recovery and scoring.

Conventions used throughout the package:

* timestamps are integer microseconds, int64 and below
  ``TIMESTAMP_LIMIT_US`` (2^62 us, about 146,000 years) in magnitude, so
  the difference of any two is an exact int64. `MeasurementLog` refuses
  any other column, and the log reader any other ``ts_us``,
* covariances are reported in ms^2 (1 ms^2 == 10^6 us^2, conversion exact),
* node ids are plain strings; hosts and routers share one namespace.
  Router ids, the simulator's and those inference creates alike, are
  ``ROUTER_ID_PREFIX`` (``r``) followed by decimal digits (`is_router_id`).
  No host id lies in that namespace: generated hosts use ``h``, and
  `check_new_hosts` rejects names inside it for joining peers and for the
  leaves of a recovered tree.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InvariantError

NodeId = str

ROUTER_ID_PREFIX = "r"
TIMESTAMP_LIMIT_US = 2**62


def _finite(value) -> bool:
    """Whether ``value`` is a number with a finite float value (an integer
    past the float range has none)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# the types of a JSON number or null; float() and numpy would also read a
# bool and a numeric string as a number, which no tree or matrix file holds
_NUMBER_OR_NULL = frozenset((int, float, type(None)))


def is_router_id(node: NodeId) -> bool:
    """True when ``node`` is ``ROUTER_ID_PREFIX`` followed by decimal digits."""
    digits = node[len(ROUTER_ID_PREFIX) :]
    return node.startswith(ROUTER_ID_PREFIX) and digits.isascii() and digits.isdigit()


def check_new_hosts(names, existing) -> None:
    """Raise InputError unless ``names`` can join a tree that holds the
    host ids ``existing``: no name may be taken, look like a router id
    (`is_router_id`) or appear twice."""
    seen = set()
    for name in names:
        if name in existing:
            raise InputError(f"host {name!r} already exists")
        if is_router_id(name):
            raise InputError(f"host {name!r} is in the router-id namespace")
        if name in seen:
            raise InputError(f"host {name!r} appears more than once")
        seen.add(name)


class RoutingTree:
    """Rooted routing tree: the source host at the root, hosts at the leaves,
    routers in between.

    ``router_cov`` stores, for every internal router, the delay covariance
    (ms^2) accumulated along the shared path from the root down to that
    router; the root carries 0. Along every root-to-leaf path these labels
    are non-decreasing.

    ``_min_leaf`` maps every node with a leaf below it to the smallest leaf
    id under it (a leaf maps to itself); nodes without a leaf below are
    absent. No mutation removes a leaf, so a minimum only ever falls and
    every mutation keeps the map current: `add_leaf` walks up only while
    the new leaf is smaller, `insert_router_above` copies its node's entry,
    and `splice_router` drops the router's own. `min_leaf_under` reads it.

    The tree is mutable through a narrow set of operations, which build it
    and join peers to it; everything else treats instances as read-only.
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

    def min_leaf_under(self, node: NodeId) -> NodeId:
        """The smallest leaf id under ``node`` (``node`` itself if a leaf),
        read from ``_min_leaf`` without a walk. InputError for an unknown
        node or one without a leaf below."""
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

    def insert_router_above(self, node: NodeId, cov: float) -> NodeId:
        """Create a router in ``node``'s slot under its parent and re-hang
        ``node`` beneath it. ``node`` must not be the root."""
        parent = self.parent(node)
        if parent is None:
            raise InputError(f"cannot insert above the root {node!r}")
        rid = self.new_router_id()
        slot = self._children[parent].index(node)
        self._children[parent][slot] = rid
        self._children[rid] = [node]
        self._parent[rid] = parent
        self._parent[node] = rid
        self.router_cov[rid] = float(cov)
        if node in self._min_leaf:
            self._min_leaf[rid] = self._min_leaf[node]
        return rid

    def splice_router(self, router: NodeId) -> None:
        """Remove a router that has exactly one child, reattaching the child
        to the router's parent in the same slot."""
        if not self.is_router(router):
            raise InputError(f"{router!r} is not an internal router")
        kids = self._children[router]
        if len(kids) != 1:
            raise InputError(f"router {router!r} has {len(kids)} children, not one")
        parent = self._parent.pop(router)
        child = kids[0]
        self._children[parent][self._children[parent].index(router)] = child
        self._parent[child] = parent
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
        """Nested parent-child representation used by the JSON serializers, built without recursion."""
        entries = {
            node: {"id": node, "cov": None if node in self.leaves else self.router_cov.get(node, 0.0)}
            for node in self._children
        }
        for node, kids in self._children.items():
            entries[node]["children"] = [entries[c] for c in kids]
        return entries[self.root]

    @classmethod
    def from_dict(cls, data: dict) -> "RoutingTree":
        """The tree of a `to_dict` document; InputError for an id that is
        not a string, a root or router label that is not a finite number
        (a null or missing one reads as 0.0), or a router label below its
        parent's."""

        def node_id(entry: dict) -> NodeId:
            node = entry["id"]
            if not isinstance(node, str):
                raise InputError(f"node id {node!r} is not a string")
            return node

        def label(entry: dict) -> float:
            cov = entry.get("cov")
            if type(cov) not in _NUMBER_OR_NULL:
                raise InputError(f"node {entry['id']!r} has label {cov!r}, not a number")
            cov = float(cov or 0.0)
            if not math.isfinite(cov):
                raise InputError(f"node {entry['id']!r} has label {cov}, not finite")
            return cov

        tree = cls(node_id(data))
        tree.router_cov[tree.root] = label(data)

        def build(parent: NodeId, entries: list[dict]) -> None:
            for entry in entries:
                node = node_id(entry)
                kids = entry.get("children") or []
                if kids:
                    cov = label(entry)
                    if cov < tree.router_cov[parent]:
                        raise InputError(f"covariance label decreases from {parent!r} to {node!r}")
                    tree.add_router(parent, cov, router_id=node)
                    build(node, kids)
                else:
                    tree.add_leaf(node, parent)

        build(tree.root, data.get("children") or [])
        return tree


# ----------------------------------------------------------------------
# measurement-side types


class _Timestamps(Mapping):
    """Read-only {pair index: timestamp} view of one log row. Indices where
    ``present`` is False are absent."""

    __slots__ = ("_ts", "_present", "_len")

    def __init__(self, ts: np.ndarray, present: np.ndarray, count: int):
        self._ts = ts
        self._present = present
        self._len = count

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)) and 0 <= k < len(self._ts) and self._present[k]:
            return int(self._ts[k])
        raise KeyError(k)

    def __iter__(self):
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
        return _Timestamps(log.recv[i], log.present[i], log.counts[i])

    def __iter__(self):
        return iter(self._log.ids)

    def __len__(self) -> int:
        return len(self._log.ids)


_OUT_OF_RANGE = "timestamps must lie strictly between -2^62 and 2^62 us"


class MeasurementLog:
    """Per-session packet-pair timestamps, stored as columns.

    * ``ids``: the receivers, sorted, one row each;
    * ``sender[k]``: the time (us) the k-th packet pair left the sender;
    * ``recv[i, k]``: the time (us) pair k arrived at ``ids[i]``, and
      ``present[i, k]`` (bool) False where that packet was lost, in which
      case ``recv[i, k]`` holds 0;
    * ``counts``: a tuple of each receiver's number of arrivals, taken at
      construction.

    ``sender`` is the send schedule, evenly spaced or not: the pairs ride on
    a data flow. ``sender`` and ``recv`` are int64 with every value below
    ``TIMESTAMP_LIMIT_US`` in magnitude, and ``present`` is bool; other
    columns raise InputError.
    The arrays are read-only.

    ``arrivals`` ({receiver: {k: ts}}) is a read-only Mapping view over
    the rows, for readers of the dict form; the package reads the columns.
    It copies nothing: ``len(log.arrivals[r])`` reads ``counts``. The view
    is built each time it is read, so a log never references itself and
    is freed by reference counting as soon as its last reader drops it,
    without waiting for the cyclic garbage collector.
    """

    def __init__(self, ids, sender, recv, present):
        self.ids = tuple(ids)
        if list(self.ids) != sorted(set(self.ids)):
            raise InputError("receiver ids must be sorted and distinct")
        shape = (len(self.ids), len(sender))
        if sender.ndim != 1 or recv.shape != shape or present.shape != shape:
            raise InputError("log columns do not match the receivers and the sender column")
        for column in (sender, recv):
            if column.dtype != np.int64:
                raise InputError(f"timestamps must be int64, got {column.dtype}")
            if column.size and not (-TIMESTAMP_LIMIT_US < column.min() and column.max() < TIMESTAMP_LIMIT_US):
                raise InputError(_OUT_OF_RANGE)
        if present.dtype != bool:
            raise InputError(f"presence must be bool, got {present.dtype}")
        for column in (sender, recv, present):
            column.flags.writeable = False
        self.sender = sender
        self.recv = recv
        self.present = present
        self.receivers = frozenset(self.ids)
        self._row = {r: i for i, r in enumerate(self.ids)}
        self.counts = tuple(present.sum(axis=1).tolist())

    @property
    def arrivals(self) -> Mapping:
        return _Arrivals(self)

    @property
    def n_pairs(self) -> int:
        return len(self.sender)

    def row(self, receiver: NodeId) -> int:
        try:
            return self._row[receiver]
        except KeyError:
            raise InputError(f"unknown receiver {receiver!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurementLog):
            return NotImplemented
        return (
            self.ids == other.ids
            and np.array_equal(self.sender, other.sender)
            and np.array_equal(self.present, other.present)
            and np.array_equal(self.recv[self.present], other.recv[other.present])
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"MeasurementLog({len(self.ids)} receivers, n_pairs={self.n_pairs})"

    def validate(self) -> None:
        if self.n_pairs < 1:
            raise InvariantError("log holds no packet pairs")
        sender = self.sender.tolist()
        for k in range(1, self.n_pairs):
            if sender[k] <= sender[k - 1]:
                raise InvariantError(f"sender timestamps not strictly increasing at k={k}")
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
    ordered list of distinct receivers. The constructor refuses a repeated
    receiver, a shape that does not match, or an entry unequal to its
    mirror (a NaN whose mirror is NaN is equal), so recovery, which reads
    one triangle, never meets an asymmetric matrix."""

    receivers: tuple[NodeId, ...]
    values: np.ndarray
    _index: dict[NodeId, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {r: i for i, r in enumerate(self.receivers)})
        if len(self._index) != len(self.receivers):
            repeated = next(r for i, r in enumerate(self.receivers) if self._index[r] != i)
            raise InputError(f"receiver {repeated!r} appears more than once")
        if self.values.shape != (len(self.receivers), len(self.receivers)):
            raise InputError("covariance matrix shape does not match receiver list")
        v = self.values
        if not (v == v.T).all():
            # NaN is unequal to itself: a NaN whose mirror is NaN is symmetric
            bad = np.argwhere((v != v.T) & ~(np.isnan(v) & np.isnan(v.T)))
            if len(bad):
                # the first unequal pair lies above the diagonal: its mirror's row comes later
                i, j = bad[0]
                names = self.receivers
                raise InputError(
                    f"entry ({names[i]!r}, {names[j]!r}) is {v[i, j]} but "
                    f"({names[j]!r}, {names[i]!r}) is {v[j, i]}: not symmetric"
                )

    def index(self, receiver: NodeId) -> int:
        try:
            return self._index[receiver]
        except KeyError:
            raise InputError(f"unknown receiver {receiver!r}") from None

    def get(self, a: NodeId, b: NodeId) -> float:
        return float(self.values[self.index(a), self.index(b)])

    def validate(self) -> None:
        if not np.array_equal(self.values, self.values.T):
            raise InvariantError("covariance matrix is not exactly symmetric")
        if np.any(np.diag(self.values) < 0):
            raise InvariantError("negative variance on the diagonal")

    def to_dict(self) -> dict:
        return {
            "receivers": list(self.receivers),
            "values": self.values.astype(float).tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CovarianceMatrix":
        """The matrix of a JSON document; InputError when the receivers are
        not a list of strings, or on the first entry, in row-major order,
        that is not a number (a null reads as NaN) or is not finite, then
        as the constructor refuses the matrix: a repeated receiver, a shape
        that does not match, or the first entry that differs from its
        mirror."""
        receivers = data["receivers"]
        if not isinstance(receivers, list) or not all(isinstance(r, str) for r in receivers):
            raise InputError("receivers must be a list of strings")
        values = np.asarray(data["values"], dtype=float)
        if values.shape == (len(receivers), len(receivers)):
            # the shape matches, so the rows are lists of n scalars
            for i, row in enumerate(data["values"]):
                if not _NUMBER_OR_NULL.issuperset(map(type, row)):
                    j, value = next((j, v) for j, v in enumerate(row) if type(v) not in _NUMBER_OR_NULL)
                    raise InputError(f"entry ({receivers[i]!r}, {receivers[j]!r}) is {value!r}, not a number")
            bad = np.argwhere(~np.isfinite(values))
            if len(bad):
                i, j = bad[0]
                raise InputError(f"entry ({receivers[i]!r}, {receivers[j]!r}) is {values[i, j]}, not finite")
        return cls(tuple(receivers), values)


# ----------------------------------------------------------------------
# topology queries


def branching_skeleton(tree: RoutingTree) -> RoutingTree:
    """Copy of the tree with every single-child router spliced out. This is
    the maximal structure identifiable from leaf covariances: a chain of
    routers without branching is invisible to them."""
    skel = tree.copy()
    for node in list(skel.nodes()):
        if node in skel and skel.is_router(node) and len(skel.children(node)) == 1:
            skel.splice_router(node)
    return skel


def _canonical_form(tree: RoutingTree, shapes: dict) -> int:
    """Id of the tree's shape below its root, without recursion. ``shapes``
    numbers each shape seen so far, keyed by a leaf's id or by the sorted
    shape ids of a router's children, so two trees read with one ``shapes``
    get equal ids iff some relabeling of routers makes them identical."""
    order = [tree.root]
    for node in order:
        order.extend(tree.children(node))
    ids: dict[NodeId, int] = {}
    # children before their parent
    for node in reversed(order):
        key = node if tree.is_leaf(node) else tuple(sorted(ids.pop(c) for c in tree.children(node)))
        ids[node] = shapes.setdefault(key, len(shapes))
    return ids[tree.root]


def trees_topologically_equal(t1: RoutingTree, t2: RoutingTree) -> bool:
    """True iff some relabeling of internal routers makes the trees identical
    once single-child routers are suppressed on both sides."""
    if t1.leaves != t2.leaves:
        raise InputError("trees have different leaf sets")
    if t1.root != t2.root:
        raise InputError("trees have different roots")
    shapes: dict = {}
    return _canonical_form(branching_skeleton(t1), shapes) == _canonical_form(branching_skeleton(t2), shapes)
