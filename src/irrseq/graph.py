"""Functional graph of the halving map on the projective line over F_q.

For desk-scale q the whole graph is materialized: every point of
P^1(F_q) = F_q + {infinity} gets an index, the successor table applies
x -> (x + 1/x)/2 (with 0 and infinity mapped to infinity), and a reverse
breadth-first pass labels each node with its distance to the periodic
set and the periodic root of its tree.  On top of that the module
verifies the reversed-binary-tree shape of the hanging trees, checks the
pointwise conjugacy with the squaring map, and exports deterministic
DOT text.

Field elements are enumerated lexicographically by coordinate vector
(c0 first), with infinity as the last index, so output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _arith
from .errors import InternalInvariantError
from .extfield import ExtField, coords_str
from .fp import nu2, require_odd_prime

GRAPH_LIMIT = 1 << 20


class _FieldOps:
    """Indexed arithmetic for F_q used by graph construction.

    Indices enumerate coordinate vectors (c0, ..., c_{n-1})
    lexicographically, i.e. idx = c0 * p^(n-1) + ... + c_{n-1}.
    """

    def __init__(self, p: int, n: int, ctx):
        self.p = p
        self.n = n
        self.q = p ** n
        self._ctx = ctx
        self._weights = [p ** (n - 1 - i) for i in range(n)]
        self._inv = None
        # cache coordinate vectors only while the table stays small
        self._coords = ([self._digits(i) for i in range(self.q)]
                        if 1 < n and self.q <= (1 << 16) else None)

    def _digits(self, idx: int) -> list[int]:
        out = []
        for w in self._weights:
            out.append(idx // w)
            idx %= w
        return out

    def coords(self, idx: int) -> list[int]:
        """Coordinate vector, ascending degree (constant coordinate first)."""
        if self.n == 1:
            return [idx]
        if self._coords is not None:
            return self._coords[idx]
        return self._digits(idx)

    def index(self, coords: list[int]) -> int:
        return sum(c * w for c, w in zip(coords, self._weights))

    def label(self, idx: int) -> str:
        if self.n == 1:
            return str(idx)
        return coords_str(self.coords(idx))

    def mul(self, i: int, j: int) -> int:
        if self.n == 1:
            return i * j % self.p
        prod = self._ctx.mulmod(_arith.trim(self.coords(i)[:]),
                                _arith.trim(self.coords(j)[:]))
        return self.index(prod + [0] * (self.n - len(prod)))

    def inverses(self) -> list[int]:
        """Inverse of every nonzero element, one exponentiation total.

        Batch inversion: prefix products turn q - 1 inversions into
        3(q - 1) multiplications plus a single power.
        """
        if self._inv is not None:
            return self._inv
        q = self.q
        one = self.index([1] + [0] * (self.n - 1)) if self.n > 1 else 1
        nonzero = [i for i in range(q) if i != 0]
        prefix = [nonzero[0]]
        for i in nonzero[1:]:
            prefix.append(self.mul(prefix[-1], i))
        total_inv = self._pow(prefix[-1], q - 2)
        inv = [0] * q
        acc = total_inv
        for k in range(len(nonzero) - 1, 0, -1):
            inv[nonzero[k]] = self.mul(acc, prefix[k - 1])
            acc = self.mul(acc, nonzero[k])
        inv[nonzero[0]] = acc
        if self.mul(nonzero[0], inv[nonzero[0]]) != one:
            raise InternalInvariantError("batch inversion failed its check")
        self._inv = inv
        return inv

    def _pow(self, i: int, e: int) -> int:
        if self.n == 1:
            return pow(i, e, self.p)
        res = self._ctx.powmod(_arith.trim(self.coords(i)[:]), e)
        return self.index(res + [0] * (self.n - len(res)))

    def add_scaled(self, i: int, j: int, s: int) -> int:
        """(elem_i + elem_j) * s for a scalar s."""
        p = self.p
        if self.n == 1:
            return (i + j) * s % p
        a, b = self.coords(i), self.coords(j)
        return self.index([(x + y) * s % p for x, y in zip(a, b)])


@dataclass
class FunctionalGraph:
    """Successor structure of the halving map on P^1(F_q)."""

    p: int
    n: int
    q: int
    successor: list[int]      # length q + 1; index q is infinity
    periodic: list[bool]
    level: list[int]          # 0 on the periodic set
    tree_root: list[int]      # periodic ancestor (self for periodic nodes)
    labels: list[str]
    inf: int
    one: int
    minus_one: int
    _ops: _FieldOps = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return self.q + 1

    def predecessors(self) -> list[list[int]]:
        preds: list[list[int]] = [[] for _ in range(self.size)]
        for v, w in enumerate(self.successor):
            preds[w].append(v)
        return preds


def build_graph(field_or_prime, *, limit: int = GRAPH_LIMIT) -> FunctionalGraph:
    """Materialize the graph for a prime p or an ExtField of size q <= limit."""
    if isinstance(field_or_prime, ExtField):
        p, n, ctx = field_or_prime.p, field_or_prime.n, field_or_prime._ctx
    else:
        p = require_odd_prime(field_or_prime)
        n, ctx = 1, None
    q = p ** n
    if q > limit:
        raise ValueError(f"field size {q} exceeds the graph limit {limit}")
    ops = _FieldOps(p, n, ctx)
    inf = q
    one = ops.index([1] + [0] * (n - 1)) if n > 1 else 1
    minus_one = ops.index([p - 1] + [0] * (n - 1)) if n > 1 else p - 1
    inv2 = pow(2, -1, p)

    inv = ops.inverses()
    successor = [0] * (q + 1)
    successor[inf] = inf
    successor[0] = inf
    for x in range(1, q):
        successor[x] = ops.add_scaled(x, inv[x], inv2)

    periodic = _find_periodic(successor)
    level, tree_root = _levels(successor, periodic)
    labels = [ops.label(i) for i in range(q)] + ["inf"]
    return FunctionalGraph(p=p, n=n, q=q, successor=successor, periodic=periodic,
                           level=level, tree_root=tree_root, labels=labels,
                           inf=inf, one=one, minus_one=minus_one, _ops=ops)


def _find_periodic(successor: list[int]) -> list[bool]:
    size = len(successor)
    color = [0] * size          # 0 unvisited, 1 on current path, 2 done
    periodic = [False] * size
    for start in range(size):
        if color[start]:
            continue
        path = []
        v = start
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            v = successor[v]
        if color[v] == 1:
            # v closes a cycle inside the current path
            for u in reversed(path):
                periodic[u] = True
                if u == v:
                    break
        for u in path:
            color[u] = 2
    return periodic


def _levels(successor: list[int], periodic: list[bool]) -> tuple[list[int], list[int]]:
    size = len(successor)
    preds: list[list[int]] = [[] for _ in range(size)]
    for v, w in enumerate(successor):
        preds[w].append(v)
    level = [0] * size
    root = [-1] * size
    queue = [v for v in range(size) if periodic[v]]
    for v in queue:
        root[v] = v
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for u in preds[v]:
            if periodic[u]:
                continue
            level[u] = level[v] + 1
            root[u] = root[v]
            queue.append(u)
    return level, root


@dataclass
class RootRecord:
    """Shape of the tree hanging off one periodic node."""

    root: int
    label: str
    depth: int
    root_children: int
    nodes_per_level: list[int]
    leaf_count: int


@dataclass
class TreeReport:
    """Outcome of checking the reversed-binary-tree structure."""

    q: int
    expected_depth: int
    roots: list[RootRecord]
    fixed_points_tree_free: bool
    depths_ok: bool
    root_child_ok: bool
    internal_child_ok: bool
    leaves_ok: bool
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_tree_structure(g: FunctionalGraph) -> TreeReport:
    """Check every hanging tree against the expected reversed binary shape.

    The nodes 1 and -1 must have no tree at all; every other periodic
    node roots a tree of depth nu2(q - 1) whose root has one child,
    whose internal nodes have two children each, and whose leaves all
    sit at full depth.
    """
    depth_want = nu2(g.q - 1)
    preds = g.predecessors()
    violations: list[str] = []
    records: list[RootRecord] = []
    fixed_free = True
    depths_ok = root_child_ok = internal_child_ok = leaves_ok = True

    tree_nodes: dict[int, list[int]] = {}
    for v in range(g.size):
        if not g.periodic[v]:
            tree_nodes.setdefault(g.tree_root[v], []).append(v)

    for r in range(g.size):
        if not g.periodic[r]:
            continue
        members = tree_nodes.get(r, [])
        kids_of_root = [u for u in preds[r] if not g.periodic[u]]
        if r in (g.one, g.minus_one):
            if members or kids_of_root:
                fixed_free = False
                violations.append(f"q={g.q}: fixed point {g.labels[r]} has a tree")
            continue
        depth = max((g.level[u] for u in members), default=0)
        per_level = [0] * (depth + 1)
        per_level[0] = 1
        leaf_count = 0
        for u in members:
            per_level[g.level[u]] += 1
        if depth != depth_want:
            depths_ok = False
            violations.append(
                f"q={g.q}: tree at {g.labels[r]} has depth {depth}, want {depth_want}")
        if len(kids_of_root) != 1:
            root_child_ok = False
            violations.append(
                f"q={g.q}: root {g.labels[r]} has {len(kids_of_root)} children, want 1")
        for u in members:
            kids = [w for w in preds[u] if not g.periodic[w]]
            if g.level[u] == depth_want:
                leaf_count += 1
                if kids:
                    leaves_ok = False
                    violations.append(
                        f"q={g.q}: node {g.labels[u]} at full depth has children")
            elif len(kids) != 2:
                internal_child_ok = False
                violations.append(
                    f"q={g.q}: internal node {g.labels[u]} has {len(kids)} children, want 2")
        records.append(RootRecord(root=r, label=g.labels[r], depth=depth,
                                  root_children=len(kids_of_root),
                                  nodes_per_level=per_level, leaf_count=leaf_count))
    return TreeReport(q=g.q, expected_depth=depth_want, roots=records,
                      fixed_points_tree_free=fixed_free, depths_ok=depths_ok,
                      root_child_ok=root_child_ok, internal_child_ok=internal_child_ok,
                      leaves_ok=leaves_ok, violations=violations)


def conjugacy_check(g: FunctionalGraph) -> bool:
    """Pointwise check that the halving map equals psi o s2 o psi, where
    s2 squares and psi(x) = (x+1)/(x-1) swaps 1 and infinity.

    Also asserts that psi is an involution at every point.
    """
    ops = g._ops
    inv = ops.inverses()
    one, minus_one, inf = g.one, g.minus_one, g.inf
    p, n = g.p, g.n

    def add_const_idx(i: int, c: int) -> int:
        if n == 1:
            return (i + c) % p
        coords = ops.coords(i)[:]
        coords[0] = (coords[0] + c) % p
        return ops.index(coords)

    def psi(i: int) -> int:
        if i == inf:
            return one
        if i == one:
            return inf
        num = add_const_idx(i, 1)
        den = add_const_idx(i, -1)
        return ops.mul(num, inv[den])

    def s2(i: int) -> int:
        if i == inf:
            return inf
        return ops.mul(i, i)

    for x in range(g.size):
        y = psi(x)
        if psi(y) != x or g.successor[x] != psi(s2(y)):
            return False
    return True


def export_dot(g: FunctionalGraph) -> str:
    """Deterministic DOT text: one node line per point (periodic nodes
    double-circled), then one edge line per point, in enumeration order."""
    lines = [f"digraph theta_q{g.q} {{"]
    for v in range(g.size):
        name = _dot_id(g.labels[v])
        attr = " [shape=doublecircle]" if g.periodic[v] else ""
        lines.append(f"  {name}{attr};")
    for v in range(g.size):
        lines.append(f"  {_dot_id(g.labels[v])} -> {_dot_id(g.labels[g.successor[v]])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(label: str) -> str:
    # plain numerals and identifier-shaped labels are legal unquoted
    if label.isdigit() or (label[0].isalpha() and label.isalnum()):
        return label
    return '"' + label + '"'
