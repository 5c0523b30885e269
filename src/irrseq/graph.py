"""Functional graph of the halving map on the projective line over F_q.

For desk-scale q the whole graph is materialized as numpy arrays over
point indices: every point of P^1(F_q) = F_q + {infinity} gets an index,
the successor array applies x -> (x + 1/x)/2 (with 0 and infinity mapped
to infinity), pointer doubling finds the periodic set, and one pass per
frontier gives each node its distance to the periodic set and the
periodic root of its tree.  The tree-shape check counts children and
(root, level) occupancy with bincounts, the conjugacy with the squaring
map is checked over the whole index array, and the DOT export is
deterministic.  Python loops run only over failures, report records and
text.  Points are enumerated lexicographically by coordinate vector (c0
first), infinity last, so output is byte-stable.

Over F_p the inverses are one vectorized Fermat power x^(p-2).  Over
F_{p^n}, n > 1, a primitive element g gives an exp table, the
coordinates of g^0, ..., g^(q-2), built in blocks of about sqrt(q) rows,
each block the previous one times the matrix of multiplication by g^B.
The table is checked row by row against the matrix of g, and its indices
must be a permutation of 1..q-1, which also proves g primitive.  Then
a*b = exp[(log a + log b) mod (q-1)] and 1/a = exp[-log a mod (q-1)].
Every inverse is checked: x * x^-1 = 1.

All of it is int64 arithmetic, exact while p^2 < 2^63 over F_p (the
Fermat power multiplies two residues) and, over F_{p^n}, n (p-1)^2 < 2^63
(a block product sums n products of residues) and 2q < 2^63 (a product
adds two logarithms).  `build_graph` refuses other fields before it
allocates anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInvariantError
from .extfield import ExtField, coords_str
from .fp import nu2, require_odd_prime

GRAPH_LIMIT = 1 << 20
_INT64 = 1 << 63


def _power(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """x**e mod p elementwise by square and multiply (needs p^2 < 2^63)."""
    out = np.ones_like(x)
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _primitive_element(fld: ExtField):
    """First element c0 + c1 b + ..., ordered by c0 + c1 p + ..., of
    multiplicative order q - 1."""
    m, rest, primes, d = fld.q - 1, fld.q - 1, [], 2
    while d * d <= rest:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    primes += [rest] if rest > 1 else []
    for k in range(1, fld.q):
        g = fld.element([k // fld.p ** i % fld.p for i in range(fld.n)])
        if all(g ** (m // ell) != 1 for ell in primes):
            return g
    raise InternalInvariantError(f"no primitive element in F_{fld.q}")


def _exp_table(fld: ExtField, g) -> np.ndarray:
    """Coordinates of g^0, ..., g^(q-2) as a (q-1) x n array.

    The first B ~ sqrt(q) rows are stepped one at a time by the matrix of
    g; every later block of B rows is the block before it times the matrix
    of g^B, one matmul per block.  Column j of multiplication_matrix(a)
    holds a * b^j, so rows are multiplied by its transpose.
    """
    p, m = fld.p, fld.q - 1
    block = math.isqrt(m) + 1
    step = np.array(fld.multiplication_matrix(g), dtype=np.int64).T
    table = np.zeros((m, fld.n), dtype=np.int64)
    table[0, 0] = 1
    for k in range(1, min(block, m)):
        table[k] = table[k - 1] @ step % p
    jump = np.array(fld.multiplication_matrix(g ** block), dtype=np.int64).T
    for start in range(block, m, block):
        stop = min(start + block, m)
        table[start:stop] = table[start - block:stop - block] @ jump % p
    return table


class _FieldOps:
    """Array-valued arithmetic of F_q on point indices.

    Indices enumerate coordinate vectors (c0, ..., c_{n-1})
    lexicographically, i.e. idx = c0 * p^(n-1) + ... + c_{n-1}.
    """

    def __init__(self, p: int, n: int, fld: ExtField | None):
        self.p, self.n, self.q = p, n, p ** n
        self._weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.one = p ** (n - 1)
        self._inv = None
        if n > 1:
            g = _primitive_element(fld)
            table = _exp_table(fld, g)
            self._exp = self.index(table)
            # row 0 is 1, each row is g times the one before (cyclically) and
            # the indices hit 1..q-1 once each: so row k is g^k, g is primitive
            hits = np.bincount(self._exp, minlength=self.q)
            shifted = table @ np.array(fld.multiplication_matrix(g), dtype=np.int64).T % p
            if (table[0, 0] != 1 or table[0, 1:].any() or hits[0] or (hits[1:] != 1).any()
                    or (shifted[:-1] != table[1:]).any() or (shifted[-1] != table[0]).any()):
                raise InternalInvariantError(f"exp table of F_{self.q} failed its check")
            self._log = np.zeros(self.q, dtype=np.int64)
            self._log[self._exp] = np.arange(self.q - 1)

    def coords(self, idx: np.ndarray) -> np.ndarray:
        """Coordinate rows of the indexed elements, constant coordinate first."""
        return idx[..., None] // self._weights % self.p

    def index(self, coords: np.ndarray) -> np.ndarray:
        return coords @ self._weights

    def shift(self, idx: np.ndarray, c: int) -> np.ndarray:
        """Index of elem_idx + c for a scalar c."""
        c0 = idx // self.one
        return idx + ((c0 + c) % self.p - c0) * self.one

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.n == 1:
            return a * b % self.p
        prod = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def inverses(self) -> np.ndarray:
        """Inverse of every element by index (0 for 0), checked at once."""
        if self._inv is None:
            x = np.arange(self.q, dtype=np.int64)
            if self.n == 1:
                inv = _power(x, self.p - 2, self.p)
            else:
                inv = self._exp[-self._log % (self.q - 1)]
                inv[0] = 0
            if (self.mul(x[1:], inv[1:]) != self.one).any():
                raise InternalInvariantError("an inverse failed its check x * x^-1 = 1")
            self._inv = inv
        return self._inv


@dataclass
class FunctionalGraph:
    """Successor structure of the halving map on P^1(F_q).

    The per-point arrays are indexed by point, infinity last.
    """

    p: int
    n: int
    q: int
    successor: np.ndarray     # int64, length q + 1; index q is infinity
    periodic: np.ndarray      # bool
    level: np.ndarray         # int64, 0 on the periodic set
    tree_root: np.ndarray     # int64 periodic ancestor (self for periodic nodes)
    inf: int
    one: int
    minus_one: int
    _ops: _FieldOps = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return self.q + 1

    @property
    def labels(self) -> list[str]:
        return self.labels_of(np.arange(self.size))

    def labels_of(self, idx) -> list[str]:
        """Text of each indexed point: a residue, a polynomial in b, or inf."""
        idx = np.asarray(idx, dtype=np.int64)
        if self.n == 1:
            text = list(map(str, idx.tolist()))
        else:
            text = list(map(coords_str, self._ops.coords(idx).tolist()))
        return [t if v != self.inf else "inf" for v, t in zip(idx.tolist(), text)]

    def predecessors(self) -> list[list[int]]:
        order = np.argsort(self.successor, kind="stable")
        ends = np.cumsum(np.bincount(self.successor, minlength=self.size))
        return [part.tolist() for part in np.split(order, ends[:-1])]


def build_graph(field_or_prime, *, limit: int = GRAPH_LIMIT) -> FunctionalGraph:
    """Materialize the graph for a prime p or an ExtField of size q <= limit."""
    if isinstance(field_or_prime, ExtField):
        fld, p, n = field_or_prime, field_or_prime.p, field_or_prime.n
    else:
        fld, p, n = None, require_odd_prime(field_or_prime), 1
    q = p ** n
    if q > limit:
        raise ValueError(f"field size {q} exceeds the graph limit {limit}")
    if not (p * p < _INT64 if n == 1 else n * (p - 1) ** 2 < _INT64 and 2 * q < _INT64):
        raise ValueError(f"F_{p}^{n} is outside the int64 exactness bounds of the graph")
    ops = _FieldOps(p, n, fld)
    x = np.arange(1, q, dtype=np.int64)
    half = (ops.coords(x) + ops.coords(ops.inverses()[1:])) % p * ((p + 1) // 2) % p
    successor = np.full(q + 1, q, dtype=np.int64)
    successor[1:q] = ops.index(half)
    periodic = _periodic(successor)
    level, tree_root = _levels(successor, periodic)
    return FunctionalGraph(p=p, n=n, q=q, successor=successor, periodic=periodic,
                           level=level, tree_root=tree_root, inf=q, one=ops.one,
                           minus_one=(p - 1) * ops.one, _ops=ops)


def _periodic(successor: np.ndarray) -> np.ndarray:
    # pointer doubling: successor^(2^k), 2^k above the point count, outruns
    # every tail, so it lands each point on its cycle; its image is periodic
    s = successor
    for _ in range(len(successor).bit_length()):
        s = s[s]
    periodic = np.zeros(len(successor), dtype=bool)
    periodic[s] = True
    return periodic


def _levels(successor: np.ndarray, periodic: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    level = np.zeros(len(successor), dtype=np.int64)
    root = np.where(periodic, np.arange(len(successor)), -1)
    done = periodic.copy()
    depth = 0
    while not done.all():
        depth += 1
        front = ~done & done[successor]
        level[front] = depth
        root[front] = root[successor[front]]
        done |= front
    return level, root


@dataclass(slots=True)
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
    want = nu2(g.q - 1)
    periodic, level = g.periodic, g.level
    kids = np.bincount(g.successor[~periodic], minlength=g.size)
    roots = np.flatnonzero(periodic)
    rank = np.cumsum(periodic) - 1
    # tree nodes hung off a periodic root, counted per (root, level)
    members = np.flatnonzero(~periodic & periodic[g.tree_root])
    row = rank[g.tree_root[members]]
    width = int(level[members].max(initial=0)) + 1
    counts = np.bincount(row * width + level[members],
                         minlength=len(roots) * width).reshape(len(roots), width)
    sizes = counts.sum(axis=1)
    # deepest occupied level of each tree, 0 for a root without members
    depth = np.where(sizes > 0, width - 1 - np.argmax(counts[:, ::-1] > 0, axis=1), 0)
    leaves = counts[:, want] if want < width else np.zeros(len(roots), dtype=np.int64)
    counts[:, 0] += 1

    fixed = (roots == g.one) | (roots == g.minus_one)
    has_tree = fixed & ((sizes > 0) | (kids[roots] > 0))
    bad_depth = ~fixed & (depth != want)
    bad_child = ~fixed & (kids[roots] != 1)
    on_free = ~fixed[row]
    full = level[members] == want
    bad_leaf = on_free & full & (kids[members] > 0)
    bad_inner = on_free & ~full & (kids[members] != 2)

    # violations in the order a walk over the points meets them: by root,
    # the root's own first, then its failing nodes in index order
    found: dict[int, list[str]] = {}
    for i in np.flatnonzero(has_tree | bad_depth | bad_child).tolist():
        r = roots[i]
        lab = g.labels_of([r])[0]
        found[i] = [text for bad, text in (
            (has_tree[i], f"q={g.q}: fixed point {lab} has a tree"),
            (bad_depth[i], f"q={g.q}: tree at {lab} has depth {depth[i]}, want {want}"),
            (bad_child[i], f"q={g.q}: root {lab} has {kids[r]} children, want 1")) if bad]
    for j in np.flatnonzero(bad_leaf | bad_inner).tolist():
        u = members[j]
        lab = g.labels_of([u])[0]
        found.setdefault(int(row[j]), []).append(
            f"q={g.q}: node {lab} at full depth has children" if full[j] else
            f"q={g.q}: internal node {lab} has {kids[u]} children, want 2")
    violations = [text for i in sorted(found) for text in found[i]]

    free = ~fixed
    rows = counts[free].tolist()
    if (depth[free] < width - 1).any():    # rows are cut only when depths differ
        rows = [per[:d + 1] for per, d in zip(rows, depth[free].tolist())]
    records = list(map(RootRecord, roots[free].tolist(), g.labels_of(roots[free]),
                       depth[free].tolist(), kids[roots[free]].tolist(), rows,
                       leaves[free].tolist()))
    return TreeReport(q=g.q, expected_depth=want, roots=records,
                      fixed_points_tree_free=not has_tree.any(), depths_ok=not bad_depth.any(),
                      root_child_ok=not bad_child.any(), internal_child_ok=not bad_inner.any(),
                      leaves_ok=not bad_leaf.any(), violations=violations)


def conjugacy_check(g: FunctionalGraph) -> bool:
    """Check at every point that the halving map equals psi o s2 o psi,
    where s2 squares and psi(x) = (x+1)/(x-1) swaps 1 and infinity.

    Also checks that psi is an involution at every point.
    """
    ops = g._ops
    x = np.arange(g.q, dtype=np.int64)
    psi = np.empty(g.size, dtype=np.int64)
    psi[:g.q] = ops.mul(ops.shift(x, 1), ops.inverses()[ops.shift(x, -1)])
    psi[g.one], psi[g.inf] = g.inf, g.one
    square = np.append(ops.mul(x, x), g.inf)
    return bool((psi[psi] == np.arange(g.size)).all()
                and (g.successor == psi[square[psi]]).all())


def export_dot(g: FunctionalGraph) -> str:
    """Deterministic DOT text: one node line per point (periodic nodes
    double-circled), then one edge line per point, in enumeration order."""
    names = [_dot_id(label) for label in g.labels]
    lines = [f"digraph theta_q{g.q} {{"]
    lines += [f"  {name}{' [shape=doublecircle]' if per else ''};"
              for name, per in zip(names, g.periodic.tolist())]
    lines += [f"  {names[v]} -> {names[w]};" for v, w in enumerate(g.successor.tolist())]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(label: str) -> str:
    # plain numerals and identifier-shaped labels are legal unquoted
    if label.isdigit() or (label[0].isalpha() and label.isalnum()):
        return label
    return '"' + label + '"'
