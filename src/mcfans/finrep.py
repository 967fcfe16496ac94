"""Exact representation theory of simply-laced finite-type path algebras.

The indecomposables are the positive roots, and everything else — Hom/Ext
dimensions (from the Euler form), exceptional sequences, perpendicular
categories, stability walls, torsion classes — is computed from them as
integer vectors. No representation matrix is built here; `hom_space` solves
for homomorphisms between matrices that a caller supplies.
"""

from fractions import Fraction

from .errors import (DualBrickNotFound, NotExceptionalSequence,
                     UnsupportedType)
from .intmat import rank as mat_rank
from .intmat import det, dot, nullspace
from .seed import euler_pairing, g_of_dim


# --- the indecomposable table ---

class IndecRep:
    """An indecomposable representation, known by its dimension vector (a
    positive root) and its index in the table."""

    __slots__ = ("table", "idx", "dim")

    def __init__(self, table, idx, dim):
        self.table = table
        self.idx = idx
        self.dim = dim

    def __eq__(self, other):
        return (isinstance(other, IndecRep) and other.table is self.table
                and other.idx == self.idx)

    def __hash__(self):
        return hash((id(self.table), self.idx))

    def __repr__(self):
        return f"IndecRep(dim={self.dim})"


class ShiftedProjective:
    """P_vertex shifted by one degree; only its vanishing conditions matter."""

    __slots__ = ("table", "vertex")

    def __init__(self, table, vertex):
        if not 1 <= vertex <= table.quiver.n:
            raise ValueError(f"vertex {vertex} out of range")
        self.table = table
        self.vertex = vertex

    def __repr__(self):
        return f"ShiftedProjective(P{self.vertex}[1])"


class IndecTable:
    """All indecomposables of a simply-laced Dynkin quiver, one per positive
    root, with their Euler pairings memoized."""

    def __init__(self, quiver, roots):
        self.quiver = quiver
        self.reps = [IndecRep(self, i, r) for i, r in enumerate(roots)]
        self.by_dim = {r.dim: r for r in self.reps}
        self.by_g = {g_of_dim(quiver, r.dim): r for r in self.reps}
        self._euler_cache = {}
        self._subdims_cache = {}

    def __iter__(self):
        return iter(self.reps)

    def __len__(self):
        return len(self.reps)

    def projective(self, i):
        """P_i (1-based vertex), the indecomposable with g-vector e_i."""
        return self.by_g[tuple(1 if j == i - 1 else 0
                               for j in range(self.quiver.n))]

    def simple(self, i):
        return self.by_dim[tuple(1 if j == i - 1 else 0
                                 for j in range(self.quiver.n))]


_TABLE_CACHE = {}
_TABLE_CACHE_SIZE = 32  # quivers; the oldest table is evicted first


def _check_dynkin(q):
    if any(f != 1 for f in q.symmetrizer):
        raise UnsupportedType("valued quivers are not supported here")
    for i in range(q.n):
        for j in range(q.n):
            if i != j and q.euler[i][j] not in (0, -1):
                raise UnsupportedType("multiple arrows are not finite type")
    # Cartan matrix must be positive definite (leading principal minors > 0)
    cartan = [[q.euler[i][j] + q.euler[j][i] for j in range(q.n)]
              for i in range(q.n)]
    for k in range(1, q.n + 1):
        minor = det([row[:k] for row in cartan[:k]])
        if minor <= 0:
            raise UnsupportedType("quiver is not of finite representation type")
    return cartan


def _positive_roots(cartan, n):
    """Reflection closure of the simple roots within the positive cone."""
    roots = set()
    queue = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    while queue:
        v = queue.pop()
        if v in roots:
            continue
        roots.add(v)
        for i in range(n):
            w = _reflect_vector(cartan, v, i)
            if all(x >= 0 for x in w) and any(x > 0 for x in w) and w not in roots:
                queue.append(w)
        if len(roots) > 1000:
            raise UnsupportedType("more than 1000 positive roots")
    return sorted(roots, key=lambda r: (sum(r), r))


def _reflect_vector(cartan, v, i):
    pairing = sum(cartan[i][j] * v[j] for j in range(len(v)))
    return tuple(v[j] - (pairing if j == i else 0) for j in range(len(v)))


def indecomposables(q):
    """Table of all indecomposables (one per positive root); cached per quiver."""
    key = q.key()
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    table = IndecTable(q, _positive_roots(_check_dynkin(q), q.n))
    if len(_TABLE_CACHE) >= _TABLE_CACHE_SIZE:
        del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
    _TABLE_CACHE[key] = table
    return table


# --- hom / ext ---

def hom_space(q, dims_x, maps_x, dims_y, maps_y):
    """Basis of Hom(X, Y) as lists of per-vertex matrices (Fraction), given
    the arrow matrices of X and Y: the matrix oracle of the tests."""
    n = q.n
    sizes = [dims_y[v] * dims_x[v] for v in range(n)]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    total = offsets[-1]
    if total == 0:
        return []
    rows = []
    for (u, w, _) in q.arrows():
        a_x = maps_x[(u, w)]
        a_y = maps_y[(u, w)]
        # equation: Y_a phi_u - phi_w X_a = 0, entry (r, c): r < dims_y[w], c < dims_x[u]
        for r in range(dims_y[w]):
            for c in range(dims_x[u]):
                row = [Fraction(0)] * total
                for t in range(dims_y[u]):
                    row[offsets[u] + t * dims_x[u] + c] += a_y[r][t]
                for t in range(dims_x[w]):
                    row[offsets[w] + r * dims_x[w] + t] -= a_x[t][c]
                if any(x != 0 for x in row):
                    rows.append(row)
    basis = nullspace(rows) if rows else \
        [[Fraction(1) if i == j else Fraction(0) for i in range(total)]
         for j in range(total)]
    out = []
    for vec in basis:
        mats = []
        for v in range(n):
            m = tuple(tuple(vec[offsets[v] + r * dims_x[v] + c]
                            for c in range(dims_x[v]))
                      for r in range(dims_y[v]))
            mats.append(m)
        out.append(mats)
    return out


def _as_rep(x):
    if not isinstance(x, IndecRep):
        raise TypeError(f"expected IndecRep, got {type(x).__name__}")
    return x


def _euler(x, y):
    """<dim x, dim y> = hom - ext, memoized on the table. A Dynkin path
    algebra is representation-directed, so at most one of Hom(x, y) and
    Ext(x, y) = D Hom(y, tau x) is nonzero (Ringel, Tame algebras and integral
    quadratic forms, 1984): hom = max(0, <x,y>), ext = max(0, -<x,y>)."""
    x, y = _as_rep(x), _as_rep(y)
    if x.table is not y.table:
        raise ValueError("representations live over different quivers")
    cache = x.table._euler_cache
    key = (x.idx, y.idx)
    if key not in cache:
        cache[key] = euler_pairing(x.table.quiver, x.dim, y.dim)
    return cache[key]


def hom_dim(x, y):
    return max(0, _euler(x, y))


def ext_dim(x, y):
    return max(0, -_euler(x, y))


def is_exceptional_sequence(seq):
    """Hom(E_j, E_i) = 0 = Ext(E_j, E_i), i.e. <E_j, E_i> = 0, for i < j."""
    seq = [_as_rep(x) for x in seq]
    return all(_euler(seq[j], seq[i]) == 0
               for i in range(len(seq)) for j in range(i + 1, len(seq)))


# --- submodules and walls ---

def submodule_dims(m):
    """Dimension vectors of the indecomposable proper nonzero
    subrepresentations of m.

    Every subrepresentation is a direct sum of indecomposable ones, so these
    vectors cut out the same <= 0 cone as all subdimension vectors. m is
    exceptional, hence general of its dimension d, so a root b embeds iff
    ext(b, d - b) = 0 (Schofield, General representations of quivers, 1992,
    Thm 3.3). By Thm 5.4 that holds iff <c, d - b> >= 0 for c = b and for
    every c that embeds into the indecomposable of dimension b.
    """
    m = _as_rep(m)
    return set(_indec_subdims(m.table, m.dim))


def _indec_subdims(table, d):
    """submodule_dims of the indecomposable of dimension d, memoized."""
    if d not in table._subdims_cache:
        q = table.quiver
        found = []
        for b in table.by_dim:
            if b == d or any(x > y for x, y in zip(b, d)):
                continue
            rest = tuple(y - x for x, y in zip(b, d))
            if all(euler_pairing(q, c, rest) >= 0
                   for c in (b, *_indec_subdims(table, b))):
                found.append(b)
        table._subdims_cache[d] = frozenset(found)
    return table._subdims_cache[d]


class Wall:
    """Stability wall of a module: normal = its dimension vector, plus the
    dimension vectors of its indecomposable proper nonzero submodules (the
    <= 0 inequalities; every submodule is a sum of these)."""

    __slots__ = ("normal", "subdims")

    def __init__(self, normal, subdims):
        self.normal = tuple(int(x) for x in normal)
        self.subdims = frozenset(tuple(int(x) for x in d) for d in subdims)

    def contains(self, x):
        """Exact membership of a rational vector in the stability set."""
        if dot(x, self.normal) != 0:
            return False
        return all(dot(x, d) <= 0 for d in self.subdims)

    def __eq__(self, other):
        return (isinstance(other, Wall) and self.normal == other.normal
                and self.subdims == other.subdims)

    def __hash__(self):
        return hash((self.normal, self.subdims))

    def __repr__(self):
        return f"Wall(normal={self.normal}, subdims={sorted(self.subdims)})"

    def to_json(self):
        return {"normal": list(self.normal),
                "subdims": [list(d) for d in sorted(self.subdims)]}


def wall_of(m):
    m = _as_rep(m)
    return Wall(m.dim, submodule_dims(m))


def check_wall_membership(x, m):
    """Whether x's (signed) g-vector lies on wall_of(m).

    Computes the geometric test (D g on the wall) and the homological test
    (Hom(x, m) = 0 = Ext(x, m), i.e. <x, m> = 0) independently; they must
    agree, or RuntimeError flags an internal inconsistency.
    """
    m = _as_rep(m)
    q = m.table.quiver
    d = q.symmetrizer
    if isinstance(x, ShiftedProjective):
        vec = tuple(-d[i] if i == x.vertex - 1 else 0 for i in range(q.n))
        homological = hom_dim(x.table.projective(x.vertex), m) == 0
    else:
        x = _as_rep(x)
        g = g_of_dim(q, x.dim)
        vec = tuple(d[i] * g[i] for i in range(q.n))
        homological = _euler(x, m) == 0
    geometric = wall_of(m).contains(vec)
    if geometric != homological:
        raise RuntimeError(
            f"wall membership tests disagree for {x!r} on {m!r}: "
            f"geometric={geometric}, homological={homological}")
    return geometric


def verify_chamber(st):
    """Certify the chamber of an m=1 state: each facet is supported by exactly
    one dual brick, and fixed interior combinations avoid every wall."""
    if st.context.m != 1:
        raise ValueError("verify_chamber needs an m=1 state")
    from .fans import silting_from_state
    silting = silting_from_state(st)
    q = st.context.quiver
    table = indecomposables(q)
    d = q.symmetrizer
    gvecs = []
    for item in silting.items:
        sign = -1 if item.level % 2 else 1
        gvecs.append(tuple(sign * d[i] * item.g[i] for i in range(q.n)))
    walls = [(m, wall_of(m)) for m in table]
    n = q.n
    patterns = {}
    for (m, w) in walls:
        patt = frozenset(j for j in range(n) if w.contains(gvecs[j]))
        patterns.setdefault(patt, []).append(m)
    for j in range(n):
        want = frozenset(range(n)) - {j}
        if len(patterns.get(want, [])) != 1:
            raise DualBrickNotFound(
                f"facet {j + 1} is supported by {len(patterns.get(want, []))} bricks")
    combos = [(1,) * n, tuple(range(1, n + 1)), tuple(range(n, 0, -1))]
    for coeffs in combos:
        x = tuple(sum(c * g[i] for c, g in zip(coeffs, gvecs)) for i in range(n))
        for (_m, w) in walls:
            if w.contains(x):
                return False
    return True


# --- torsion classes ---

class TorsionClass:
    """A torsion class, stored as the set of its indecomposable members."""

    __slots__ = ("table", "member_ids")

    def __init__(self, table, member_ids):
        self.table = table
        self.member_ids = frozenset(member_ids)

    @property
    def members(self):
        return [self.table.reps[i] for i in sorted(self.member_ids)]

    def dims(self):
        return sorted(r.dim for r in self.members)

    def __eq__(self, other):
        return (isinstance(other, TorsionClass) and other.table is self.table
                and other.member_ids == self.member_ids)

    def __hash__(self):
        return hash((id(self.table), self.member_ids))

    def __repr__(self):
        return f"TorsionClass({self.dims()})"

    def to_json(self):
        return {"members": [list(d) for d in self.dims()]}


def torsion_class_of_state(st):
    """Gen(module part of the recovered cluster-tilting object)."""
    if st.context.m != 1:
        raise ValueError("torsion_class_of_state needs an m=1 state")
    from .fans import silting_from_state
    silting = silting_from_state(st)
    q = st.context.quiver
    table = indecomposables(q)
    modules = []
    for item in silting.items:
        if item.level == 0:
            modules.append(table.by_dim[item.dim])
    support = set()
    for m in modules:
        support.update(v for v in range(q.n) if m.dim[v])
    members = []
    for z in table:
        if not all((z.dim[v] == 0 or v in support) for v in range(q.n)):
            continue
        if all(ext_dim(m, z) == 0 for m in modules):
            members.append(z.idx)
    return TorsionClass(table, members)


# --- perpendicular categories and spans ---

def _perp(table, s, side):
    out = []
    for x in table:
        if side == "left":
            ok = all(_euler(x, m) == 0 for m in s)
        else:
            ok = all(_euler(m, x) == 0 for m in s)
        if ok:
            out.append(x)
    return tuple(out)


def span_of(seq, table=None):
    """span(E_1..E_r) = right-perp of the left-perp of the sequence."""
    seq = [_as_rep(x) for x in seq]
    if seq and table is None:
        table = seq[0].table
    if table is None:
        raise ValueError("span_of needs a table for the empty sequence")
    if not is_exceptional_sequence(seq):
        raise NotExceptionalSequence(
            f"dims {[x.dim for x in seq]} fail the vanishing conditions")
    left = _perp(table, seq, "left") if seq else tuple(table)
    out = _perp(table, left, "right") if left else tuple(table)
    dims_matrix = [list(x.dim) for x in out]
    if out and mat_rank(dims_matrix) != len(seq):
        raise AssertionError("span rank disagrees with the sequence length")
    if not out and seq:
        raise AssertionError("span of a nonempty sequence came out empty")
    return out


# --- arrow-deletion wall restriction ---

class RestrictionReport:
    def __init__(self, entries):
        self.entries = entries  # list of (dim, found, wall_match)

    @property
    def ok(self):
        return all(found for (_d, found, _w) in self.entries)

    @property
    def missing(self):
        return [d for (d, found, _w) in self.entries if not found]

    def __repr__(self):
        return f"RestrictionReport(ok={self.ok}, entries={len(self.entries)})"


def restricted_walls(q, q_sub):
    """Check every brick dimension vector of the arrow-deleted quiver occurs
    among the bricks of the original, with matching wall data."""
    if q_sub.n != q.n or q_sub.symmetrizer != q.symmetrizer:
        raise ValueError("q_sub must share rank and symmetrizer with q")
    for i in range(q.n):
        for j in range(q.n):
            if i != j and q_sub.euler[i][j] not in (0, q.euler[i][j]):
                raise ValueError("q_sub must be q with some arrows deleted")
    table = indecomposables(q)
    table_sub = indecomposables(q_sub)
    dims = {r.dim for r in table}
    entries = []
    for m_sub in table_sub:
        found = m_sub.dim in dims
        wall_match = False
        if found:
            w_sub = wall_of(m_sub)
            w = wall_of(table.by_dim[m_sub.dim])
            wall_match = (w_sub.normal == w.normal
                          and w_sub.subdims <= w.subdims)
        entries.append((m_sub.dim, found, wall_match))
    return RestrictionReport(entries)
