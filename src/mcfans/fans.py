"""Configurations, silting recovery, horizontal/vertical algebras, fan walls.

A state's columns are read as graded exceptional modules (a configuration);
the graded duality pairing against them recovers the dual silting object;
grouping slopes in closed pairs yields the horizontal and vertical algebra
factors whose brick walls assemble the fans.
"""

from .errors import DualityViolation, NotConfigurable
from .finrep import indecomposables, is_exceptional_sequence, span_of, wall_of
from .mutation import mu_plus


# --- configurations ---

class MConfiguration:
    """n graded exceptional modules (dim, slope) with an admissible ordering.

    items[j] corresponds to column j of the source state; ordering is the
    lexicographically least permutation of item indices with weakly
    increasing slopes along which the modules form an exceptional sequence.
    """

    def __init__(self, quiver, m, items):
        self.quiver = quiver
        self.m = int(m)
        self.items = tuple((tuple(int(x) for x in dim), int(slope))
                           for (dim, slope) in items)
        for (dim, slope) in self.items:
            if not 0 <= slope <= self.m:
                raise NotConfigurable(f"slope {slope} outside [0, {self.m}]")
        table = indecomposables(quiver)
        try:
            mods = [table.by_dim[dim] for (dim, _s) in self.items]
        except KeyError as e:
            raise NotConfigurable(f"dimension vector {e.args[0]} is not a root")
        # x must precede y whenever <y, x> != 0, so an admissible order is a
        # topological order of each equal-slope block; the least one takes
        # the smallest index that may precede all others left in its block
        order = []
        for slope in sorted({s for (_d, s) in self.items}):
            left = [j for j, (_d, s) in enumerate(self.items) if s == slope]
            while left:
                j = next((j for j in left if all(
                    is_exceptional_sequence((mods[j], mods[i]))
                    for i in left if i != j)), None)
                if j is None:
                    break
                order.append(j)
                left.remove(j)
        self.ordering = tuple(order)
        if (len(order) < len(mods)
                or not is_exceptional_sequence([mods[j] for j in order])):
            raise NotConfigurable(
                f"no slope-ordered exceptional numbering exists for "
                f"{[(d, s) for (d, s) in self.items]}")

    def modules(self):
        table = indecomposables(self.quiver)
        return [table.by_dim[dim] for (dim, _s) in self.items]

    def ordered_items(self):
        return [self.items[j] for j in self.ordering]

    def __repr__(self):
        return f"MConfiguration({list(self.items)})"


def configuration_of_state(st):
    """Read the state's columns as a configuration (dim = |c_j|, its slope)."""
    items = [(st.column(j), st.slopes[j]) for j in range(st.context.n)]
    return MConfiguration(st.context.quiver, st.context.m, items)


# --- silting recovery ---

class SiltingItem:
    """One summand: a module g-vector, a level, and its kind."""

    __slots__ = ("g", "level", "kind", "dim")

    def __init__(self, g, level, kind, dim):
        self.g = tuple(int(x) for x in g)
        self.level = int(level)
        self.kind = kind
        self.dim = tuple(int(x) for x in dim)

    def __repr__(self):
        return f"SiltingItem(g={self.g}, level={self.level}, kind={self.kind})"


class SiltingObject:
    def __init__(self, quiver, m, items):
        self.quiver = quiver
        self.m = int(m)
        self.items = tuple(items)

    def summand_dims(self):
        return [(it.dim, it.level) for it in self.items]

    def __repr__(self):
        return f"SiltingObject({list(self.items)})"


def silting_from_state(st):
    """Recover the dual silting object from the graded duality pairing.

    Summand i is the exceptional module whose g-vector g has g^T D |c_j| = 0
    for every column j != i, and g^T D |c_i| = +d_i at level m - s_i or,
    when s_i <= m - 1, -d_i at level m - 1 - s_i; + is tried first.  D|C| is
    invertible, so each sign has at most one such g, and the summands found
    satisfy the full graded duality by construction.  A level-m summand
    must be a shifted projective.
    """
    ctx = st.context
    q, m, n = ctx.quiver, ctx.m, ctx.n
    d = q.symmetrizer
    dc = [[d[v] * x for x in row] for v, row in enumerate(st.absC)]  # D|C|
    paired = {}  # (column, sign of the pairing) -> (g, module)
    for g, rep in indecomposables(q).by_g.items():
        pair = [sum(g[v] * dc[v][j] for v in range(n)) for j in range(n)]
        hits = [j for j in range(n) if pair[j]]
        if len(hits) == 1 and abs(pair[hits[0]]) == d[hits[0]]:
            paired[hits[0], pair[hits[0]] > 0] = (g, rep)
    items = []
    for i, s_i in enumerate(st.slopes):
        if (i, True) in paired:
            (g, rep), level = paired[i, True], m - s_i
        elif (i, False) in paired and s_i <= m - 1:
            (g, rep), level = paired[i, False], m - 1 - s_i
        else:
            raise DualityViolation(
                f"no exceptional module pairs with column {i + 1} alone")
        if level == m:
            if sum(abs(x) for x in g) != 1 or max(g) != 1:
                raise DualityViolation(
                    f"level-{m} summand at column {i + 1} is not a shifted "
                    f"projective")
            kind = "shifted-projective"
        else:
            kind = "module"
        items.append(SiltingItem(g, level, kind, rep.dim))
    return SiltingObject(q, m, items)


# --- horizontal / vertical algebras ---

class FanAlgebra:
    """Product of span subcategories indexed by slope-pair slots."""

    def __init__(self, parity, factors):
        self.parity = parity
        # factors: list of (slot, tuple of IndecRep)
        self.factors = [(int(slot), tuple(members)) for (slot, members) in factors]

    def factor_dims(self):
        return [(slot, frozenset(r.dim for r in members))
                for (slot, members) in self.factors]

    def ranks(self):
        from .intmat import rank as mat_rank
        out = []
        for (_slot, members) in self.factors:
            if not members:
                out.append(0)
            else:
                out.append(mat_rank([list(r.dim) for r in members]))
        return out

    def __eq__(self, other):
        return (isinstance(other, FanAlgebra) and self.parity == other.parity
                and self.factor_dims() == other.factor_dims())

    def __hash__(self):
        return hash((self.parity, tuple(self.factor_dims())))

    def __repr__(self):
        parts = []
        for (slot, members) in self.factors:
            parts.append(f"{slot}:{sorted(r.dim for r in members)}")
        return f"FanAlgebra({self.parity}; {'; '.join(parts)})"

    def to_json(self):
        return {"parity": self.parity,
                "factors": [{"slot": slot,
                             "members": [list(d) for d in
                                         sorted(r.dim for r in members)]}
                            for (slot, members) in self.factors]}


def _algebra(x, parity):
    table = indecomposables(x.quiver)
    m = x.m
    if parity == "horizontal":
        slots = [(s, (2 * s, 2 * s + 1)) for s in range(m // 2 + 1)]
    else:
        slots = [(s, (2 * s - 1, 2 * s)) for s in range((m + 1) // 2 + 1)]
    ordered = x.ordered_items()
    factors = []
    for (slot, pair) in slots:
        seq = [table.by_dim[dim] for (dim, s) in ordered if s in pair]
        factors.append((slot, span_of(seq, table=table)))
    return FanAlgebra(parity, factors)


def horizontal_algebra(x):
    """H(X): factor s spans the modules at slopes {2s, 2s+1}."""
    return _algebra(x, "horizontal")


def vertical_algebra(x):
    """V(X): factor s spans the modules at slopes {2s-1, 2s}."""
    return _algebra(x, "vertical")


def check_hv_invariance(st, k):
    """The fan algebra of matching parity is unchanged by mu_plus at k."""
    s_k = st.slopes[k - 1]
    before = configuration_of_state(st)
    after = configuration_of_state(mu_plus(st, k))
    if s_k % 2 == 0:
        return horizontal_algebra(before) == horizontal_algebra(after)
    return vertical_algebra(before) == vertical_algebra(after)


# --- fan wall sets ---

class TaggedWall:
    """A brick wall in ambient coordinates with its factor slot and style."""

    __slots__ = ("normal", "subdims", "slot", "style")

    def __init__(self, normal, subdims, slot, style):
        self.normal = tuple(int(x) for x in normal)
        self.subdims = frozenset(tuple(int(x) for x in d) for d in subdims)
        self.slot = int(slot)
        self.style = style

    def __repr__(self):
        return (f"TaggedWall(normal={self.normal}, slot={self.slot}, "
                f"style={self.style})")

    def to_json(self):
        return {"normal": list(self.normal),
                "subdims": [list(d) for d in sorted(self.subdims)],
                "slot": self.slot,
                "style": self.style}


def fan_wall_set(x, parity):
    """Walls of every brick of every factor, tagged by slot and style.

    Horizontal: slot 0 renders black, higher slots blue. Vertical: the wall
    set is mirrored through the origin (style 'negated').
    """
    if parity not in ("horizontal", "vertical"):
        raise ValueError("parity must be 'horizontal' or 'vertical'")
    algebra = _algebra(x, parity)
    walls = []
    for (slot, members) in algebra.factors:
        for rep in members:
            w = wall_of(rep)
            if parity == "vertical":
                walls.append(TaggedWall(
                    tuple(-v for v in w.normal),
                    {tuple(-v for v in d) for d in w.subdims},
                    slot, "negated"))
            else:
                style = "black" if slot == 0 else "blue"
                walls.append(TaggedWall(w.normal, w.subdims, slot, style))
    walls.sort(key=lambda tw: (tw.slot, tw.normal))
    return walls
