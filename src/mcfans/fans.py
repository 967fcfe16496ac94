"""Configurations, silting recovery, horizontal/vertical algebras, fan walls.

A state's columns are read as graded exceptional modules (a configuration);
inverting the signed column matrix recovers the dual silting object; grouping
slopes in closed pairs yields the horizontal and vertical algebra factors
whose brick walls assemble the fans.
"""

from fractions import Fraction

from .errors import DualityViolation, NotConfigurable
from .finrep import indecomposables, is_exceptional_sequence, span_of, wall_of
from .intmat import inverse, transpose
from .mutation import mu_plus, signed_c_matrix


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
    """Recover the dual silting object by inverting the signed column matrix.

    G = (-1)^m D^{-1} (C_signed^t)^{-1} D; column j is looked up as +/- the
    g-vector of an exceptional module in table.by_g, the sign fixing the
    level as m - s_j or m - 1 - s_j. The full graded duality pairing is then
    verified.
    """
    ctx = st.context
    q = ctx.quiver
    m = ctx.m
    d = q.symmetrizer
    table = indecomposables(q)
    csigned = signed_c_matrix(st)
    ct_inv = inverse(transpose(csigned))
    sign_m = -1 if m % 2 else 1
    g_mat = [[Fraction(sign_m) * ct_inv[i][j] * d[j] / d[i]
              for j in range(ctx.n)] for i in range(ctx.n)]
    for row in g_mat:
        for x in row:
            if x.denominator != 1:
                raise DualityViolation("silting g-matrix is not integral")
    items = []
    for j in range(ctx.n):
        s_j = st.slopes[j]
        col = tuple(int(g_mat[i][j]) for i in range(ctx.n))
        g = tuple(x if (m - s_j) % 2 == 0 else -x for x in col)
        level = m - s_j
        rep = table.by_g.get(g)
        if rep is None and s_j <= m - 1:
            g = tuple(-x for x in g)
            level = m - 1 - s_j
            rep = table.by_g.get(g)
        if rep is None:
            raise DualityViolation(
                f"column {j + 1} is not +/- the g-vector of an "
                f"exceptional module")
        if level == m:
            if sum(abs(x) for x in g) != 1 or max(g) != 1:
                raise DualityViolation(
                    f"level-{m} summand at column {j + 1} is not a shifted "
                    f"projective")
            kind = "shifted-projective"
        else:
            kind = "module"
        items.append(SiltingItem(g, level, kind, rep.dim))
    # full graded duality: g_i^t D |c_j| = 0 off-diagonal; on the diagonal
    # +f_i when level + slope = m and -f_i when level + slope = m - 1.
    for i, it in enumerate(items):
        for j in range(ctx.n):
            pair = sum(it.g[v] * d[v] * st.absC[v][j] for v in range(ctx.n))
            if i != j:
                if pair != 0:
                    raise DualityViolation(
                        f"graded pairing of summand {i + 1} against column "
                        f"{j + 1} is nonzero")
            elif it.level + st.slopes[j] == m:
                if pair != d[i]:
                    raise DualityViolation(
                        f"diagonal pairing at {i + 1} is not +t^m f")
            elif it.level + st.slopes[j] == m - 1:
                if pair != -d[i]:
                    raise DualityViolation(
                        f"diagonal pairing at {i + 1} is not -t^(m-1) f")
            else:
                raise DualityViolation(
                    f"level {it.level} at slope {st.slopes[j]} fits neither "
                    f"grading case")
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
