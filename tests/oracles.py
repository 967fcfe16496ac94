"""Independent oracles that only the tests call.

Representation matrices built by reflection functors from simples (read
through `maps_of`), module-theoretic checks of the mutation rule (universal
maps, extension middles), generic subrepresentations from canonical
decompositions, the rational inverse of g_of_dim, and a mutation-free model
of the states as graded semibricks. Several read representation matrices or
solve linear systems over Fraction; no CLI command calls any of them.
"""

import json
from fractions import Fraction
from itertools import product

from mcfans.errors import McfError
from mcfans.finrep import (_as_rep, _check_dynkin, _perp, _reflect_vector,
                           ext_dim, hom_dim, hom_space, indecomposables)
from mcfans.intmat import rank as mat_rank
from mcfans.intmat import mat_vec, nullspace, rref, transpose
from mcfans.seed import euler_pairing


class InconclusiveGenericity(McfError):
    """Universal map was neither injective nor surjective; case undecidable."""


# --- exact linear algebra over Fraction ---

def left_nullspace(a):
    """Basis of {y : y^T a = 0}."""
    return nullspace(transpose(a))


def inverse(a):
    """Exact inverse as a Fraction matrix; raises ValueError if singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(a)]
    m, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m[:n]]


def solve(a, b):
    """Solve a x = b exactly (a square nonsingular); returns Fraction vector."""
    inv = inverse(a)
    return mat_vec(inv, b)


# --- representation matrices by reflection functors ---

def _sinks_first_order(n, arrows):
    """Topological order with arrow targets before sources."""
    order = []
    remaining = set(range(n))
    arrs = set(arrows)
    while remaining:
        sink = next(v for v in sorted(remaining)
                    if not any(u == v for (u, _w) in arrs))
        order.append(sink)
        remaining.discard(sink)
        arrs = {(u, w) for (u, w) in arrs if u != sink and w != sink}
    return order


def _reverse_at(arrows, i):
    return [(w, u) if u == i or w == i else (u, w) for (u, w) in arrows]


def _simple_rep_data(n, arrows, base):
    dims = tuple(1 if v == base else 0 for v in range(n))
    maps = {(u, w): _zero_matrix(dims[w], dims[u]) for (u, w) in arrows}
    return dims, maps


def _zero_matrix(rows, cols):
    return tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows))


def _coreflect(n, arrows, dims, maps, i):
    """C_i^- at a source i: replace N_i by coker(N_i -> sum of N_j)."""
    targets = [w for (u, w) in arrows if u == i]
    total = sum(dims[w] for w in targets)
    if total == 0:
        pi_rows = []
    elif dims[i] == 0:
        pi_rows = [tuple(Fraction(1 if t == s else 0) for t in range(total))
                   for s in range(total)]
    else:
        # stacked map N_i -> direct sum over outgoing arrows
        f = []
        for w in targets:
            for row in maps[(i, w)]:
                f.append(list(row))
        pi_rows = left_nullspace(f)
    c = len(pi_rows)
    new_dims = tuple(c if v == i else dims[v] for v in range(n))
    new_arrows = _reverse_at(arrows, i)
    new_maps = {}
    offsets = {}
    off = 0
    for w in targets:
        offsets[w] = off
        off += dims[w]
    for (u, w) in arrows:
        if u == i:
            # arrow i->w becomes w->i with map pi restricted to w's block
            block = tuple(tuple(row[offsets[w] + t] for t in range(dims[w]))
                          for row in pi_rows)
            new_maps[(w, i)] = block
        elif w == i:
            raise AssertionError("vertex was not a source")
        else:
            new_maps[(u, w)] = maps[(u, w)]
    return new_dims, new_maps, new_arrows


def _build_rep(q, root):
    """Matrices of the indecomposable of dimension vector root: reflect root
    down to a simple, then apply the reflection functors back up."""
    n = q.n
    arrows = [(u, w) for (u, w, _) in q.arrows()]
    if sum(root) == 1:
        return _simple_rep_data(n, arrows, root.index(1))[1]
    cartan = _check_dynkin(q)
    order = _sinks_first_order(n, arrows)
    v = root
    seq = []
    quiv = list(arrows)
    base = None
    for step in range(1000):
        i = order[len(seq) % n]
        if v == tuple(1 if j == i else 0 for j in range(n)):
            base = i
            break
        v = _reflect_vector(cartan, v, i)
        if any(x < 0 for x in v):
            raise AssertionError(f"reflection left the positive cone at {root}")
        seq.append(i)
        quiv = _reverse_at(quiv, i)
    if base is None:
        raise AssertionError(f"no reflection sequence found for root {root}")
    dims, maps = _simple_rep_data(n, quiv, base)
    expected = tuple(1 if j == base else 0 for j in range(n))
    for i in reversed(seq):
        expected = _reflect_vector(cartan, expected, i)
        dims, maps, quiv = _coreflect(n, quiv, dims, maps, i)
        if dims != expected:
            raise AssertionError(f"reflection functor dims drifted for {root}")
    return maps


_MAPS = {}


def maps_of(rep):
    """The matrices of an indecomposable, memoized on (quiver key, dim):
    maps[(u, w)] is a (dim_w x dim_u) Fraction matrix for the arrow u -> w
    (0-based)."""
    key = (rep.table.quiver.key(), rep.dim)
    if key not in _MAPS:
        _MAPS[key] = _build_rep(rep.table.quiver, rep.dim)
    return _MAPS[key]


def dim_of_g(q, g):
    """Rational inverse of g_of_dim: d = (E^T)^{-1} D g as Fractions."""
    if len(g) != q.n:
        raise ValueError("g-vector must have length n")
    rhs = [q.symmetrizer[i] * g[i] for i in range(q.n)]
    return tuple(Fraction(x) for x in solve(transpose(q.euler), rhs))


# --- perpendicular categories ---

def perp_category(s, side):
    """Hom-Ext perpendicular of a set of indecomposables.

    side='left': {X : Hom(X,M)=0=Ext(X,M) for all M in s};
    side='right': {X : Hom(M,X)=0=Ext(M,X) for all M in s}.
    """
    s = [_as_rep(m) for m in s]
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if not s:
        raise ValueError("perp of an empty set needs an explicit table")
    return _perp(s[0].table, s, side)


# --- the module-theoretic mutation oracle ---

def _universal_map_ranks(basis, dims_src, dims_tgt, r, stacked):
    """Per-vertex ranks of the universal map built from a full hom basis."""
    n = len(dims_src)
    ranks = []
    for v in range(n):
        if stacked == "cols":
            # map E_k^r -> E_j at v: block row [h_1 | ... | h_r]
            mat = [[basis[t][v][row][c] for t in range(r)
                    for c in range(dims_src[v])]
                   for row in range(dims_tgt[v])]
        else:
            # map E_j -> E_k^r at v: blocks stacked vertically
            mat = [list(basis[t][v][row]) for t in range(r)
                   for row in range(dims_tgt[v])]
        ranks.append(mat_rank(mat) if mat and mat[0] else 0)
    return ranks


def mutation_case_oracle(e_k, e_j, r):
    """Decide the module-theoretic mutation case for the pair (E_k, E_j).

    Returns 'extension' (r = ext multiplicity), or 'mono'/'epi' according to
    whether the canonical universal map built from the full Hom basis is
    injective or surjective (exact ranks).
    """
    e_k, e_j = _as_rep(e_k), _as_rep(e_j)
    if r < 1:
        raise ValueError("multiplicity r must be >= 1")
    q = e_k.table.quiver
    if ext_dim(e_k, e_j) == r and hom_dim(e_k, e_j) == 0 and hom_dim(e_j, e_k) == 0:
        return "extension"
    if hom_dim(e_k, e_j) == r:
        basis = hom_space(q, e_k.dim, maps_of(e_k), e_j.dim, maps_of(e_j))
        ranks = _universal_map_ranks(basis, e_k.dim, e_j.dim, r, "cols")
        if all(rk == r * e_k.dim[v] for v, rk in enumerate(ranks)):
            return "mono"
        if all(rk == e_j.dim[v] for v, rk in enumerate(ranks)):
            return "epi"
        raise InconclusiveGenericity("universal map is neither mono nor epi")
    if hom_dim(e_j, e_k) == r:
        basis = hom_space(q, e_j.dim, maps_of(e_j), e_k.dim, maps_of(e_k))
        ranks = _universal_map_ranks(basis, e_j.dim, e_k.dim, r, "rows")
        if all(rk == r * e_k.dim[v] for v, rk in enumerate(ranks)):
            return "epi"
        if all(rk == e_j.dim[v] for v, rk in enumerate(ranks)):
            return "mono"
        raise InconclusiveGenericity("universal map is neither mono nor epi")
    raise ValueError(
        f"r={r} matches neither the hom nor the ext multiplicity of the pair")


# --- extensions, decomposition, closure oracles ---

def decompose(table, dims, maps):
    """Multiset of indecomposable ids summing to the given representation,
    determined by Hom counts against the full table."""
    q = table.quiver
    reps = table.reps
    hvec = [len(hom_space(q, t.dim, maps_of(t), dims, maps)) for t in reps]
    hmat = [[hom_dim(t, u) for u in reps] for t in reps]
    mults = solve(hmat, hvec)
    out = []
    for i, mult in enumerate(mults):
        f = Fraction(mult)
        if f.denominator != 1 or f < 0:
            raise AssertionError("hom-count decomposition is not integral")
        out.extend([i] * int(f))
    if tuple(sum(reps[i].dim[v] for i in out) for v in range(q.n)) != tuple(dims):
        raise AssertionError("decomposition does not match the dimension vector")
    return out


def extension_middle(a, b):
    """Summand ids of the middle term of a nonsplit extension 0->b->E->a->0."""
    a, b = _as_rep(a), _as_rep(b)
    table = a.table
    q = table.quiver
    if ext_dim(a, b) == 0:
        raise ValueError("the pair has no nonsplit extension")
    arrows = [(u, w) for (u, w, _) in q.arrows()]
    maps_a, maps_b = maps_of(a), maps_of(b)
    # coboundary image: delta(phi)_(u,w) = B_(u,w) phi_u - phi_w A_(u,w)
    slots = [(arr, r, c) for arr in arrows
             for r in range(b.dim[arr[1]]) for c in range(a.dim[arr[0]])]
    phidims = [(v, r, c) for v in range(q.n)
               for r in range(b.dim[v]) for c in range(a.dim[v])]
    img_rows = []
    for (pv, pr, pc) in phidims:
        col = []
        for ((u, w), r, c) in slots:
            val = Fraction(0)
            if pv == u and pc == c:
                val += maps_b[(u, w)][r][pr]
            if pv == w and pr == r:
                val -= maps_a[(u, w)][pc][c]
            col.append(val)
        img_rows.append(col)
    existing = [row[:] for row in img_rows]
    base_rank = mat_rank(existing) if existing else 0
    chosen = None
    for t in range(len(slots)):
        zvec = [Fraction(1) if i == t else Fraction(0) for i in range(len(slots))]
        if mat_rank(existing + [zvec]) > base_rank:
            chosen = zvec
            break
    if chosen is None:
        raise AssertionError("no nonsplit cocycle found despite ext > 0")
    dims = tuple(b.dim[v] + a.dim[v] for v in range(q.n))
    maps = {}
    for (u, w) in arrows:
        mat = [[Fraction(0)] * dims[u] for _ in range(dims[w])]
        for r in range(b.dim[w]):
            for c in range(b.dim[u]):
                mat[r][c] = maps_b[(u, w)][r][c]
        for r in range(a.dim[w]):
            for c in range(a.dim[u]):
                mat[b.dim[w] + r][b.dim[u] + c] = maps_a[(u, w)][r][c]
        for idx, ((au, aw), r, c) in enumerate(slots):
            if (au, aw) == (u, w) and chosen[idx]:
                mat[r][b.dim[u] + c] = chosen[idx]
        maps[(u, w)] = tuple(tuple(row) for row in mat)
    return decompose(table, dims, maps)


def quotient_summand_dims(z):
    """All dimension vectors of indecomposable summands of proper quotients of
    a multiplicity-free representation z (all dims 0/1)."""
    z = _as_rep(z)
    if any(x > 1 for x in z.dim):
        raise ValueError("quotient oracle only handles multiplicity-free reps")
    q = z.table.quiver
    supp = frozenset(v for v in range(q.n) if z.dim[v])
    # a thin indecomposable of a tree quiver is nonzero on every arrow
    # inside its support
    live = [(u, w) for (u, w, _) in q.arrows() if u in supp and w in supp]
    out = set()
    subsets = []
    for bits in range(1 << len(supp)):
        verts = [v for i, v in enumerate(sorted(supp)) if bits >> i & 1]
        sset = frozenset(verts)
        if all(not (u in sset and w not in sset) for (u, w) in live):
            subsets.append(sset)
    for sub in subsets:
        rest = supp - sub
        if not rest or rest == supp:
            continue
        # connected components of the quotient support under live arrows
        comp = {v: v for v in rest}

        def find(v):
            while comp[v] != v:
                comp[v] = comp[comp[v]]
                v = comp[v]
            return v

        for (u, w) in live:
            if u in rest and w in rest:
                ru, rw = find(u), find(w)
                if ru != rw:
                    comp[ru] = rw
        groups = {}
        for v in rest:
            groups.setdefault(find(v), set()).add(v)
        for g in groups.values():
            out.add(tuple(1 if v in g else 0 for v in range(q.n)))
    return out


# --- generic subrepresentation cross-check ---

def canonical_decomposition(table, d):
    """Unique multiset of positive roots summing to d with pairwise Ext
    vanishing in both directions."""
    roots = [r.dim for r in table.reps]
    roots.sort(key=lambda r: (-sum(r), r))
    found = []

    def fits(r, rem):
        return all(x <= y for x, y in zip(r, rem))

    def dfs(rem, start, acc):
        if all(x == 0 for x in rem):
            found.append(list(acc))
            return
        for i in range(start, len(roots)):
            if fits(roots[i], rem):
                dfs(tuple(x - y for x, y in zip(rem, roots[i])), i, acc + [i])

    dfs(tuple(d), 0, [])
    valid = []
    for part in found:
        mods = [table.by_dim[roots[i]] for i in part]
        ok = all(ext_dim(x, y) == 0
                 for a, x in enumerate(mods) for b, y in enumerate(mods) if a != b)
        if ok:
            valid.append([roots[i] for i in part])
    if len(valid) != 1:
        raise AssertionError(
            f"canonical decomposition of {d} is not unique ({len(valid)} found)")
    return valid[0]


def generic_ext(table, a, b):
    da = canonical_decomposition(table, a)
    db = canonical_decomposition(table, b)
    return sum(ext_dim(table.by_dim[x], table.by_dim[y]) for x in da for y in db)


def generic_subdims(m):
    """Dimension vectors of all proper nonzero subrepresentations of a rigid
    m, by the generic-extension criterion ext(b, dim m - b) = 0 over every
    vector b, each ext from canonical decompositions. An independent oracle:
    its roots are exactly submodule_dims(m), and its other vectors are sums
    of those."""
    m = _as_rep(m)
    table = m.table
    d = m.dim
    out = set()
    ranges = [range(x + 1) for x in d]
    for cand in product(*ranges):
        if all(x == 0 for x in cand) or cand == d:
            continue
        rest = tuple(x - y for x, y in zip(d, cand))
        if generic_ext(table, cand, rest) == 0:
            out.add(cand)
    return out


# --- graded semibricks ---

def graded_brick_states(q, m):
    """Every set of n graded roots (s, x), 0 <= s <= m, with distinct roots,
    that is Hom-orthogonal within a slope (<x,y> <= 0 and <y,x> <= 0) and has
    <y,x> = 0 whenever y sits at a higher slope than x (Asai, Semibricks,
    IMRN 2020). Each set is formatted as canonical_key formats a state.

    Uses only the root list and the Euler form, no mutation code.
    """
    graded = [(s, r.dim) for s in range(m + 1) for r in indecomposables(q)]

    def fits(a, b):
        (s, x), (t, y) = a, b
        if x == y:
            return False
        if s == t:
            return (euler_pairing(q, x, y) <= 0
                    and euler_pairing(q, y, x) <= 0)
        if s > t:
            x, y = y, x
        return euler_pairing(q, y, x) == 0

    # later[i]: bitmask of the j > i that fit with graded[i]
    later = [sum(1 << j for j in range(i + 1, len(graded))
                 if fits(graded[i], graded[j]))
             for i in range(len(graded))]
    out = set()

    def grow(chosen, allowed):
        if len(chosen) == q.n:
            out.add(json.dumps(sorted(graded[i] for i in chosen),
                               separators=(",", ":")))
            return
        while allowed:
            i = (allowed & -allowed).bit_length() - 1
            allowed ^= 1 << i
            grow(chosen + [i], allowed & later[i])

    grow([], (1 << len(graded)) - 1)
    return out
