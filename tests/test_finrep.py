"""Indecomposables, hom/ext, walls, torsion classes, module oracles."""

from functools import cache
from itertools import product

import pytest

from mcfans.cli import main
from mcfans.enumeration import exchange_graph
from mcfans.errors import (NotExceptionalSequence, UnsupportedType)
from mcfans.finrep import (ShiftedProjective, Wall, check_wall_membership,
                           ext_dim, hom_dim, hom_space, indecomposables,
                           is_exceptional_sequence, restricted_walls, span_of,
                           submodule_dims, torsion_class_of_state,
                           verify_chamber, wall_of)
from mcfans.intmat import mat_mul, mat_vec, transpose
from mcfans.mutation import MutationContext, MutationState, mu_plus
from mcfans.seed import ValuedQuiver, euler_pairing, g_of_dim, preset
from mcfans.verify import (CheckFailure, check_structural_properties,
                           coxeter_hom_ext)
from oracles import (canonical_decomposition, dim_of_g, extension_middle,
                     generic_subdims, graded_brick_states, inverse, maps_of,
                     mutation_case_oracle, perp_category, quotient_summand_dims)

# --- tables ---

def test_table_sizes(q2, q3, table2, table3):
    assert len(table2) == 3 and len(table3) == 6
    assert len(indecomposables(preset("a_n:<<<"))) == 10
    assert set(table2.by_dim) == {(1, 0), (0, 1), (1, 1)}
    assert set(table3.by_dim) == {(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                  (1, 1, 0), (0, 1, 1), (1, 1, 1)}


def test_table_is_cached(q2, table2):
    assert indecomposables(q2) is table2


def test_table_cache_is_bounded(monkeypatch):
    import mcfans.finrep as finrep
    monkeypatch.setattr(finrep, "_TABLE_CACHE", {})
    monkeypatch.setattr(finrep, "_TABLE_CACHE_SIZE", 3)
    names = ["a_n:<<", "a_n:<>", "a_n:><", "a_n:>>", "a_n:<", "a_n:>"]
    first = [wall_of(r) for r in indecomposables(preset(names[0]))]
    for name in names:
        q = preset(name)
        table = indecomposables(q)
        assert len(finrep._TABLE_CACHE) <= 3
        assert q.key() in finrep._TABLE_CACHE
        # type A: one indecomposable per interval of vertices
        n = q.n
        assert set(table.by_dim) == {
            tuple(int(i <= k <= j) for k in range(n))
            for i in range(n) for j in range(i, n)}
    q = preset(names[0])
    assert q.key() not in finrep._TABLE_CACHE       # evicted first
    assert [wall_of(r) for r in indecomposables(q)] == first


def test_projectives_and_simples(table2, table3):
    assert table2.projective(1).dim == (1, 0)
    assert table2.projective(2).dim == (1, 1)
    assert table2.simple(2).dim == (0, 1)
    # vertices 1 and 3 are sinks, so their projectives are simple
    assert table3.projective(1).dim == (1, 0, 0)
    assert table3.projective(3).dim == (0, 0, 1)
    assert table3.projective(2).dim == (1, 1, 1)


def test_star_quiver_table():
    e = ((1, -1, -1, -1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    star = ValuedQuiver(4, e, name="star4")
    table = indecomposables(star)
    assert len(table) == 12
    assert (2, 1, 1, 1) in table.by_dim


def test_unsupported_quivers(q2t, qb2):
    with pytest.raises(UnsupportedType):
        indecomposables(q2t)
    with pytest.raises(UnsupportedType):
        indecomposables(qb2)


# --- hom / ext ---

def test_hom_ext_values(table2, table3):
    S1, S2, P2 = table2.simple(1), table2.simple(2), table2.projective(2)
    assert hom_dim(S1, P2) == 1 and hom_dim(P2, S1) == 0
    assert hom_dim(S2, S1) == 0 and ext_dim(S2, S1) == 1
    assert ext_dim(S1, S2) == 0
    assert hom_dim(table3.projective(2), table3.simple(2)) == 1
    assert ext_dim(table3.simple(2), table3.simple(3)) == 1


def test_hom_minus_ext_is_euler(q3, table3):
    for x in table3:
        for y in table3:
            assert hom_dim(x, y) - ext_dim(x, y) == \
                euler_pairing(q3, x.dim, y.dim)


def test_euler_form_matches_hom_space():
    e6 = _quiver(6, [(0, 1), (2, 1), (2, 3), (4, 3), (5, 2)])
    quivers = _small_dynkin() + [e6]
    # generic_subdims reads ext_dim, so it stays an independent oracle only
    # while its quivers are checked here against the matrices
    assert {q.key() for q in _generic_quivers()} <= {q.key() for q in quivers}
    pairs = 0
    for q in quivers:
        table = indecomposables(q)
        maps = {x: maps_of(x) for x in table}
        for x in table:
            for y in table:
                h = len(hom_space(q, x.dim, maps[x], y.dim, maps[y]))
                assert hom_dim(x, y) == h, (x, y)
                assert hom_dim(x, y) - ext_dim(x, y) == \
                    euler_pairing(q, x.dim, y.dim)
                pairs += 1
    assert pairs == 12114 + 36 * 36


def test_thin_indecomposables_are_nonzero_inside_their_support():
    # quotient_summand_dims takes every arrow inside the support as live
    thin = 0
    for q in _small_dynkin():
        for z in indecomposables(q):
            if max(z.dim) == 1:
                thin += 1
                for (u, w, _) in q.arrows():
                    if z.dim[u] and z.dim[w]:
                        assert maps_of(z)[(u, w)][0][0] != 0, (z, u, w)
    assert thin == 710


def test_coxeter_orbits_give_hom_and_ext():
    # the tau^-1-orbits of the projectives cover each table exactly
    # (coxeter_hom_ext raises otherwise), and the hom/ext they give equal
    # max(0, <x,y>) and max(0, -<x,y>) on every pair
    e6 = _quiver(6, [(0, 1), (2, 1), (2, 3), (4, 3), (5, 2)])
    pairs = 0
    for q in _small_dynkin() + [e6]:
        table = indecomposables(q)
        hom, ext = coxeter_hom_ext(table)
        for x in table:
            for y in table:
                assert (hom(x, y), ext(x, y)) == \
                    (hom_dim(x, y), ext_dim(x, y)), (x, y)
                pairs += 1
    assert pairs == 12114 + 36 * 36


def test_coxeter_oracle_fails_with_tau_for_tau_inverse(monkeypatch, table3):
    import mcfans.verify as verify

    def tau(table, x):
        # tau x = Phi x with Phi = -E^-1 E^T, in place of tau^-1 x
        e = table.quiver.euler
        phi = mat_mul(inverse(e), transpose(e))
        return table.by_dim.get(tuple(-v for v in mat_vec(phi, x.dim)))

    monkeypatch.setattr(verify, "_tau_inverse", tau)
    with pytest.raises(CheckFailure):
        coxeter_hom_ext(table3)
    with pytest.raises(CheckFailure):
        check_structural_properties()


def test_walls_fans_and_torsion_build_no_matrices(monkeypatch, capsys):
    import mcfans.finrep as finrep
    import mcfans.intmat as intmat

    def refuse(*args):
        raise AssertionError("a hom space or null space was solved for")

    for module, name in ((finrep, "hom_space"), (finrep, "nullspace"),
                         (intmat, "nullspace")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(finrep, "_TABLE_CACHE", {})
    for args in (["walls", "--quiver", "a_n:<><><><><><"],
                 ["render", "--quiver", "a3", "--format", "stats"],
                 ["fans", "--quiver", "a3", "--m", "2"],
                 ["verify"]):
        assert main(args) == 0, args
    capsys.readouterr()
    q3 = preset("a3")
    graph = exchange_graph(MutationContext(q3, 1))
    assert len({torsion_class_of_state(st)
                for st in graph.nodes.values()}) == 14
    sub = ValuedQuiver(3, ((1, 0, 0), (-1, 1, 0), (0, 0, 1)), name="a2xa1")
    assert restricted_walls(q3, sub).ok


def test_g_vector_lookup_inverts_dim_of_g():
    e6 = _quiver(6, [(0, 1), (2, 1), (2, 3), (4, 3), (5, 2)])
    roots = 0
    for q in _small_dynkin() + [e6]:
        table = indecomposables(q)
        assert len(table.by_g) == len(table)
        for r in table:
            g = g_of_dim(q, r.dim)
            assert table.by_g[g] is r
            assert dim_of_g(q, g) == r.dim
            roots += 1
    assert roots == 2 * 3 + 4 * 6 + 8 * 10 + 16 * 15 + 8 * 12 + 16 * 20 + 36


def test_silting_and_torsion_solve_no_linear_system(monkeypatch):
    import mcfans.intmat
    from mcfans.fans import silting_from_state

    def refuse(*args):
        raise AssertionError("a linear system was solved")

    monkeypatch.setattr(mcfans.intmat, "rref", refuse)
    q3 = preset("a3")
    for m in (1, 2, 3):
        for st in exchange_graph(MutationContext(q3, m)).nodes.values():
            assert len(silting_from_state(st).items) == 3
            if m == 1:
                torsion_class_of_state(st)
    table = indecomposables(q3)
    assert [table.projective(i).dim for i in (1, 2, 3)] == \
        [(1, 0, 0), (1, 1, 1), (0, 0, 1)]


def test_hom_rejects_foreign_pairs(table2, table3):
    with pytest.raises(ValueError):
        hom_dim(table2.simple(1), table3.simple(1))
    with pytest.raises(TypeError):
        hom_dim((1, 0), table2.simple(1))


def test_exceptional_sequences(table2, table3):
    S1, S2 = table2.simple(1), table2.simple(2)
    assert is_exceptional_sequence((S2, S1))
    assert not is_exceptional_sequence((S1, S2))
    assert is_exceptional_sequence(
        (table3.simple(2), table3.simple(1), table3.simple(3)))


# --- submodules and walls ---

def test_submodule_dims(table2, table3):
    assert submodule_dims(table2.projective(2)) == {(1, 0)}
    assert submodule_dims(table2.simple(1)) == set()
    # P2 also contains S1 + S3 = (1,0,1), which is not indecomposable
    assert submodule_dims(table3.projective(2)) == {(1, 0, 0), (0, 0, 1)}


def test_submodule_guard():
    # closed form: with every arrow i+1 -> i the subrepresentations of the
    # top root are exactly its initial segments, whatever its dimension
    table = indecomposables(preset("a_n:" + "<" * 12))
    assert submodule_dims(table.by_dim[(1,) * 13]) == {
        (1,) * k + (0,) * (13 - k) for k in range(1, 13)}


def test_e7_walls():
    # e7 (e8): the chain 0-...-5 (0-...-6) with one more vertex on 2, arrows
    # alternating; the largest root has total dimension 17 (29)
    e7 = _quiver(7, [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 2)])
    e8 = _quiver(8, [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (7, 2)])
    for q, count in ((e7, 63), (e8, 120)):
        table = indecomposables(q)
        assert len(table) == count
        roots = set(table.by_dim)
        for m in table:
            w = wall_of(m)
            assert w.normal == m.dim
            for d in w.subdims:
                assert d in roots and d != m.dim
                assert all(x <= y for x, y in zip(d, m.dim))


def test_wall_of(table2):
    w = wall_of(table2.projective(2))
    assert w == Wall((1, 1), {(1, 0)})
    assert w.to_json() == {"normal": [1, 1], "subdims": [[1, 0]]}
    # on the hyperplane, submodule side
    assert w.contains((-1, 1))
    # on the hyperplane but on the wrong side of the submodule inequality
    assert not w.contains((1, -1))
    # off the hyperplane entirely
    assert not w.contains((1, 0))


def test_check_wall_membership(table2):
    S1, S2, P2 = table2.simple(1), table2.simple(2), table2.projective(2)
    assert check_wall_membership(S1, S2) is True
    assert check_wall_membership(P2, S1) is True
    assert check_wall_membership(S1, S1) is False
    assert check_wall_membership(ShiftedProjective(table2, 1), S2) is True
    assert check_wall_membership(ShiftedProjective(table2, 2), S2) is False


def test_shifted_projective_guard(table2):
    with pytest.raises(ValueError):
        ShiftedProjective(table2, 3)


def test_verify_chamber(q2):
    graph = exchange_graph(MutationContext(q2, 1))
    assert all(verify_chamber(st) for st in graph.nodes.values())
    ctx3 = MutationContext(q2, 3)
    from mcfans.mutation import initial_state
    with pytest.raises(ValueError):
        verify_chamber(initial_state(ctx3))


# --- torsion classes ---

def test_torsion_chart(q2):
    graph = exchange_graph(MutationContext(q2, 1))
    chart = {tuple(map(tuple, torsion_class_of_state(st).dims()))
             for st in graph.nodes.values()}
    assert chart == {
        (),
        ((0, 1),),
        ((1, 0),),
        ((0, 1), (1, 1)),
        ((0, 1), (1, 0), (1, 1)),
    }


def test_torsion_distinct_rank3(q3):
    graph = exchange_graph(MutationContext(q3, 1))
    classes = {torsion_class_of_state(st) for st in graph.nodes.values()}
    assert len(classes) == 14


def test_torsion_json(q2):
    graph = exchange_graph(MutationContext(q2, 1))
    full = max((torsion_class_of_state(st) for st in graph.nodes.values()),
               key=lambda t: len(t.member_ids))
    assert full.to_json() == {"members": [[0, 1], [1, 0], [1, 1]]}
    assert [m.dim for m in full.members] != []


def test_torsion_needs_level_one(q2):
    from mcfans.mutation import initial_state
    with pytest.raises(ValueError):
        torsion_class_of_state(initial_state(MutationContext(q2, 2)))


# --- perpendicular categories and spans ---

def test_perp_category(table2):
    S1, S2 = table2.simple(1), table2.simple(2)
    assert [x.dim for x in perp_category([S1], "right")] == [(0, 1)]
    assert [x.dim for x in perp_category([S2], "left")] == [(1, 0)]
    with pytest.raises(ValueError):
        perp_category([S1], "down")
    with pytest.raises(ValueError):
        perp_category([], "left")


def test_span_of(table2):
    P2 = table2.projective(2)
    assert [x.dim for x in span_of([P2])] == [(1, 1)]
    assert span_of([], table=table2) == ()  # empty sequence spans nothing
    with pytest.raises(NotExceptionalSequence):
        span_of([table2.simple(1), table2.simple(2)])


# --- module-theoretic oracles ---

def test_mutation_case_oracle(table2, table3):
    S1, S2, P2 = table2.simple(1), table2.simple(2), table2.projective(2)
    assert mutation_case_oracle(S2, S1, 1) == "extension"
    assert mutation_case_oracle(S1, P2, 1) == "mono"
    assert mutation_case_oracle(table3.simple(2), table3.by_dim[(1, 1, 0)],
                                1) == "epi"
    with pytest.raises(ValueError):
        mutation_case_oracle(S1, S2, 0)
    with pytest.raises(ValueError):
        mutation_case_oracle(S1, S2, 2)


def test_extension_middle(table2, table3):
    S1, S2 = table2.simple(1), table2.simple(2)
    ids = extension_middle(S2, S1)
    assert [table2.reps[i].dim for i in ids] == [(1, 1)]
    ids = extension_middle(table3.simple(2), table3.simple(3))
    assert [table3.reps[i].dim for i in ids] == [(0, 1, 1)]
    with pytest.raises(ValueError):
        extension_middle(S1, S2)  # no nonsplit extension this way round


@cache
def _graph(q, m):
    return exchange_graph(MutationContext(q, m))


def _mutation_cases():
    d4 = _quiver(4, [(0, 1), (0, 2), (0, 3)])
    return ([(preset("a3"), m) for m in (1, 2, 3)]
            + [(preset("a_n:<><"), m) for m in (1, 2)]
            + [(d4, m) for m in (1, 2)])


@cache
def _case(table, ck, cj, r):
    return mutation_case_oracle(table.by_dim[ck], table.by_dim[cj], r)


@cache
def _middle(table, ck, cj):
    ids = extension_middle(table.by_dim[ck], table.by_dim[cj])
    return [table.reps[i].dim for i in ids]


def test_every_green_edge_matches_the_module_oracles():
    # mu_plus at k, for each j with r = B_kj > 0: at k's slope, E_j gains r
    # copies of E_k by extension; one slope up, the universal map
    # E_k^r -> E_j is mono (c_j keeps its slope) or epi (c_j is negated back
    # to k's slope); at any other slope c_j stays
    seen = {"extension": 0, "mono": 0, "epi": 0, "other": 0}
    for q, m in _mutation_cases():
        table = indecomposables(q)
        for st in _graph(q, m).nodes.values():
            b = st.B
            for k in range(q.n):
                sk = st.slopes[k]
                if sk == m:
                    continue
                ck = st.column(k)
                cols = [st.column(j) for j in range(q.n)]
                slopes = list(st.slopes)
                slopes[k] += 1
                for j, r in enumerate(b[k]):
                    if r <= 0:
                        continue
                    cj = cols[j]
                    if slopes[j] == sk:
                        kind = _case(table, ck, cj, r)
                        assert kind == "extension", (st, k, j)
                        assert _middle(table, ck, cj) == \
                            [tuple(x + y for x, y in zip(cj, ck))]
                        cols[j] = tuple(x + r * y for x, y in zip(cj, ck))
                    elif slopes[j] == sk + 1:
                        kind = _case(table, ck, cj, r)
                        assert kind in ("mono", "epi"), (st, k, j)
                        sign = 1 if kind == "mono" else -1
                        cols[j] = tuple(sign * (x - r * y)
                                        for x, y in zip(cj, ck))
                        if kind == "epi":
                            slopes[j] = sk
                    else:
                        kind = "other"
                    seen[kind] += 1
                assert mu_plus(st, k + 1) == \
                    MutationState(st.context, zip(*cols), slopes), (st, k)
    assert seen == {"extension": 498, "mono": 498, "epi": 498, "other": 498}


def _opposite(q):
    return ValuedQuiver(q.n, tuple(zip(*q.euler)), q.symmetrizer)


def test_graded_semibricks_are_the_states():
    for q, m in _mutation_cases() + [(preset("a_n:<><"), 3)]:
        keys = set(_graph(q, m).nodes)
        assert graded_brick_states(q, m) == keys, (q, m)
        # with <y,x> for <x,y> (the opposite quiver's form) the model breaks
        assert graded_brick_states(_opposite(q), m) != keys, (q, m)


def test_quotient_summand_dims(table2, table3):
    assert quotient_summand_dims(table2.projective(2)) == {(0, 1)}
    assert quotient_summand_dims(table3.projective(2)) == \
        {(0, 1, 0), (0, 1, 1), (1, 1, 0)}
    e = ((1, -1, -1, -1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    star = indecomposables(ValuedQuiver(4, e, name="star4"))
    with pytest.raises(ValueError):
        quotient_summand_dims(star.by_dim[(2, 1, 1, 1)])


def test_canonical_decomposition(table2):
    assert canonical_decomposition(table2, (1, 1)) == [(1, 1)]
    assert canonical_decomposition(table2, (2, 1)) == [(1, 1), (1, 0)]
    assert canonical_decomposition(table2, (1, 2)) == [(1, 1), (0, 1)]


def _quiver(n, arrows):
    """The quiver on vertices 0..n-1 with the given (source, target) arrows."""
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    for (u, w) in arrows:
        e[u][w] = -1
    return ValuedQuiver(n, tuple(map(tuple, e)))


def _sums(vectors, bound):
    """All nonzero sums of vectors (with repetition) that stay <= bound."""
    out, stack = set(), [(0,) * len(bound)]
    while stack:
        s = stack.pop()
        for v in vectors:
            t = tuple(x + y for x, y in zip(s, v))
            if t not in out and all(x <= y for x, y in zip(t, bound)):
                out.add(t)
                stack.append(t)
    return out


def _orientations(n, edges):
    """Every orientation of the tree on vertices 0..n-1 with these edges."""
    return [_quiver(n, [(w, u) if flip else (u, w)
                        for (u, w), flip in zip(edges, flips)])
            for flips in product((False, True), repeat=len(edges))]


def _small_dynkin():
    """Every orientation of A2-A5, D4 and D5."""
    quivers = [q for n in range(2, 6)
               for q in _orientations(n, [(i, i + 1) for i in range(n - 1)])]
    return (quivers + _orientations(4, [(0, 1), (0, 2), (0, 3)])
            + _orientations(5, [(0, 1), (1, 2), (2, 3), (2, 4)]))


def _generic_quivers():
    quivers = [preset("a_n:" + "".join(o))
               for n in (3, 4) for o in product("<>", repeat=n - 1)]
    quivers.append(_quiver(4, [(0, 1), (0, 2), (0, 3)]))  # d4
    # d5 in an orientation where <b, dim m - b> >= 0 alone admits a root
    # (0,1,1,1,1) that does not embed into (1,1,2,1,1)
    quivers.append(_quiver(5, [(1, 0), (2, 1), (2, 3), (2, 4)]))
    return quivers


def test_generic_subdims_match():
    for q in _generic_quivers():
        table = indecomposables(q)
        roots = set(table.by_dim)
        for m in table:
            generic, subs = generic_subdims(m), submodule_dims(m)
            assert generic & roots == subs
            # same <= 0 cone: every subdimension is a sum of indecomposable ones
            assert generic <= _sums(subs, m.dim)


# --- wall restriction under arrow deletion ---

def test_restricted_walls(q3):
    sub = ValuedQuiver(3, ((1, 0, 0), (-1, 1, 0), (0, 0, 1)), name="a2xa1")
    report = restricted_walls(q3, sub)
    assert report.ok and report.missing == []
    assert sorted(d for (d, _f, _w) in report.entries) == \
        [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    assert all(wall_match for (_d, _f, wall_match) in report.entries)


def test_restricted_walls_guards(q2, q3):
    with pytest.raises(ValueError):
        restricted_walls(q3, q2)  # rank mismatch
    added = ValuedQuiver(3, ((1, 0, -1), (-1, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        restricted_walls(q3, added)  # extra arrow not present upstream
    reversed_arrow = ValuedQuiver(3, ((1, -1, 0), (0, 1, 0), (0, -1, 1)))
    with pytest.raises(ValueError):
        restricted_walls(q3, reversed_arrow)
