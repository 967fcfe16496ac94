"""Exchange graphs, maximal green sequences, edge parity, components."""

import functools
import inspect
import json
import sys
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies

from mcfans import enumeration
from mcfans.enumeration import (DEFAULT_NODE_CAP, ExchangeGraph,
                                canonical_key, classify_edge, enumerate_mgs,
                                exchange_graph, fan_components, fuss_catalan,
                                graph_to_json, green_paths, longest_mgs,
                                mgs_to_json)
from mcfans.errors import NodeCapExceeded, NotInvertibleHere, SlopeAtMax
from mcfans.mutation import (MutationContext, MutationState, initial_state,
                             mu_minus, mu_plus)
from mcfans.seed import preset


def _graph(q, m, **kw):
    return exchange_graph(MutationContext(q, m), **kw)


def _orientations(n):
    """The preset names of all 2^(n-1) orientations of the path A_n."""
    return [f"a_n:{''.join(o)}" for o in product("<>", repeat=n - 1)]


# --- oracles: brute-force key and two-sided closure ---

def _lexmin_key(st):
    """Lexicographically minimal JSON of (B, |C|, slopes) over all n! column
    permutations; a permutation reorders C-columns and slopes and conjugates
    B. Brute-force oracle for canonical_key."""
    n = st.context.n
    sb = st.B
    best = None
    for p in permutations(range(n)):
        b = tuple(tuple(sb[p[i]][p[j]] for j in range(n)) for i in range(n))
        absc = tuple(tuple(st.absC[i][p[j]] for j in range(n)) for i in range(n))
        slopes = tuple(st.slopes[p[j]] for j in range(n))
        cand = json.dumps([b, absc, slopes], separators=(",", ":"))
        if best is None or cand < best:
            best = cand
    return best


def _two_sided_closure(ctx, node_cap=DEFAULT_NODE_CAP):
    """Closure of the initial state under mu_plus and mu_minus, with a green
    edge recorded for every mu_plus from a representative. Oracle for the
    green-only closure of exchange_graph; it shares canonical_key, which
    test_canonical_key_matches_lexmin_oracle checks on its own."""
    init = initial_state(ctx)
    reps = {canonical_key(init): init}
    edges = []
    queue = list(reps)
    qi = 0
    while qi < len(queue):
        key = queue[qi]
        qi += 1
        st = reps[key]
        for k in range(1, ctx.n + 1):
            found = []
            if st.slopes[k - 1] < ctx.m:
                nxt = mu_plus(st, k)
                found.append(nxt)
                edges.append((key, canonical_key(nxt), k, classify_edge(st, k)))
            if st.slopes[k - 1] > 0:
                try:
                    found.append(mu_minus(st, k))
                except NotInvertibleHere:
                    pass
            for other in found:
                okey = canonical_key(other)
                if okey not in reps:
                    reps[okey] = other
                    queue.append(okey)
                    if len(reps) > node_cap:
                        raise NodeCapExceeded(f"closure exceeds {node_cap} nodes")
    return reps, edges


def _labelled_edges(reps, edges):
    """Edges with the mutated vertex replaced by the graded column crossed,
    which does not depend on the column order of the representative."""
    return sorted((u, v, reps[u].slopes[k - 1], reps[u].column(k - 1), p)
                  for (u, v, k, p) in edges)


# --- counts ---

def test_rank2_counts(q2):
    assert tuple(len(_graph(q2, m)) for m in (1, 2, 3)) == (5, 12, 22)


def test_rank3_counts(q3):
    assert tuple(len(_graph(q3, m)) for m in (1, 2, 3)) == (14, 55, 140)


def test_valued_rank2_counts(qb2):
    # type-B analogue: 6 clusters at level 1, 15 at level 2
    assert len(_graph(qb2, 1)) == 6
    assert len(_graph(qb2, 2)) == 15


def test_counts_match_closed_form(q2, q3):
    for n, q in ((2, q2), (3, q3)):
        for m in (1, 2, 3):
            assert len(_graph(q, m)) == fuss_catalan(n, m)


def test_fuss_catalan_values():
    assert fuss_catalan(2, 1) == 5
    assert fuss_catalan(2, 3) == 22
    assert fuss_catalan(3, 3) == 140
    with pytest.raises(ValueError):
        fuss_catalan(0, 3)
    with pytest.raises(ValueError):
        fuss_catalan(2, 0)


def test_pentagon_shape(q2):
    g = _graph(q2, 1)
    assert len(g) == 5 and len(g.edges) == 5
    assert len(g.terminals) == 1
    deg = {}
    for (u, v, _k, _p) in g.edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert sorted(deg.values()) == [2, 2, 2, 2, 2]


def test_node_cap(q2, q2t):
    with pytest.raises(NodeCapExceeded):
        _graph(q2, 3, node_cap=5)
    # the affine triangle has an infinite exchange graph at every level,
    # closed under mu_plus alone or under both mutations
    for m in (1, 2):
        with pytest.raises(NodeCapExceeded):
            _graph(q2t, m, node_cap=50)
        with pytest.raises(NodeCapExceeded):
            _two_sided_closure(MutationContext(q2t, m), node_cap=50)


def test_depth_cap(q2t, q3):
    # the affine triangle's graph closes once BFS depth is capped
    assert len(_graph(q2t, 1, depth_cap=80)) == 248
    # a cap at the longest green path leaves a finite-type graph whole
    full, capped = _graph(q3, 1), _graph(q3, 1, depth_cap=6)
    assert capped.nodes.keys() == full.nodes.keys()
    assert capped.edges == full.edges
    # below it, the nodes are those within cap steps, and only they expand
    g = _graph(q3, 1, depth_cap=2)
    depth = {g.initial: 0}
    for (u, v, _k, _p) in g.edges:
        depth.setdefault(v, depth[u] + 1)
    assert depth.keys() == g.nodes.keys() and max(depth.values()) == 2
    assert all(depth[u] < 2 for (u, _v, _k, _p) in g.edges)
    with pytest.raises(ValueError):
        _graph(q3, 1, depth_cap=0)


# --- canonical keys ---

def test_canonical_key_permutation_invariance(q3):
    ctx = MutationContext(q3, 3)
    st = MutationState(ctx, ((0, 1, 0), (1, 1, 0), (0, 0, 1)), (2, 1, 2))
    sb = st.B
    assert sb == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    n = 3
    for p in ((1, 2, 0), (2, 0, 1), (1, 0, 2)):
        b = tuple(tuple(sb[p[i]][p[j]] for j in range(n)) for i in range(n))
        absc = tuple(tuple(st.absC[i][p[j]] for j in range(n)) for i in range(n))
        slopes = tuple(st.slopes[p[j]] for j in range(n))
        shuffled = MutationState(ctx, absc, slopes)
        assert shuffled.B == b  # permuting columns conjugates B
        assert canonical_key(shuffled) == canonical_key(st)
    assert canonical_key(st) != canonical_key(initial_state(ctx))


KEY_ORACLE_CASES = ([("a3", m) for m in (1, 2, 3)]
                    + [(name, m) for name in _orientations(4) for m in (1, 2)]
                    + [("b2", 1), ("b2", 2)])


@pytest.mark.parametrize("name,m", KEY_ORACLE_CASES)
def test_canonical_key_matches_lexmin_oracle(name, m, qb2):
    q = qb2 if name == "b2" else preset(name)
    graph = _graph(q, m)
    # every representative and every mu_plus image of one, so each class is
    # met in several column orders
    states = list(graph.nodes.values())
    for st in graph.nodes.values():
        states.extend(mu_plus(st, k) for k in range(1, q.n + 1)
                      if st.slopes[k - 1] < m)
    new_to_old, old_to_new = {}, {}
    for st in states:
        new, old = canonical_key(st), _lexmin_key(st)
        assert new_to_old.setdefault(new, old) == old
        assert old_to_new.setdefault(old, new) == new
    assert len(new_to_old) == len(graph)


def test_canonical_key_format(q2, state_x):
    assert canonical_key(initial_state(MutationContext(q2, 1))) == \
        "[[0,[0,1]],[0,[1,0]]]"
    # columns (0,1,0), (1,1,0), (0,0,1) at slopes 2, 1, 2
    assert canonical_key(state_x) == "[[1,[1,1,0]],[2,[0,0,1]],[2,[0,1,0]]]"


CLOSURE_CASES = ([(name, m) for n in (2, 3, 4) for name in _orientations(n)
                  for m in (1, 2, 3)]
                 + [(name, m) for name in ("a2", "a3", "b2") for m in (1, 2, 3)])


@pytest.mark.parametrize("name,m", CLOSURE_CASES)
def test_green_closure_matches_two_sided_closure(name, m, qb2):
    ctx = MutationContext(qb2 if name == "b2" else preset(name), m)
    graph = exchange_graph(ctx)
    reps, edges = _two_sided_closure(ctx)
    assert set(graph.nodes) == set(reps)
    assert _labelled_edges(graph.nodes, graph.edges) == \
        _labelled_edges(reps, edges)


# --- edge parity ---

def test_classify_edge(q2, q3):
    ctx2 = MutationContext(q2, 3)
    st1 = initial_state(ctx2)
    assert classify_edge(st1, 2) == "horizontal"
    st2 = MutationState(ctx2, ((1, 0), (1, 1)), (0, 1))
    assert st2.B == ((0, 1), (-1, 0))
    assert classify_edge(st2, 2) == "vertical"
    ctx3 = MutationContext(q3, 3)
    x = MutationState(ctx3, ((0, 1, 0), (1, 1, 0), (0, 0, 1)), (2, 1, 2))
    assert x.B == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    assert classify_edge(x, 3) == "horizontal"
    assert classify_edge(x, 2) == "vertical"
    top = MutationState(ctx2, ((0, 1), (1, 0)), (3, 3))
    assert top.B == ((0, 1), (-1, 0))
    with pytest.raises(SlopeAtMax):
        classify_edge(top, 1)


# --- green sequences ---

def test_mgs_small(q2):
    res = enumerate_mgs(MutationContext(q2, 1), depth_cap=5)
    assert not res.truncated
    assert [r.mutations for r in res.records] == [(1, 2), (2, 1, 2)]
    assert [c.coords for c in res.records[0].crossings] == [(1, 0), (0, 1)]
    assert [c.coords for c in res.records[1].crossings] == [(0, 1), (1, 1), (1, 0)]
    assert all(c.grade == 0 for r in res.records for c in r.crossings)


def test_mgs_level3(q2):
    res = enumerate_mgs(MutationContext(q2, 3), depth_cap=9)
    assert not res.truncated
    assert len(res) == 27
    lengths = sorted(r.length for r in res.records)
    assert lengths[0] == 6 and lengths[-1] == 9
    assert any(r.mutations == (2, 2, 2, 1, 1, 1, 2) for r in res.records)
    first = res.records[0]
    assert first.mutations == (1, 1, 1, 2, 2, 2)
    assert [(c.coords, c.grade) for c in first.crossings] == [
        ((1, 0), 0), ((1, 0), 1), ((1, 0), 2),
        ((0, 1), 0), ((0, 1), 1), ((0, 1), 2)]


def test_mgs_affine(q2t):
    res = enumerate_mgs(MutationContext(q2t, 1), depth_cap=10)
    assert res.truncated  # longer green walks exist past the cap
    found = {r.mutations: tuple(c.coords for c in r.crossings)
             for r in res.records}
    assert found == {
        (2, 1, 3, 2, 3): ((0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (1, 0, 0)),
        (2, 1, 2, 3): ((0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 1)),
        (1, 2, 3): ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        (1, 3, 2, 3): ((1, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)),
        (3, 1, 3, 2, 1): ((0, 0, 1), (1, 0, 1), (1, 0, 0), (0, 1, 1), (0, 1, 0)),
    }
    short = enumerate_mgs(MutationContext(q2t, 1), depth_cap=4)
    assert short.truncated and len(short) == 3


def _recursive_mgs(ctx, depth_cap):
    """Recursive DFS over green mutations, ascending vertex at every branch:
    oracle for the records (mutations and crossings) and truncation flag of
    enumerate_mgs. ends(st, left) returns the (mutations, crossings) of the
    green walks from st that reach a terminal state within left steps, in
    DFS order, and whether some walk of left steps from st stops short of
    one. It is cached on (st, left), which only saves repeated calls."""

    @functools.lru_cache(maxsize=None)
    def ends(st, left):
        if all(s == ctx.m for s in st.slopes):
            return [((), ())], False
        if left == 0:
            return [], True
        found, truncated = [], False
        for k in range(1, ctx.n + 1):
            if st.slopes[k - 1] < ctx.m:
                rest, cut = ends(mu_plus(st, k), left - 1)
                column = st.graded_column(k - 1)
                found.extend(((k,) + ks, (column,) + cs) for ks, cs in rest)
                truncated = truncated or cut
        return found, truncated

    return ends(initial_state(ctx), depth_cap)


def _records(res):
    return [(r.mutations, r.crossings) for r in res.records]


MGS_ORACLE_CASES = list(dict.fromkeys(
    [("a3", 2, 20), ("a_n:<><", 1, 12), ("a2tilde", 1, 7), ("a2tilde", 2, 6)]
    + [("a3", 2, cap) for cap in range(1, 7)]
    + [(name, 1, 10) for name in _orientations(4)]
    + [("a2tilde", 1, cap) for cap in range(3, 13)]))


@pytest.mark.parametrize("name,m,cap", MGS_ORACLE_CASES)
def test_mgs_order_matches_recursive_dfs(name, m, cap):
    ctx = MutationContext(preset(name), m)
    res = enumerate_mgs(ctx, cap)
    assert (_records(res), res.truncated) == _recursive_mgs(ctx, cap)


@settings(max_examples=40, deadline=None)
@given(n=strategies.integers(min_value=2, max_value=4),
       data=strategies.data(),
       m=strategies.integers(min_value=1, max_value=3),
       cap=strategies.integers(min_value=1, max_value=12))
def test_mgs_matches_recursive_dfs_on_random_orientations(n, data, m, cap):
    name = data.draw(strategies.sampled_from(_orientations(n)))
    ctx = MutationContext(preset(name), m)
    res = enumerate_mgs(ctx, cap)
    assert (_records(res), res.truncated) == _recursive_mgs(ctx, cap)


@pytest.mark.parametrize("name,m,cap", MGS_ORACLE_CASES)
def test_first_mgs_is_the_first_record(name, m, cap):
    # the lexicographically first MGS is listed first, and it ends at the
    # one terminal node of the capped graph, where dilog reads its series
    ctx = MutationContext(preset(name), m)
    records = enumerate_mgs(ctx, cap).records
    graph = exchange_graph(ctx, depth_cap=cap)
    if not records:
        assert graph.terminals == []
        return
    first = records[0]
    assert first.mutations == min(r.mutations for r in records)
    end = initial_state(ctx)
    for k in first.mutations:
        end = mu_plus(end, k)
    assert graph.terminals == [canonical_key(end)]


def test_first_mgs_none_when_nothing_ends(q2):
    ctx = MutationContext(q2, 1)
    assert len(enumerate_mgs(ctx, 1)) == 0
    graph = exchange_graph(ctx, depth_cap=1)
    assert graph.terminals == []
    assert green_paths(graph, 1).count == 0


def test_mgs_skips_branches_that_cannot_end(q2t, monkeypatch):
    # in the affine tube almost every green walk never ends; the parent
    # listing walked all of them up to the cap, millions of mu_plus calls
    ctx = MutationContext(q2t, 1)
    expected = _records(enumerate_mgs(ctx, 10))
    calls = 0

    def counting_mu_plus(st, k):
        nonlocal calls
        calls += 1
        assert calls <= 10000, "too many mu_plus calls"
        return mu_plus(st, k)

    monkeypatch.setattr(enumeration, "mu_plus", counting_mu_plus)
    res = enumerate_mgs(ctx, 2000)
    assert res.truncated and len(expected) == 5
    assert _records(res) == expected


def test_mgs_depth_not_bounded_by_recursion_limit(q2t):
    ctx = MutationContext(q2t, 1)
    expected = [r.mutations for r in enumerate_mgs(ctx, 10).records]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        res = enumerate_mgs(ctx, 150)
    finally:
        sys.setrecursionlimit(limit)
    assert res.truncated
    assert [r.mutations for r in res.records] == expected


def test_mgs_guards(q2):
    with pytest.raises(ValueError):
        enumerate_mgs(MutationContext(q2, 1), depth_cap=0)


def test_longest(q2, q3):
    assert longest_mgs(MutationContext(q2, 3)) == 9
    assert longest_mgs(MutationContext(q3, 3)) == 18


# --- green_paths against plain recursion over the edges ---

@functools.lru_cache(maxsize=None)
def _path_oracle(name, m):
    """Context, full graph, count-and-truncated by cap, longest green path
    and fewest steps to a terminal node, by memoized recursion over
    graph.edges; shares no code with green_paths."""
    ctx = MutationContext(preset(name), m)
    graph = exchange_graph(ctx)
    succ = {key: [] for key in graph.nodes}
    for (u, v, _k, _p) in graph.edges:
        succ[u].append(v)
    terminals = set(graph.terminals)

    @functools.lru_cache(maxsize=None)
    def count(u, left):  # paths of at most left steps from u to a terminal
        if u in terminals:
            return 1
        return sum(count(v, left - 1) for v in succ[u]) if left else 0

    @functools.lru_cache(maxsize=None)
    def goes_on(u, steps):  # a walk of exactly steps steps ends non-terminal
        if steps == 0:
            return u not in terminals
        return any(goes_on(v, steps - 1) for v in succ[u])

    @functools.lru_cache(maxsize=None)
    def longest(u):
        return max((longest(v) + 1 for v in succ[u]), default=0)

    @functools.lru_cache(maxsize=None)
    def fewest(u):
        return 0 if u in terminals else min(fewest(v) + 1 for v in succ[u])

    def by_cap(cap):
        return count(graph.initial, cap), goes_on(graph.initial, cap)

    return (ctx, graph, by_cap, longest(graph.initial),
            {key: fewest(key) for key in graph.nodes})


@pytest.mark.parametrize("name,m", [(name, m) for n in (2, 3, 4)
                                    for name in _orientations(n)
                                    for m in (1, 2, 3)])
def test_green_paths_match_recursion(name, m):
    # every cap up to one past the longest sequence, so both truncated and
    # complete listings are checked; capped graphs of a4 at m >= 2 are
    # sampled by the property test below
    ctx, graph, by_cap, length, to_end = _path_oracle(name, m)
    assert green_paths(graph).to_end == to_end
    assert longest_mgs(ctx) == length == m * ctx.n * (ctx.n + 1) // 2
    assert by_cap(1)[1] and not by_cap(length + 1)[1]
    for cap in range(1, length + 2):
        graphs = [graph]
        if ctx.n <= 3 or m == 1:
            graphs.append(exchange_graph(ctx, depth_cap=cap))
        for g in graphs:
            paths = green_paths(g, cap)
            assert (paths.count, paths.truncated) == by_cap(cap), (cap, len(g))


@settings(max_examples=20, deadline=10000)
@given(data=strategies.data(), m=strategies.integers(min_value=2, max_value=3))
def test_green_paths_match_recursion_on_capped_a4_graphs(data, m):
    name = data.draw(strategies.sampled_from(_orientations(4)))
    ctx, _graph, by_cap, length, _to_end = _path_oracle(name, m)
    cap = data.draw(strategies.integers(min_value=1, max_value=length + 1))
    paths = green_paths(exchange_graph(ctx, depth_cap=cap), cap)
    assert (paths.count, paths.truncated) == by_cap(cap)


def test_green_paths_rejects_a_cycle():
    graph = ExchangeGraph({"a": None, "b": None},
                          [("a", "b", 1, "horizontal"),
                           ("b", "a", 1, "horizontal")], "a", [])
    with pytest.raises(ValueError, match="cycle"):
        green_paths(graph)


# --- parity components ---

def test_fan_components_rank2(q2):
    g = _graph(q2, 3)
    assert [len(c) for c in fan_components(g, "horizontal")] == [5, 5, 4, 4, 4]
    assert [len(c) for c in fan_components(g, "vertical")] == \
        [5, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1]


def test_fan_components_rank3(q3):
    g = _graph(q3, 3)
    hor = fan_components(g, "horizontal")
    assert [len(c) for c in hor] == [14, 14, 10, 10, 10, 10, 10, 10, 10, 10,
                                     8, 8, 8, 8]
    assert len(fan_components(g, "vertical")) == 55


def test_fan_components_partition(q2):
    g = _graph(q2, 2)
    for parity in ("horizontal", "vertical"):
        comps = fan_components(g, parity)
        seen = [k for c in comps for k in c]
        assert sorted(seen) == sorted(g.nodes)
    with pytest.raises(ValueError):
        fan_components(g, "diagonal")


# --- serialization ---

def test_graph_json(q2):
    g = _graph(q2, 1)
    data = graph_to_json(g)
    assert set(data) == {"nodes", "edges", "initial", "terminals"}
    assert len(data["nodes"]) == 5 and len(data["edges"]) == 5
    keys = {n["key"] for n in data["nodes"]}
    assert data["initial"] in keys
    assert all(e["parity"] in ("horizontal", "vertical") for e in data["edges"])
    assert all(n["state"]["quiver"] == "a2" for n in data["nodes"])


def test_mgs_json(q2):
    res = enumerate_mgs(MutationContext(q2, 1), depth_cap=5)
    data = mgs_to_json(res)
    assert data["truncated"] is False
    assert len(data["sequences"]) == 2
    assert data["sequences"][0] == {
        "mutations": [1, 2],
        "crossings": [{"dim": [1, 0], "slope": 0}, {"dim": [0, 1], "slope": 0}]}
