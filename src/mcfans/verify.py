"""End-to-end verification battery behind the `verify` CLI subcommand.

Every check recomputes a structure from scratch and compares it exactly
against frozen integer data; there are no tolerances anywhere. Each check
function returns a one-line detail string on success and raises
CheckFailure (or any other exception) on mismatch.
"""

import time

from .dilog import check_pentagon, dt_invariant_check
from .enumeration import (enumerate_mgs, exchange_graph, fan_components,
                          fuss_catalan, longest_mgs)
from .fans import (check_hv_invariance, configuration_of_state,
                   horizontal_algebra, silting_from_state, vertical_algebra)
from .finrep import (ShiftedProjective, check_wall_membership, ext_dim,
                     hom_dim, indecomposables, restricted_walls,
                     torsion_class_of_state, wall_of)
from .intmat import det, dot
from .mutation import (MutationContext, MutationState, initial_state,
                       mu_minus, mu_plus, signed_c_matrix, validate_state)
from .render import render_picture
from .seed import ValuedQuiver, preset


class CheckFailure(AssertionError):
    """A verification check found a mismatch."""


def _require(cond, msg):
    if not cond:
        raise CheckFailure(msg)


# --- frozen mutation chains -------------------------------------------------

# the eight-state a2 m=3 chain under mutations (2,2,2,1,1,1,2)
A2_M3_CHAIN = (
    (((0, -1), (1, 0)), ((1, 0), (0, 1)), (0, 0)),
    (((0, 1), (-1, 0)), ((1, 0), (1, 1)), (0, 1)),
    (((0, -1), (1, 0)), ((1, 0), (1, 1)), (0, 2)),
    (((0, 1), (-1, 0)), ((1, 0), (1, 1)), (0, 3)),
    (((0, -1), (1, 0)), ((1, 0), (1, 1)), (1, 3)),
    (((0, 1), (-1, 0)), ((1, 0), (1, 1)), (2, 3)),
    (((0, -1), (1, 0)), ((1, 1), (1, 0)), (3, 2)),
    (((0, 1), (-1, 0)), ((0, 1), (1, 0)), (3, 3)),
)
A2_M3_CHAIN_MUTATIONS = (2, 2, 2, 1, 1, 1, 2)

# the three displayed a3 m=3 states around an even/odd mutation pair
A3_STATE_X = (((0, -1, 1), (1, 0, -1), (-1, 1, 0)),
              ((0, 1, 0), (1, 1, 0), (0, 0, 1)), (2, 1, 2))
A3_STATE_Y = (((0, 1, 0), (-1, 0, 1), (0, -1, 0)),
              ((1, 1, 0), (0, 1, 0), (0, 0, 1)), (1, 2, 2))
A3_STATE_Z_B = ((0, -1, -1), (1, 0, 1), (1, -1, 0))
A3_STATE_Z_SLOPES = (2, 1, 3)

# the five a2tilde m=1 green sequences with their wall-crossing dimensions
A2TILDE_SEQUENCES = {
    (2, 1, 3, 2, 3): ((0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (1, 0, 0)),
    (2, 1, 2, 3): ((0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 1)),
    (1, 2, 3): ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    (1, 3, 2, 3): ((1, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)),
    (3, 1, 3, 2, 1): ((0, 0, 1), (1, 0, 1), (1, 0, 0), (0, 1, 1), (0, 1, 0)),
}

# the five a2 m=1 torsion classes, as sorted member-dimension tuples
A2_TORSION_CLASSES = {
    (),
    ((0, 1),),
    ((1, 0),),
    ((0, 1), (1, 1)),
    ((0, 1), (1, 0), (1, 1)),
}

# recovered tilting-complex summands of the a3 state X: (dim, level) pairs
A3_X_SILTING = (((0, 1, 1), 1), ((1, 0, 0), 2), ((0, 0, 1), 1))


def _state(quiver_name, m, frozen):
    b, absc, slopes = frozen
    st = MutationState(MutationContext(preset(quiver_name), m), absc, slopes)
    _require(st.B == b, f"frozen B differs from the one derived from {absc}")
    return st


def _display(st):
    return (st.B, st.absC, st.slopes)


def _graph(quiver_name, m, node_cap=None):
    return exchange_graph(MutationContext(preset(quiver_name), m),
                          node_cap=node_cap)


# --- the checks -------------------------------------------------------------

def check_small_cycle():
    """a2 at level 1: five states forming a single cycle."""
    graph = _graph("a2", 1)
    _require(len(graph) == 5, f"expected 5 states, got {len(graph)}")
    und = {frozenset((u, v)) for (u, v, _k, _p) in graph.edges}
    _require(len(und) == 5, f"expected 5 distinct edges, got {len(und)}")
    deg = {key: 0 for key in graph.nodes}
    for e in und:
        for key in e:
            deg[key] += 1
    _require(all(d == 2 for d in deg.values()),
             f"degrees {sorted(deg.values())} are not all 2")
    seen = set()
    frontier = [next(iter(graph.nodes))]
    while frontier:
        x = frontier.pop()
        if x in seen:
            continue
        seen.add(x)
        for e in und:
            if x in e:
                frontier.extend(e - {x})
    _require(len(seen) == 5, "edge graph is not connected")
    return "5 states in a single 5-cycle"


def check_state_counts():
    """Exchange-graph sizes agree with the Fuss-Catalan closed form."""
    c2 = len(_graph("a2", 3))
    c3 = len(_graph("a3", 3))
    _require(c2 == 22 == fuss_catalan(2, 3), f"a2 m=3 count {c2} != 22")
    _require(c3 == 140 == fuss_catalan(3, 3), f"a3 m=3 count {c3} != 140")
    return "a2 m=3: 22 states, a3 m=3: 140 states (= Fuss-Catalan)"


def check_worked_mutations():
    """Replaying frozen mutation chains reproduces every matrix entry."""
    # a2, m=3: eight-state chain
    st = initial_state(MutationContext(preset("a2"), 3))
    _require(_display(st) == A2_M3_CHAIN[0], "initial a2 m=3 state differs")
    for i, k in enumerate(A2_M3_CHAIN_MUTATIONS):
        st = mu_plus(st, k)
        _require(_display(st) == A2_M3_CHAIN[i + 1],
                 f"chain state {i + 2} differs after mu_plus(..., {k})")
    # a2, m=2: two slope-raising steps at vertex 1 leave C = I, flip B
    st = initial_state(MutationContext(preset("a2"), 2))
    ident = ((1, 0), (0, 1))
    st1 = mu_plus(st, 1)
    _require(_display(st1) == (((0, 1), (-1, 0)), ident, (1, 0)),
             "first a2 m=2 step differs")
    st2 = mu_plus(st1, 1)
    _require(_display(st2) == (((0, -1), (1, 0)), ident, (2, 0)),
             "second a2 m=2 step differs")
    # a3, m=3: X -> Y (even vertex) and X -> Z (odd vertex)
    stx = _state("a3", 3, A3_STATE_X)
    sty = mu_plus(stx, 2)
    _require(_display(sty) == A3_STATE_Y, "mu_plus(X, 2) != Y")
    stz = mu_plus(stx, 3)
    _require(stz.B == A3_STATE_Z_B, "mu_plus(X, 3) B-matrix differs")
    _require(stz.slopes == A3_STATE_Z_SLOPES, "mu_plus(X, 3) slopes differ")
    _require(stz.column(0) == stx.column(0)
             and stz.column(1) == stx.column(1),
             "mu_plus(X, 3) altered an unrelated column")
    return "8-state a2 chain, a2 m=2 double step, and X->Y/X->Z all match"


def check_longest_sequences():
    """Longest green sequence: 9 for a2 m=3, 18 for a3 m=3."""
    l2 = longest_mgs(MutationContext(preset("a2"), 3))
    _require(l2 == 9, f"a2 m=3 longest {l2} != 9")
    l3 = longest_mgs(MutationContext(preset("a3"), 3))
    _require(l3 == 18, f"a3 m=3 longest {l3} != 18")
    return "longest sequences: 9 (a2 m=3) and 18 (a3 m=3)"


def check_affine_sequences():
    """a2tilde m=1: exactly five green sequences with charted crossings."""
    ctx = MutationContext(preset("a2tilde"), 1)
    res = enumerate_mgs(ctx, 10)
    _require(len(res) == 5, f"expected 5 sequences, got {len(res)}")
    lengths = sorted(rec.length for rec in res)
    _require(lengths == [3, 4, 4, 5, 5], f"lengths {lengths}")
    found = {rec.mutations: tuple(c.coords for c in rec.crossings)
             for rec in res}
    _require(found == A2TILDE_SEQUENCES,
             f"crossing chart differs: {sorted(found)}")
    return "5 sequences, lengths 3/4/4/5/5, crossings match the chart"


def check_graded_duality():
    """Silting recovery succeeds on every a2/a3 state for m = 1, 2, 3."""
    total = 0
    for name in ("a2", "a3"):
        for m in (1, 2, 3):
            graph = _graph(name, m)
            for st in graph.nodes.values():
                silting_from_state(st)  # raises DualityViolation on failure
                total += 1
    stx = _state("a3", 3, A3_STATE_X)
    tx = silting_from_state(stx)
    got = tuple((it.dim, it.level) for it in tx.items)
    _require(got == A3_X_SILTING, f"silting of X differs: {got}")
    _require(all(it.kind == "module" for it in tx.items),
             "silting of X should consist of modules")
    return f"duality pairing holds on {total} states; T(X) summands match"


def check_torsion_classes():
    """Level-1 torsion classes: the 5 charted for a2, 14 distinct for a3."""
    g2 = _graph("a2", 1)
    classes2 = {tuple(sorted(torsion_class_of_state(st).dims()))
                for st in g2.nodes.values()}
    _require(classes2 == A2_TORSION_CLASSES,
             f"a2 torsion classes differ: {sorted(classes2)}")
    g3 = _graph("a3", 1)
    classes3 = {tuple(sorted(torsion_class_of_state(st).dims()))
                for st in g3.nodes.values()}
    _require(len(classes3) == 14,
             f"a3 yields {len(classes3)} distinct classes, not 14")
    return "a2: the 5 charted classes; a3: 14 distinct classes"


def _algebra_partition(graph, parity):
    fn = horizontal_algebra if parity == "horizontal" else vertical_algebra
    groups = {}
    for key, st in graph.nodes.items():
        alg = fn(configuration_of_state(st))
        groups.setdefault(alg, []).append(key)
    return {frozenset(v) for v in groups.values()}


def check_fan_partitions():
    """Fan components match algebra-level grouping, with frozen shapes."""
    g2 = _graph("a2", 3)
    h2 = fan_components(g2, "horizontal")
    v2 = fan_components(g2, "vertical")
    _require(sorted(map(len, h2), reverse=True) == [5, 5, 4, 4, 4],
             f"a2 horizontal sizes {sorted(map(len, h2))}")
    _require(sorted(map(len, v2), reverse=True)
             == [5, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1],
             f"a2 vertical sizes {sorted(map(len, v2))}")
    g3 = _graph("a3", 3)
    h3 = fan_components(g3, "horizontal")
    v3 = fan_components(g3, "vertical")
    _require(len(h3) == 14, f"a3 horizontal component count {len(h3)}")
    _require(len(v3) == 55, f"a3 vertical component count {len(v3)}")
    for graph, comps, parity in ((g2, h2, "horizontal"), (g2, v2, "vertical"),
                                 (g3, h3, "horizontal"), (g3, v3, "vertical")):
        got = _algebra_partition(graph, parity)
        _require(got == {frozenset(c) for c in comps},
                 f"{parity} algebra grouping differs from components")
    return "a2: 5 H + 12 V, a3: 14 H + 55 V; groupings coincide"


def check_hv_mutation_invariance():
    """The untouched-parity algebra survives every legal mutation."""
    total = 0
    for name in ("a2", "a3"):
        graph = _graph(name, 3)
        for st in graph.nodes.values():
            for k in range(1, st.context.n + 1):
                if st.slopes[k - 1] < st.context.m:
                    _require(check_hv_invariance(st, k),
                             f"invariance fails at {name} slope row "
                             f"{st.slopes}, k={k}")
                    total += 1
    return f"invariance holds across {total} legal mutations"


def check_series_identities():
    """Wall-crossing series: pentagon plus order-independent products."""
    t2 = indecomposables(preset("a2"))
    _require(check_pentagon(t2.simple(2), t2.simple(1), t2.projective(2),
                            truncation=10),
             "pentagon identity fails at truncation 10")
    ctx_t = MutationContext(preset("a2tilde"), 1)
    rep_t = dt_invariant_check(ctx_t, enumerate_mgs(ctx_t, 10).records, 8)
    _require(rep_t.ok, f"a2tilde products differ: {rep_t.mismatches}")
    ctx3 = MutationContext(preset("a3"), 1)
    recs3 = enumerate_mgs(ctx3, 10).records
    rep3 = dt_invariant_check(ctx3, recs3, 6)
    _require(rep3.ok, f"a3 products differ: {rep3.mismatches}")
    return (f"pentagon at order 10; {len(rep_t.all_series)} a2tilde and "
            f"{len(recs3)} a3 products agree")


def _positive_root_set(q):
    return set(indecomposables(q).by_dim.keys())


def _tau_inverse(table, x):
    """tau^-1 x = -(E^T)^-1 E x, or None when x is injective: the g-vector
    E^T d of tau^-1 x is -E x, so the table's g-index finds it."""
    e = table.quiver.euler
    return table.by_g.get(tuple(-dot(row, x.dim) for row in e))


def coxeter_hom_ext(table):
    """(hom, ext) on the indecomposables, from the tau^-1-orbits of the
    projectives rather than the Euler pairing. In Dynkin type each
    indecomposable is x = tau^-r P_i for one (r, i); tau^-1 is an equivalence
    from the non-injectives to the non-projectives, Hom(P_i, Y) = Y_i, and no
    nonzero map goes from a non-projective to a projective. So hom(x, y) =
    (tau^r y)_i if y = tau^-s P_j with s >= r, else 0; ext(x, y) =
    hom(y, tau x) by the Auslander-Reiten formula, and 0 for projective x
    (Auslander-Reiten-Smalo, Representation theory of Artin algebras, 1995,
    ch. VIII)."""
    orbits, pos = [], {}
    for i in range(table.quiver.n):
        orbit = []
        x = table.projective(i + 1)
        while x is not None and x not in pos:
            pos[x] = (len(orbit), i)
            orbit.append(x)
            x = _tau_inverse(table, x)
        _require(x is None, f"the tau^-1-orbit of P{i + 1} returns to {x}")
        orbits.append(orbit)
    _require(len(pos) == len(table), f"the tau^-1-orbits of the projectives "
             f"cover {len(pos)} of {len(table)} roots")

    def hom(x, y):
        (r, i), (s, j) = pos[x], pos[y]
        return orbits[j][s - r].dim[i] if s >= r else 0

    def ext(x, y):
        r, i = pos[x]
        return hom(y, orbits[i][r - 1]) if r else 0

    return hom, ext


def check_structural_properties():
    """Bundle of exhaustive invariants over the small exchange graphs."""
    notes = []
    # mutation round trips, validation, unimodularity, root columns
    trips = 0
    for name in ("a2", "a3"):
        q = preset(name)
        roots = _positive_root_set(q)
        graph = _graph(name, 3)
        for st in graph.nodes.values():
            _require(validate_state(st).ok, f"state invariant fails: {name}")
            _require(abs(det(signed_c_matrix(st))) == 1,
                     "tropical coefficient matrix is not unimodular")
            for j in range(st.context.n):
                _require(st.column(j) in roots,
                         f"column {st.column(j)} is not a positive root")
            for k in range(1, st.context.n + 1):
                if st.slopes[k - 1] < st.context.m:
                    back = mu_minus(mu_plus(st, k), k)
                    _require(_display(back) == _display(st),
                             f"round trip fails at k={k}")
                    trips += 1
    notes.append(f"{trips} round trips")
    # hom/ext from the Euler form match the Coxeter orbits of the projectives
    pairs = 0
    for name in ("a2", "a3"):
        table = indecomposables(preset(name))
        hom, ext = coxeter_hom_ext(table)
        for x in table:
            for y in table:
                _require((hom_dim(x, y), ext_dim(x, y))
                         == (hom(x, y), ext(x, y)),
                         f"hom/ext disagree with the Coxeter orbits: {x}, {y}")
                pairs += 1
    notes.append(f"{pairs} hom/ext pairs")
    # wall membership: geometric and homological tests agree everywhere
    walls = 0
    for name in ("a2", "a3"):
        q = preset(name)
        table = indecomposables(q)
        objs = list(table.reps) + [ShiftedProjective(table, i)
                                   for i in range(1, q.n + 1)]
        for x in objs:
            for m_brick in table.reps:
                check_wall_membership(x, m_brick)  # RuntimeError on split
                walls += 1
    notes.append(f"{walls} membership tests")
    # deleting the 2-3 arrow restricts a3 walls onto the a2 x a1 picture
    sub = ValuedQuiver(3, ((1, 0, 0), (-1, 1, 0), (0, 0, 1)), name="a2xa1")
    report = restricted_walls(preset("a3"), sub)
    _require(report.ok, f"restriction misses bricks: {report.missing}")
    _require({e[0] for e in report.entries}
             == {(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)},
             "restricted brick set differs")
    notes.append("arrow-deletion restriction")
    # renderer: byte determinism and one arc group per wall; render_picture
    # writes one <g id="wall-..."> group per arc group
    for name, count in (("a2", 3), ("a3", 6)):
        wallset = [wall_of(r) for r in indecomposables(preset(name)).reps]
        svg = render_picture(wallset)
        _require(svg == render_picture(list(reversed(wallset))),
                 "renderer output is not byte-deterministic")
        groups = svg.count('<g id="wall-')
        _require(groups == count, f"{name}: {groups} arc groups != {count}")
    notes.append("deterministic rendering")
    return "; ".join(notes)


CRITERIA = (
    ("small-cycle", check_small_cycle),
    ("state-counts", check_state_counts),
    ("worked-mutations", check_worked_mutations),
    ("longest-sequences", check_longest_sequences),
    ("affine-sequences", check_affine_sequences),
    ("graded-duality", check_graded_duality),
    ("torsion-classes", check_torsion_classes),
    ("fan-partitions", check_fan_partitions),
    ("hv-invariance", check_hv_mutation_invariance),
    ("series-identities", check_series_identities),
    ("structural-properties", check_structural_properties),
)


def run_verification():
    """Run every check; returns (rows, all_ok) where rows are
    (name, ok, seconds, detail)."""
    rows = []
    all_ok = True
    for name, fn in CRITERIA:
        start = time.perf_counter()
        try:
            detail = fn()
            ok = True
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
            all_ok = False
        rows.append((name, ok, time.perf_counter() - start, detail))
    return rows, all_ok


def format_report(rows):
    lines = []
    width = max(len(name) for name, _ok, _t, _d in rows)
    for name, ok, seconds, detail in rows:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {name:<{width}}  {seconds:7.2f}s  {detail}")
    passed = sum(1 for _n, ok, _t, _d in rows if ok)
    lines.append(f"{passed}/{len(rows)} checks passed")
    return "\n".join(lines)
