"""Exact q-series coefficients, dilogarithm factors, product identities."""

import json
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfans import cli
from mcfans.dilog import (Coeff, PairingForm, QSeries, _den_expand,
                          check_pentagon, check_square, dilog_series, lau_add,
                          lau_const, lau_monomial, lau_mul, dt_invariant_check,
                          edge_invariant_check, qseries_mul, qseries_one,
                          qseries_prod)
from mcfans.enumeration import (ExchangeGraph, MgsRecord, canonical_key,
                                enumerate_mgs, exchange_graph, green_paths)
from mcfans.errors import FormMismatch, HypothesisViolated
from mcfans.mutation import (GradedVector, MutationContext, initial_state,
                             mu_plus)
from mcfans.seed import preset


@pytest.fixture(scope="module")
def form2(q2):
    return PairingForm(q2.exchange)


# --- Laurent helpers ---

def test_lau_basics():
    assert lau_const(0) == {}
    assert lau_monomial(3, 0) == {}
    assert lau_add({1: 2}, {1: -2}) == {}
    assert lau_mul({1: 1, 0: 1}, {1: 1, 0: -1}) == {2: 1, 0: -1}


# --- coefficients ---

def test_coeff_add():
    half = Coeff({0: 1}, {1: 1})          # 1/(q-1)
    two = half + half
    assert two == Coeff({0: 2}, {1: 1})
    assert (half + Coeff({})) == half


def test_coeff_mul():
    half = Coeff({0: 1}, {1: 1})
    sq = half * half
    assert sq.den == Counter({1: 2})
    assert sq == Coeff({0: 1}, {1: 2})


def test_coeff_eq_cross_multiplies():
    # 1/(q-1) == (q+1)/(q^2-1), with q = v^2
    a = Coeff({0: 1}, {1: 1})
    b = Coeff({2: 1, 0: 1}, {2: 1})
    assert a == b
    assert a != Coeff({0: 1}, {2: 1})


def test_coeff_json():
    c = Coeff({1: 1}, {1: 1, 2: 1})
    assert c.to_json() == {"num": [[1, 1]], "den": [[1, 1], [2, 1]]}


# --- pairing forms ---

def test_pairing_form_values(q2, form2):
    assert form2.pair((1, 0), (0, 1)) == -1
    assert form2.pair((0, 1), (1, 0)) == 1
    assert form2.pair((1, 1), (1, 1)) == 0


def test_pairing_form_accepts_valued(qb2):
    form = PairingForm(qb2.exchange)
    assert form.pair((1, 0), (0, 1)) == -2


def test_pairing_form_guards():
    with pytest.raises(ValueError):
        PairingForm(((1, 0), (0, 0)))          # nonzero diagonal
    with pytest.raises(ValueError):
        PairingForm(((0, 1), (0, 0)))          # zero pattern not symmetric
    with pytest.raises(ValueError):
        PairingForm(((0, 1), (1, 0)))          # same-sign product


# --- series basics ---

def test_qseries_truncation_drops_terms(form2):
    s = QSeries(2, form2, {(3, 0): {0: 1}, (1, 0): {2: 1, 0: -1},
                           (0, 1): {0: 0}})
    assert set(s.terms) == {(1, 0)}
    assert s.coefficient((1, 0)) == Coeff({0: 1})
    assert s.coefficient((3, 0)).is_zero()
    with pytest.raises(ValueError):
        QSeries(0, form2)


def qseries_monomial(alpha, truncation, form):
    """The series y^alpha: its numerator is its denominator (q)_|alpha|."""
    den = Counter(range(1, sum(alpha) + 1))
    return QSeries(truncation, form, {tuple(alpha): _den_expand(den)})


def test_twisted_monomial_rule(form2):
    y1 = qseries_monomial((1, 0), 4, form2)
    y2 = qseries_monomial((0, 1), 4, form2)
    fwd = qseries_mul(y1, y2, form2)
    assert fwd.coefficient((1, 1)) == Coeff(lau_monomial(1))
    rev = qseries_mul(y2, y1, form2)
    assert rev.coefficient((1, 1)) == Coeff(lau_monomial(-1))


def test_qseries_mul_guards(q2, qb2, form2):
    other_trunc = qseries_one(5, form2)
    with pytest.raises(FormMismatch):
        qseries_mul(qseries_one(4, form2), other_trunc, form2)
    form_b = PairingForm(qb2.exchange)
    with pytest.raises(FormMismatch):
        qseries_mul(qseries_one(4, form2), qseries_one(4, form_b), form2)


def test_qseries_json(form2):
    s = qseries_one(3, form2)
    assert s.to_json() == {
        "truncation": 3,
        "terms": [{"exp": [0, 0], "num": [[0, 1]], "den": []}]}


# --- dilogarithm series ---

def test_dilog_series_terms(form2):
    e = dilog_series((1, 0), 3, form2)
    assert e.coefficient((0, 0)) == Coeff({0: 1})
    assert e.coefficient((1, 0)) == Coeff({1: 1}, {1: 1})
    assert e.coefficient((2, 0)) == Coeff({2: 1}, {1: 1, 2: 1})
    assert e.coefficient((3, 0)) == Coeff({3: 1}, {1: 1, 2: 1, 3: 1})
    assert e.coefficient((4, 0)).is_zero()


def test_dilog_series_guards(form2):
    with pytest.raises(ValueError):
        dilog_series((0, 0), 3, form2)
    with pytest.raises(ValueError):
        dilog_series((1, -1), 3, form2)
    with pytest.raises(ValueError):
        dilog_series((1, 0, 0), 3, form2)


# --- identities ---

def test_square_identity(table3):
    assert check_square(table3.simple(1), table3.simple(3), truncation=6)


def test_square_hypotheses(table2):
    with pytest.raises(HypothesisViolated):
        check_square(table2.simple(2), table2.simple(1))


def test_pentagon_identity(table2):
    S1, S2, P2 = table2.simple(1), table2.simple(2), table2.projective(2)
    assert check_pentagon(S2, S1, P2, truncation=8)


def test_pentagon_hypotheses(table2):
    S1, S2, P2 = table2.simple(1), table2.simple(2), table2.projective(2)
    with pytest.raises(HypothesisViolated):
        check_pentagon(S1, S2, P2)          # extension points the other way
    with pytest.raises(HypothesisViolated):
        check_pentagon(S2, S1, S1)          # wrong middle term


def test_pentagon_orientation_matters(table2, form2):
    # the same three factors in the mirrored order disagree at order 2
    S1, S2, P2 = table2.simple(1), table2.simple(2), table2.projective(2)
    em = dilog_series(S2.dim, 6, form2)
    en = dilog_series(S1.dim, 6, form2)
    el = dilog_series(P2.dim, 6, form2)
    lhs = qseries_mul(em, en, form2)
    rhs = qseries_prod([en, el, em], 6, form2)
    assert lhs != rhs


# --- the fixed-denominator product against Coeff arithmetic ---

def _reference_series(alpha, truncation, form):
    """E(y^alpha) with one Coeff per term, v^power / prod_{i<=k} (q^i - 1)."""
    weight, self_pair = sum(alpha), form.pair(alpha, alpha)
    return {tuple(k * x for x in alpha):
            Coeff(lau_monomial(k - self_pair * k * (k - 1) // 2),
                  {i: 1 for i in range(1, k + 1)})
            for k in range(truncation // weight + 1)}


def _reference_product(alphas, truncation, form):
    """prod E(y^alpha) in Coeff arithmetic, y^a y^b = v^{-(a,b)} y^{a+b}."""
    out = {tuple(0 for _ in range(form.n)): Coeff({0: 1})}
    for alpha in alphas:
        factor = _reference_series(alpha, truncation, form)
        step = {}
        for a, ca in out.items():
            for b, cb in factor.items():
                gamma = tuple(x + y for x, y in zip(a, b))
                if sum(gamma) > truncation:
                    continue
                term = ca * cb * Coeff(lau_monomial(-form.pair(a, b)))
                step[gamma] = step[gamma] + term if gamma in step else term
        out = step
    return out


@st.composite
def _dilog_factors(draw):
    q = preset(draw(st.sampled_from(["a2", "a3"])))
    form = PairingForm(q.exchange)
    vector = st.lists(st.integers(min_value=0, max_value=2),
                      min_size=form.n, max_size=form.n).filter(any)
    alphas = draw(st.lists(vector.map(tuple), min_size=1, max_size=5))
    return form, alphas, draw(st.integers(min_value=1, max_value=6))


@settings(max_examples=60, deadline=None)
@given(case=_dilog_factors())
def test_product_matches_coeff_arithmetic(case):
    form, alphas, truncation = case
    product = qseries_prod([dilog_series(a, truncation, form) for a in alphas],
                           truncation, form)
    reference = _reference_product(alphas, truncation, form)
    for gamma in set(product.terms) | set(reference):
        want = reference.get(gamma, Coeff({}))
        assert product.coefficient(gamma) == want, (alphas, gamma)


# --- DT invariance across green sequences ---

def test_dt_invariant(q2):
    ctx = MutationContext(q2, 1)
    res = enumerate_mgs(ctx, depth_cap=5)
    report = dt_invariant_check(ctx, res.records, truncation=8)
    assert report.ok and report.mismatches == []
    assert report.series is not None
    assert len(report.all_series) == 2


def test_dt_detects_mismatch(q2):
    ctx = MutationContext(q2, 1)
    fake = [MgsRecord([1], [GradedVector((1, 0), 0)]),
            MgsRecord([2], [GradedVector((0, 1), 0)])]
    report = dt_invariant_check(ctx, fake, truncation=6)
    assert not report.ok and report.mismatches == [1]
    assert report.series is None


def test_dt_needs_level_one(q2):
    ctx = MutationContext(q2, 2)
    with pytest.raises(ValueError):
        dt_invariant_check(ctx, [], truncation=4)


def test_dt_refuses_valued_quiver(qb2):
    # the untwisted E(y^alpha) with PairingForm(B0) needs a skew-symmetric
    # B0; on b2 its products disagree without any failure of invariance
    ctx = MutationContext(qb2, 1)
    for cap in (4, 6, 8):
        records = enumerate_mgs(ctx, cap).records
        assert len(records) >= 2
        with pytest.raises(HypothesisViolated):
            dt_invariant_check(ctx, records, truncation=6)
        graph = exchange_graph(ctx, depth_cap=cap)
        with pytest.raises(HypothesisViolated):
            edge_invariant_check(ctx, graph, 6)


def test_cli_dilog_refuses_valued_quiver(qb2, monkeypatch, capsys):
    monkeypatch.setattr(cli, "preset", lambda name: qb2)
    assert cli.main(["dilog", "--quiver", "b2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "HypothesisViolated" in err


# --- the per-edge check against the per-record oracle ---

def _edge_check(ctx, cap, truncation):
    """The dilog command's path: count by path DP, check once per edge."""
    graph = exchange_graph(ctx, depth_cap=cap)
    count = green_paths(graph, cap).count
    report = edge_invariant_check(ctx, graph, truncation)
    return count, report


def _assert_matches_oracle(name, cap, truncation):
    ctx = MutationContext(preset(name), 1)
    count, report = _edge_check(ctx, cap, truncation)
    records = enumerate_mgs(ctx, cap).records
    assert count == len(records), (name, cap)
    if not records:
        assert report.series is None
        return
    first = records[0]
    oracle = dt_invariant_check(ctx, records, truncation)
    assert report.ok and oracle.ok, (name, cap, report.mismatches)
    assert (json.dumps(report.series.to_json())
            == json.dumps(oracle.series.to_json())), (name, cap)
    # the reported series is P at the first sequence's terminal node
    end = initial_state(ctx)
    for k in first.mutations:
        end = mu_plus(end, k)
    assert report.series == report.products[canonical_key(end)]


A4_ORIENTATIONS = ["a_n:" + "".join(o) for o in product("<>", repeat=3)]


@pytest.mark.parametrize("name", A4_ORIENTATIONS)
def test_edge_check_matches_records_a4(name):
    for cap in range(4, 9):
        _assert_matches_oracle(name, cap, truncation=3)


def test_edge_check_matches_records_small():
    for cap in range(1, 6):
        _assert_matches_oracle("a2", cap, truncation=6)
    for cap in range(3, 11):
        _assert_matches_oracle("a3", cap, truncation=4)
    for cap in range(3, 13):
        _assert_matches_oracle("a2tilde", cap, truncation=4)


def test_edge_check_matches_records_long():
    _assert_matches_oracle("a_n:<><", 20, truncation=3)


@settings(max_examples=10, deadline=None)
@given(orientation=st.lists(st.sampled_from("<>"), min_size=1, max_size=3),
       cap=st.integers(min_value=1, max_value=8),
       truncation=st.integers(min_value=1, max_value=3))
def test_edge_check_matches_records_random(orientation, cap, truncation):
    _assert_matches_oracle("a_n:" + "".join(orientation), cap, truncation)


@pytest.mark.parametrize("name,cap", [("a3", 10), ("a_n:<<", 10),
                                      ("a2tilde", 10), ("a_n:<<<", 20)])
def test_every_mgs_product_serializes_the_same(name, cap):
    # one numerator per term over (q)_|gamma|: equal series, equal bytes
    ctx = MutationContext(preset(name), 1)
    records = enumerate_mgs(ctx, cap).records
    graph = exchange_graph(ctx, depth_cap=cap)
    for truncation in (4, 5, 6):
        series = edge_invariant_check(ctx, graph, truncation).series
        want = json.dumps(series.to_json())
        for s in dt_invariant_check(ctx, records, truncation).all_series:
            assert json.dumps(s.to_json()) == want, (name, truncation)


def _corrupt_one_edge(graph):
    """The graph with one edge relabelled to cross another column at its
    source, chosen so that the edge does not define P at its target."""
    seen = set()
    for i, (u, w, k, p) in enumerate(graph.edges):
        if w in seen:
            other = next(j for j in range(1, len(graph.nodes[u].slopes) + 1)
                         if j != k and graph.nodes[u].slopes[j - 1] == 0)
            edges = list(graph.edges)
            edges[i] = (u, w, other, p)
            return (ExchangeGraph(graph.nodes, edges, graph.initial,
                                  graph.terminals), (u, w, other))
        seen.add(w)
    raise AssertionError("every node has a single incoming edge")


def test_edge_check_reports_the_corrupt_edge(q3, monkeypatch, capsys):
    ctx = MutationContext(q3, 1)
    graph, bad = _corrupt_one_edge(exchange_graph(ctx, depth_cap=10))
    report = edge_invariant_check(ctx, graph, 6)
    assert report.mismatches == [bad]
    assert not report.ok and report.series is None

    monkeypatch.setattr(cli, "exchange_graph", lambda ctx, depth_cap: graph)
    assert cli.main(["dilog", "--quiver", "a3", "--truncate", "6"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False and "series" not in data
    assert data["count"] == 10
    assert data["mismatches"] == [list(bad)]
