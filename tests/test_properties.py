"""Property-based invariants: random walks, matrix-mutation agreement,
permutation invariance, exact-series algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from mcfans.dilog import PairingForm, QSeries, lau_monomial, qseries_mul
from mcfans.enumeration import canonical_key
from mcfans.finrep import ext_dim, hom_dim, indecomposables
from mcfans.intmat import det, mat_mul, transpose
from mcfans.mutation import (MutationContext, MutationState, initial_state,
                             mu_minus, mu_plus, signed_c_matrix,
                             validate_state)
from mcfans.seed import euler_pairing, preset

A2_ROOTS = {(1, 0), (0, 1), (1, 1)}
A3_ROOTS = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)}


def _walk(ctx, choices):
    """Apply legal positive mutations chosen by the (arbitrary) int list."""
    state = initial_state(ctx)
    trail = []
    for c in choices:
        legal = [k for k in range(1, ctx.n + 1)
                 if state.slopes[k - 1] < ctx.m]
        if not legal:
            break
        k = legal[c % len(legal)]
        trail.append((state, k))
        state = mu_plus(state, k)
    return state, trail


def fz_mutate(b, kk):
    """Classical exchange-matrix mutation at index kk (0-based)."""
    n = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == kk or j == kk:
                row.append(-b[i][j])
            else:
                row.append(b[i][j] + (abs(b[i][kk]) * b[kk][j]
                                      + b[i][kk] * abs(b[kk][j])) // 2)
        out.append(tuple(row))
    return tuple(out)


# --- random walk invariants ---

@settings(max_examples=40, deadline=None)
@given(choices=st.lists(st.integers(min_value=0, max_value=96), max_size=12))
def test_walk_invariants_rank2(q2, choices):
    ctx = MutationContext(q2, 3)
    state, trail = _walk(ctx, choices)
    report = validate_state(state)
    assert report.ok, report.problems
    assert det([list(r) for r in signed_c_matrix(state)]) in (1, -1)
    for j in range(ctx.n):
        assert state.column(j) in A2_ROOTS
    for prev, k in trail[-3:]:
        assert mu_minus(mu_plus(prev, k), k) == prev


@settings(max_examples=40, deadline=None)
@given(choices=st.lists(st.integers(min_value=0, max_value=96), max_size=9))
def test_walk_invariants_rank3(q3, choices):
    ctx = MutationContext(q3, 3)
    state, trail = _walk(ctx, choices)
    assert validate_state(state).ok
    for j in range(ctx.n):
        assert state.column(j) in A3_ROOTS
    for prev, k in trail[-2:]:
        assert mu_minus(mu_plus(prev, k), k) == prev


@settings(max_examples=30, deadline=None)
@given(choices=st.lists(st.integers(min_value=0, max_value=96), max_size=4))
def test_walk_invariants_valued(qb2, choices):
    ctx = MutationContext(qb2, 2)
    state, trail = _walk(ctx, choices)
    assert validate_state(state).ok
    for prev, k in trail:
        assert mu_minus(mu_plus(prev, k), k) == prev


def _b_reference(st):
    """The full-matrix product B = D^-1 C^T D B0 C, C the signed matrix:
    oracle for the row-by-row derivation behind st.B."""
    d = st.context.quiver.symmetrizer
    c = [list(r) for r in signed_c_matrix(st)]
    db0 = [[d[i] * x for x in row] for i, row in enumerate(st.context.B0)]
    t = mat_mul(mat_mul(transpose(c), db0), c)
    assert all(x % d[i] == 0 for i, row in enumerate(t) for x in row)
    return tuple(tuple(x // d[i] for x in row) for i, row in enumerate(t))


@settings(max_examples=60, deadline=None)
@given(which=st.integers(min_value=0, max_value=2),
       m=st.integers(min_value=1, max_value=3),
       choices=st.lists(st.integers(min_value=0, max_value=96), max_size=18))
def test_derived_b_matches_full_product(qb2, which, m, choices):
    q = [preset("a2"), preset("a3"), qb2][which]
    state, trail = _walk(MutationContext(q, m), choices)
    for s in [prev for prev, _k in trail] + [state]:
        assert s.B == _b_reference(s)
        assert validate_state(s).ok


# --- agreement with plain matrix mutation at level 1 ---

@settings(max_examples=40, deadline=None)
@given(choices=st.lists(st.integers(min_value=0, max_value=96), max_size=3))
def test_level_one_matches_matrix_mutation(q2, q3, qb2, choices):
    for q in (q2, q3, qb2):
        ctx = MutationContext(q, 1)
        state, trail = _walk(ctx, choices)
        b = ctx.B0
        for prev, k in trail:
            b = fz_mutate(b, k - 1)
        assert state.B == b


def test_higher_levels_leave_matrix_mutation(q3):
    # at level 3 the slope rules give a genuinely different B-update
    ctx = MutationContext(q3, 3)
    x = MutationState(ctx, ((0, 1, 0), (1, 1, 0), (0, 0, 1)), (2, 1, 2))
    assert x.B == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    z = mu_plus(x, 3)
    assert z.B != fz_mutate(x.B, 2)


# --- canonical keys ---

@settings(max_examples=30, deadline=None)
@given(perm=st.permutations(list(range(3))))
def test_canonical_key_under_permutation(state_x, perm):
    n = 3
    sb = state_x.B
    b = tuple(tuple(sb[perm[i]][perm[j]] for j in range(n))
              for i in range(n))
    absc = tuple(tuple(state_x.absC[i][perm[j]] for j in range(n))
                 for i in range(n))
    slopes = tuple(state_x.slopes[perm[j]] for j in range(n))
    shuffled = MutationState(state_x.context, absc, slopes)
    assert shuffled.B == b
    assert canonical_key(shuffled) == canonical_key(state_x)


@settings(max_examples=50, deadline=None)
@given(which=st.integers(min_value=0, max_value=4),
       m=st.integers(min_value=1, max_value=3),
       choices=st.lists(st.integers(min_value=0, max_value=96), max_size=18))
def test_graded_columns_pairwise_distinct(qb2, which, m, choices):
    q = [preset("a2"), preset("a3"), preset("a_n:<><"), preset("a_n:>><"),
         qb2][which]
    state, _trail = _walk(MutationContext(q, m), choices)
    # det C = +-1 keeps even the ungraded |c_j| apart, so canonical_key's
    # sort of the graded columns has a single result
    cols = [state.column(j) for j in range(q.n)]
    assert len(set(cols)) == q.n
    assert len(set(zip(state.slopes, cols))) == q.n


# --- homological pairing ---

@settings(max_examples=60, deadline=None)
@given(i=st.integers(min_value=0, max_value=9),
       j=st.integers(min_value=0, max_value=9))
def test_hom_minus_ext_is_euler_linear(i, j):
    q = preset("a_n:<<<")
    table = indecomposables(q)
    x, y = table.reps[i], table.reps[j]
    assert hom_dim(x, y) - ext_dim(x, y) == euler_pairing(q, x.dim, y.dim)


# --- series algebra ---

@st.composite
def small_series(draw, form, truncation=4):
    n_terms = draw(st.integers(min_value=1, max_value=3))
    terms = {}
    for _ in range(n_terms):
        alpha = (draw(st.integers(min_value=0, max_value=2)),
                 draw(st.integers(min_value=0, max_value=2)))
        power = draw(st.integers(min_value=-3, max_value=3))
        coeff = draw(st.integers(min_value=-2, max_value=2))
        if coeff:
            terms[alpha] = lau_monomial(power, coeff)
    return QSeries(truncation, form, terms)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_qseries_mul_associative(q2, data):
    form = PairingForm(q2.exchange)
    a = data.draw(small_series(form))
    b = data.draw(small_series(form))
    c = data.draw(small_series(form))
    left = qseries_mul(qseries_mul(a, b, form), c, form)
    right = qseries_mul(a, qseries_mul(b, c, form), form)
    assert left == right
