"""mu_plus and mu_minus against a frozen reference: the two separate column
rules (and the signed-C row of B) that the single firing rule in
mcfans.mutation replaced, copied unchanged. Random walks, and random states
that no walk reaches, must agree on every step: the new |C|, slopes and B,
or the type of the error raised.
"""

import random

import pytest

from mcfans import mutation
from mcfans.errors import (McfError, NotInvertibleHere, SignIncoherence,
                           SlopeAtMax, SlopeAtMin)
from mcfans.intmat import dot
from mcfans.mutation import (MutationContext, MutationState, initial_state,
                             signed_c_matrix)
from mcfans.seed import ValuedQuiver, preset

# --- reference ---

def _b_row(st, i):
    """Row i (0-based) of B = D^{-1} C^T D B0 C in O(n^2).

    Raises ValueError if the row is not integral.
    """
    c = signed_c_matrix(st)
    ci = [row[i] for row in c]
    # row i of C^T D B0 is -(D B0 c_i), as D B0 is skew-symmetric
    v = [-dot(row, ci) for row in st.context.DB0]
    d = st.context.quiver.symmetrizer[i]
    out = []
    for col in zip(*c):
        x = dot(v, col)
        if x % d:
            raise ValueError("B-consistency product is not integral")
        out.append(x // d)
    return tuple(out)


def mu_plus(st, k):
    """Positive mutation at vertex k (1-based). Raises SlopeAtMax/SignIncoherence."""
    ctx = st.context
    n = ctx.n
    kk = k - 1
    if not 0 <= kk < n:
        raise ValueError(f"vertex index {k} out of range 1..{n}")
    sk = st.slopes[kk]
    if sk == ctx.m:
        raise SlopeAtMax(f"slope at vertex {k} already equals m = {ctx.m}")
    cols = [list(st.column(j)) for j in range(n)]
    slopes = list(st.slopes)
    ck = cols[kk]
    bk = _b_row(st, kk)
    for j in range(n):
        if j == kk:
            continue
        b = bk[j]
        if b <= 0:
            continue
        if slopes[j] == sk:
            cols[j] = [x + b * y for x, y in zip(cols[j], ck)]
        elif slopes[j] == sk + 1:
            w = [x - b * y for x, y in zip(cols[j], ck)]
            if all(x >= 0 for x in w) and any(x > 0 for x in w):
                cols[j] = w
            elif all(x <= 0 for x in w) and any(x < 0 for x in w):
                cols[j] = [-x for x in w]
                slopes[j] = sk
            else:
                raise SignIncoherence(
                    f"column {j + 1} lost sign coherence while mutating at {k}")
    slopes[kk] = sk + 1
    return MutationState(ctx, zip(*cols), slopes)


def mu_minus(st, k):
    """Inverse mutation at vertex k (1-based).

    The old B row at k is the negated current row (a consequence of the
    B-consistency invariant). A column j at slope sigma = s_k - 1 either kept
    its slope (old = new - b*c_k, then >= 0) or dropped to it (old =
    b*c_k - new at slope sigma + 1); at most one of the two is nonnegative
    and nonzero, so the preimage is unique. It is round-tripped through
    mu_plus once before it is returned.
    """
    ctx = st.context
    n = ctx.n
    kk = k - 1
    if not 0 <= kk < n:
        raise ValueError(f"vertex index {k} out of range 1..{n}")
    if st.slopes[kk] == 0:
        raise SlopeAtMin(f"slope at vertex {k} is already 0")
    sigma = st.slopes[kk] - 1
    cols = [list(st.column(j)) for j in range(n)]
    slopes = list(st.slopes)
    ck = cols[kk]
    bk = _b_row(st, kk)
    slopes[kk] = sigma
    for j in range(n):
        b = -bk[j]
        if j == kk or b <= 0:
            continue
        if slopes[j] == sigma + 1:
            cols[j] = [x + b * y for x, y in zip(cols[j], ck)]
        elif slopes[j] == sigma:
            w = [x - b * y for x, y in zip(cols[j], ck)]
            if all(x >= 0 for x in w) and any(x > 0 for x in w):
                cols[j] = w
            elif all(x <= 0 for x in w) and any(x < 0 for x in w):
                cols[j] = [-x for x in w]
                slopes[j] = sigma + 1
            else:
                raise NotInvertibleHere(
                    f"no admissible preimage column {j + 1} under mu_minus at {k}")
    candidate = MutationState(ctx, zip(*cols), slopes)
    try:
        # candidate.B raises ValueError unless the derived B is integral
        if mu_plus(candidate, k) == st and candidate.B:
            return candidate
    except (ValueError, SlopeAtMax, SignIncoherence):
        pass
    raise NotInvertibleHere(f"no preimage of the state round-trips at vertex {k}")


# --- comparison ---

QUIVERS = {
    "a2": preset("a2"),
    "a3": preset("a3"),
    "a2tilde": preset("a2tilde"),
    "a4<><": preset("a_n:<><"),
    "a4>><": preset("a_n:>><"),
    "b2": ValuedQuiver(2, ((1, 0), (-2, 2)), symmetrizer=(1, 2), name="b2"),
    "g2": ValuedQuiver(2, ((1, 0), (-3, 3)), symmetrizer=(1, 3), name="g2"),
    # arrows 1 -> 2 and 2 -> 3 (weight 2): the only one here whose derived
    # B can fail to be integral
    "b3": ValuedQuiver(3, ((1, -1, 0), (0, 1, -2), (0, 0, 2)),
                       symmetrizer=(1, 1, 2), name="b3"),
}
RULES = ((mutation.mu_plus, mu_plus), (mutation.mu_minus, mu_minus))


def _reference_b(st):
    return tuple(_b_row(st, i) for i in range(st.context.n))


def _outcome(rule, b_of, st, k):
    try:
        new = rule(st, k)
    except (ValueError, McfError) as exc:
        return type(exc), str(exc) if isinstance(exc, SignIncoherence) else None
    try:
        b = b_of(new)
    except ValueError:
        b = ValueError
    return new.absC, new.slopes, b


def _step(st, k, seen):
    """Compare both rules at (st, k); returns the states they reach."""
    out = []
    for new_rule, old_rule in RULES:
        got = _outcome(new_rule, lambda s: s.B, st, k)
        assert got == _outcome(old_rule, _reference_b, st, k), \
            (st, k, new_rule.__name__)
        if isinstance(got[0], type):
            seen.add(got[0])
        else:
            seen.add(new_rule.__name__)
            out.append(MutationState(st.context, got[0], got[1]))
    return out


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_random_walks_match_the_reference(name):
    rng = random.Random(name)
    seen = set()
    for m in (1, 2, 3):
        ctx = MutationContext(QUIVERS[name], m)
        st = initial_state(ctx)
        for _ in range(120):
            assert st.B == _reference_b(st)
            moves = _step(st, rng.randint(1, ctx.n), seen)
            if moves:
                st = rng.choice(moves)
    assert {"mu_plus", "mu_minus", SlopeAtMax} <= seen


def test_unreachable_states_match_the_reference():
    # arbitrary |C| and slopes: non-integral B, sign incoherence and
    # failed preimages all occur, and must fail the same way
    rng = random.Random(12)
    seen = set()
    for name in sorted(QUIVERS):
        q = QUIVERS[name]
        for m in (1, 2, 3):
            ctx = MutationContext(q, m)
            for _ in range(40):
                absC = [[rng.randint(0, 2) for _ in range(q.n)]
                        for _ in range(q.n)]
                slopes = [rng.randint(0, m) for _ in range(q.n)]
                st = MutationState(ctx, absC, slopes)
                for k in range(1, q.n + 1):
                    _step(st, k, seen)
    assert {SignIncoherence, NotInvertibleHere, ValueError, SlopeAtMin,
            "mu_plus", "mu_minus"} <= seen
