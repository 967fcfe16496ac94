"""Slope-graded seed mutation.

A state is its graded c-vectors: the nonnegative column matrix |C| and a
slope (grade) per column, for a fixed level m.  The exchange matrix is not
stored; it is derived as B = D^{-1} C^T D B0 C, with C the signed matrix whose
columns are (-1)^{s_j} |c_j|.  One rule moves the slope at a vertex k by a
step of +1 (mu_plus) or -1 (mu_minus): along row k of B, the columns at k's
old slope gain a multiple of |c_k|, and those at the slope k moves to lose
one, turning back to k's old slope if they become nonpositive.  mu_minus is
the exact inverse of mu_plus.
"""

from . import seed as seedmod
from .errors import NotInvertibleHere, SignIncoherence, SlopeAtMax, SlopeAtMin
from .intmat import det, dot


class GradedVector:
    """A nonnegative integer vector together with its slope."""

    __slots__ = ("coords", "grade")

    def __init__(self, coords, grade):
        self.coords = tuple(int(x) for x in coords)
        self.grade = int(grade)

    def __eq__(self, other):
        return (isinstance(other, GradedVector)
                and self.coords == other.coords and self.grade == other.grade)

    def __hash__(self):
        return hash((self.coords, self.grade))

    def __repr__(self):
        return f"GradedVector({self.coords}, slope={self.grade})"

    def to_json(self):
        return {"dim": list(self.coords), "slope": self.grade}


class MutationContext:
    """Fixed data of a mutation run: the quiver, B0 and the level m."""

    def __init__(self, quiver, m):
        if m < 1:
            raise ValueError(f"level m must be >= 1, got {m}")
        self.quiver = quiver
        self.m = int(m)
        self.B0 = quiver.exchange
        self.n = quiver.n
        # D B0 = E^T - E, the skew-symmetric middle factor of B
        self.DB0 = tuple(tuple(d * x for x in row)
                         for d, row in zip(quiver.symmetrizer, self.B0))

    def __repr__(self):
        return f"MutationContext({self.quiver!r}, m={self.m})"


class MutationState:
    """Immutable mutation state (|C|, slopes) in a context.

    The exchange matrix B is the read-only property st.B, derived from the
    signed C; it raises ValueError if D^{-1} C^T D B0 C is not integral.
    """

    __slots__ = ("context", "absC", "slopes")

    def __init__(self, context, absC, slopes):
        self.context = context
        self.absC = tuple(tuple(int(x) for x in row) for row in absC)
        self.slopes = tuple(int(s) for s in slopes)

    @property
    def B(self):
        return tuple(_b_row(self, i) for i in range(self.context.n))

    def _key(self):
        return (self.context.quiver.key(), self.context.m,
                self.absC, self.slopes)

    def __eq__(self, other):
        return isinstance(other, MutationState) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"MutationState(absC={self.absC}, "
                f"slopes={self.slopes}, m={self.context.m})")

    def column(self, j):
        """|c_j| (0-based j) as a tuple."""
        return tuple(self.absC[i][j] for i in range(self.context.n))

    def graded_column(self, j):
        return GradedVector(self.column(j), self.slopes[j])


def initial_state(ctx):
    """All slopes 0 and |C| = identity, so B = B0."""
    n = ctx.n
    absC = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return MutationState(ctx, absC, (0,) * n)


def signed_c_matrix(st):
    """C with columns (-1)^{s_j} |c_j|."""
    signs = [-1 if s % 2 else 1 for s in st.slopes]
    return tuple(tuple(s * x for s, x in zip(signs, row)) for row in st.absC)


def is_terminal(st):
    return all(s == st.context.m for s in st.slopes)


def _b_row(st, i):
    """Row i (0-based) of B = D^{-1} C^T D B0 C in O(n^2), read off |C|:
    B_ij = sigma_i sigma_j |c_i|^T (D B0) |c_j| / d_i, sigma_j = (-1)^{s_j}.

    Raises ValueError if the row is not integral.
    """
    ci = st.column(i)
    # |c_i|^T D B0 is -(D B0 |c_i|), as D B0 is skew-symmetric
    v = [-dot(row, ci) for row in st.context.DB0]
    d = st.context.quiver.symmetrizer[i]
    parity = st.slopes[i] % 2
    out = []
    for col, s in zip(zip(*st.absC), st.slopes):
        x = dot(v, col)
        if x % d:
            raise ValueError("B-consistency product is not integral")
        out.append(-(x // d) if (s - parity) % 2 else x // d)
    return tuple(out)


def _slope(st, k):
    """Slope at vertex k (1-based), after a range check."""
    if not 1 <= k <= st.context.n:
        raise ValueError(f"vertex index {k} out of range 1..{st.context.n}")
    return st.slopes[k - 1]


def _fire(st, k, step, error):
    """Move the slope a = s_k to a + step (step = +1 or -1) and fire the
    other columns with b = step * B_kj > 0: a column at slope a gains b|c_k|;
    a column at slope a + step loses b|c_k| and, if that leaves it
    nonpositive, is negated and takes slope a. A column left with mixed
    signs (or zero) raises error.
    """
    kk = k - 1
    a = st.slopes[kk]
    cols = [list(col) for col in zip(*st.absC)]
    slopes = list(st.slopes)
    ck = cols[kk]
    for j, b in enumerate(_b_row(st, kk)):
        b *= step   # B_kk = 0, so column k never fires
        if b <= 0:
            continue
        if slopes[j] == a:
            cols[j] = [x + b * y for x, y in zip(cols[j], ck)]
        elif slopes[j] == a + step:
            w = [x - b * y for x, y in zip(cols[j], ck)]
            if min(w) >= 0 and max(w) > 0:
                cols[j] = w
            elif max(w) <= 0 and min(w) < 0:
                cols[j] = [-x for x in w]
                slopes[j] = a
            else:
                raise error(
                    f"column {j + 1} lost sign coherence while mutating at {k}")
    slopes[kk] = a + step
    return MutationState(st.context, zip(*cols), slopes)


def mu_plus(st, k):
    """Positive mutation at vertex k (1-based). Raises SlopeAtMax/SignIncoherence."""
    if _slope(st, k) == st.context.m:
        raise SlopeAtMax(f"slope at vertex {k} already equals m = {st.context.m}")
    return _fire(st, k, 1, SignIncoherence)


def mu_minus(st, k):
    """Inverse mutation at vertex k (1-based): the rule of mu_plus with the
    step negated.

    The old B row at k is the negated current row (a consequence of the
    B-consistency invariant), so a column at slope s_k - 1 either kept its
    slope or dropped to it; at most one of the two preimages is nonnegative
    and nonzero. The candidate is round-tripped through mu_plus once before
    it is returned.
    """
    if _slope(st, k) == 0:
        raise SlopeAtMin(f"slope at vertex {k} is already 0")
    candidate = _fire(st, k, -1, NotInvertibleHere)
    try:
        # candidate.B raises ValueError unless the derived B is integral
        if mu_plus(candidate, k) == st and candidate.B:
            return candidate
    except (ValueError, SlopeAtMax, SignIncoherence):
        pass
    raise NotInvertibleHere(f"no preimage of the state round-trips at vertex {k}")


# --- validation ---

class ValidationReport:
    def __init__(self, problems):
        self.problems = list(problems)

    @property
    def ok(self):
        return not self.problems

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"ValidationReport(ok={self.ok}, problems={self.problems})"


def validate_state(st):
    """Structural checks: shapes, slope bounds, sign coherence, det C = +-1
    and integrality of the derived B.

    B's consistency with C and the skew-symmetry of D B = C^T (E^T - E) C hold
    by construction, since B is derived from C rather than stored.
    """
    ctx = st.context
    n = ctx.n
    problems = []
    if len(st.absC) != n or any(len(r) != n for r in st.absC):
        problems.append("absC has wrong shape")
    if len(st.slopes) != n:
        problems.append("slopes has wrong length")
    if problems:
        return ValidationReport(problems)
    for j, s in enumerate(st.slopes):
        if not 0 <= s <= ctx.m:
            problems.append(f"slope {s} at column {j + 1} outside 0..{ctx.m}")
    for j in range(n):
        col = st.column(j)
        if any(x < 0 for x in col):
            problems.append(f"column {j + 1} has a negative entry")
        if all(x == 0 for x in col):
            problems.append(f"column {j + 1} is zero")
    if not problems:
        d = det(signed_c_matrix(st))
        if d not in (1, -1):
            problems.append(f"det C = {d}, expected +-1")
        try:
            st.B  # derived on access
        except ValueError:
            problems.append("B-consistency product is not integral")
    return ValidationReport(problems)


# --- serialization ---

def state_to_json(st):
    return states_to_json([st])[0]


def states_to_json(states):
    """state_to_json of each of a nonempty list of states of one quiver."""
    q = states[0].context.quiver
    try:
        named = bool(q.name) and seedmod.preset(q.name) == q
    except ValueError:  # not a preset name
        named = False
    quiver = q.name if named else q.to_json()
    return [{"B": [list(r) for r in st.B],
             "absC": [list(r) for r in st.absC],
             "slopes": list(st.slopes),
             "m": st.context.m,
             "quiver": quiver} for st in states]


def state_from_json(data, context=None):
    """Inverse of state_to_json. Raises ValueError if the state fails
    validate_state or its "B" differs from the derived one."""
    if context is None:
        qdata = data["quiver"]
        quiver = seedmod.preset(qdata) if isinstance(qdata, str) \
            else seedmod.ValuedQuiver.from_json(qdata)
        context = MutationContext(quiver, data["m"])
    elif context.m != data["m"]:
        raise ValueError("context level m disagrees with serialized state")
    st = MutationState(context, data["absC"], data["slopes"])
    report = validate_state(st)
    if not report.ok:
        raise ValueError(f"invalid serialized state: {report.problems}")
    if tuple(tuple(row) for row in data["B"]) != st.B:
        raise ValueError("serialized B differs from D^-1 C^T D B0 C")
    return st
