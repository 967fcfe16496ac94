"""Truncated quantum-torus series and quantum dilogarithm identities.

Coefficients are exact rational functions in v = q^(1/2). The term on
y^gamma, |gamma| <= the truncation bound, is an integer Laurent numerator in v
over the fixed denominator (q)_|gamma| = prod_{i<=|gamma|} (q^i - 1): products
stay over it since (q)_{a+b} / ((q)_a (q)_b) is a Gaussian binomial, a
polynomial in q (Andrews, The Theory of Partitions, 1976, ch. 3). So each
numerator is unique, and equal series are equal dicts.
"""

from collections import Counter

from .errors import FormMismatch, HypothesisViolated


# --- Laurent polynomials in v (dict: power -> int coefficient) ---

def lau_const(c):
    return {0: c} if c else {}

def lau_monomial(power, coeff=1):
    return {power: coeff} if coeff else {}

def lau_add(a, b):
    out = dict(a)
    for p, c in b.items():
        s = out.get(p, 0) + c
        if s:
            out[p] = s
        else:
            out.pop(p, None)
    return out

def lau_mul(a, b):
    out = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            p = pa + pb
            s = out.get(p, 0) + ca * cb
            if s:
                out[p] = s
            else:
                out.pop(p, None)
    return out


# --- denominators: Counter {i: mult} for prod (q^i - 1)^mult, q = v^2 ---

def _den_expand(den):
    """Expanded Laurent polynomial of prod_i (q^i - 1)^mult."""
    out = lau_const(1)
    for i, mult in den.items():
        for _ in range(mult):
            out = lau_mul(out, {2 * i: 1, 0: -1})
    return out


class Coeff:
    """num / prod (q^i - 1)^den[i], exact; the reference arithmetic that
    QSeries.coefficient reports in."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = dict(num)
        self.den = Counter()
        if den:
            for i, m in dict(den).items():
                if m:
                    self.den[i] = m

    def is_zero(self):
        return not self.num

    def __mul__(self, other):
        return Coeff(lau_mul(self.num, other.num), self.den + other.den)

    def __add__(self, other):
        lcm = Counter({i: max(self.den.get(i, 0), other.den.get(i, 0))
                       for i in set(self.den) | set(other.den)})
        a = lau_mul(self.num, _den_expand(lcm - self.den))
        b = lau_mul(other.num, _den_expand(lcm - other.den))
        return Coeff(lau_add(a, b), lcm)

    def __eq__(self, other):
        return (lau_mul(self.num, _den_expand(other.den))
                == lau_mul(other.num, _den_expand(self.den)))

    def __repr__(self):
        return f"Coeff({self.num}, den={dict(self.den)})"

    def to_json(self):
        return {"num": [[p, c] for (p, c) in sorted(self.num.items())],
                "den": [[i, m] for (i, m) in sorted(self.den.items())]}


# --- pairing form ---

class PairingForm:
    """(alpha, beta) = alpha^t B beta for a skew-symmetrizable B."""

    def __init__(self, matrix):
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        n = len(self.matrix)
        for i in range(n):
            if self.matrix[i][i] != 0:
                raise ValueError("pairing matrix must have zero diagonal")
            for j in range(n):
                bij, bji = self.matrix[i][j], self.matrix[j][i]
                if (bij == 0) != (bji == 0) or bij * bji > 0:
                    raise ValueError("pairing matrix is not skew-symmetrizable")

    @property
    def n(self):
        return len(self.matrix)

    def pair(self, alpha, beta):
        return sum(alpha[i] * self.matrix[i][j] * beta[j]
                   for i in range(self.n) for j in range(self.n))

    def __eq__(self, other):
        return isinstance(other, PairingForm) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)


# --- truncated series ---

class QSeries:
    """Truncated series sum_gamma terms[gamma] / (q)_|gamma| * y^gamma over
    |gamma| <= truncation; terms maps gamma to its Laurent numerator."""

    def __init__(self, truncation, form, terms=None):
        self.truncation = int(truncation)
        if self.truncation < 1:
            raise ValueError("truncation must be positive")
        self.form = form
        self.terms = {}
        if terms:
            for gamma, num in terms.items():
                num = {p: c for p, c in num.items() if c}
                if sum(gamma) <= self.truncation and num:
                    self.terms[tuple(gamma)] = num

    def coefficient(self, gamma):
        return Coeff(self.terms.get(tuple(gamma), {}),
                     Counter(range(1, sum(gamma) + 1)))

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.truncation == other.truncation
                and self.form == other.form and self.terms == other.terms)

    def __repr__(self):
        return f"QSeries(N={self.truncation}, {len(self.terms)} terms)"

    def to_json(self):
        return {"truncation": self.truncation,
                "terms": [{"exp": list(g), **self.coefficient(g).to_json()}
                          for g in sorted(self.terms)]}


def qseries_one(truncation, form):
    zero = tuple(0 for _ in range(form.n))
    return QSeries(truncation, form, {zero: lau_const(1)})


def _gaussian_rows(top):
    """rows[n][k] = [n choose k]_q as a Laurent polynomial in v, n <= top,
    by q-Pascal: [n choose k] = [n-1 choose k-1] + q^k [n-1 choose k]."""
    rows = [[{0: 1}]]
    for n in range(1, top + 1):
        prev = rows[-1] + [{}]
        rows.append([{0: 1}] + [
            lau_add(prev[k - 1], {p + 2 * k: c for p, c in prev[k].items()})
            for k in range(1, n + 1)])
    return rows


def qseries_mul(a, b, form):
    """Product with the twisted monomial rule y^a y^b = v^{-(a,b)} y^{a+b}.

    Over the fixed denominators, the numerators of y^alpha and y^beta
    multiply with v^{-(alpha,beta)} [|alpha|+|beta| choose |alpha|]_q.
    """
    if not (a.form == form and b.form == form):
        raise FormMismatch("series do not share the given pairing form")
    if a.truncation != b.truncation:
        raise FormMismatch(
            f"truncations differ: {a.truncation} vs {b.truncation}")
    rows = _gaussian_rows(a.truncation)
    out = {}
    for alpha, na in a.terms.items():
        da = sum(alpha)
        for beta, nb in b.terms.items():
            db = sum(beta)
            if da + db > a.truncation:
                continue
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            twist = -form.pair(alpha, beta)
            shifted = {p + twist: c for p, c in rows[da + db][da].items()}
            acc = out.setdefault(gamma, {})
            for p, c in lau_mul(lau_mul(na, nb), shifted).items():
                acc[p] = acc.get(p, 0) + c
    return QSeries(a.truncation, form, out)


def qseries_prod(factors, truncation, form):
    out = qseries_one(truncation, form)
    for f in factors:
        out = qseries_mul(out, f, form)
    return out


# --- the quantum dilogarithm ---

def dilog_series(alpha, truncation, form):
    """E(y^alpha) = sum_k v^k (y^alpha)^k / prod_{i<=k} (q^i - 1).

    Term k has numerator v^power prod_{k<i<=k|alpha|} (q^i - 1) over
    (q)_{k|alpha|}. The v-power per order is pinned by requiring the
    pentagon identity in the orientation E(N)E(M) = E(M)E(L)E(N); see
    check_pentagon.
    """
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != form.n:
        raise ValueError("exponent length does not match the form")
    if all(x == 0 for x in alpha) or any(x < 0 for x in alpha):
        raise ValueError("alpha must be a nonzero nonnegative vector")
    weight = sum(alpha)
    self_pair = form.pair(alpha, alpha)
    terms = {}
    k = 0
    while k * weight <= truncation:
        power = k - self_pair * k * (k - 1) // 2
        rest = _den_expand(Counter(range(k + 1, k * weight + 1)))
        terms[tuple(k * x for x in alpha)] = lau_mul(lau_monomial(power),
                                                    rest)
        k += 1
    return QSeries(truncation, form, terms)


def _form_of_module(m):
    return PairingForm(m.table.quiver.exchange)


def check_square(m, n_mod, truncation=8):
    """E(M) and E(N) commute when all four Hom/Ext spaces vanish."""
    from .finrep import ext_dim, hom_dim
    if (hom_dim(m, n_mod) or hom_dim(n_mod, m)
            or ext_dim(m, n_mod) or ext_dim(n_mod, m)):
        raise HypothesisViolated(
            "square identity needs all Hom and Ext spaces between the pair "
            "to vanish")
    form = _form_of_module(m)
    em = dilog_series(m.dim, truncation, form)
    en = dilog_series(n_mod.dim, truncation, form)
    return qseries_mul(em, en, form) == qseries_mul(en, em, form)


def check_pentagon(m, n_mod, l, truncation=8):
    """E(N)E(M) = E(M)E(L)E(N) for an almost-orthogonal pair with a
    one-dimensional extension of M by N and middle term L."""
    from .finrep import ext_dim, hom_dim
    if hom_dim(m, n_mod) or hom_dim(n_mod, m):
        raise HypothesisViolated("pentagon needs Hom to vanish both ways")
    if ext_dim(n_mod, m) != 0:
        raise HypothesisViolated("pentagon needs Ext(N, M) = 0")
    if ext_dim(m, n_mod) != 1:
        raise HypothesisViolated("pentagon needs Ext(M, N) one-dimensional")
    if tuple(l.dim) != tuple(x + y for x, y in zip(m.dim, n_mod.dim)):
        raise HypothesisViolated("middle term must have dim L = dim M + dim N")
    form = _form_of_module(m)
    em = dilog_series(m.dim, truncation, form)
    en = dilog_series(n_mod.dim, truncation, form)
    el = dilog_series(l.dim, truncation, form)
    lhs = qseries_mul(en, em, form)
    rhs = qseries_mul(qseries_mul(em, el, form), en, form)
    return lhs == rhs


# --- DT invariants along maximal green sequences ---

class DtReport:
    """Pairwise comparison of wall-crossing products across MGS records."""

    def __init__(self, series_list, mismatches):
        self.all_series = series_list
        self.mismatches = mismatches

    @property
    def ok(self):
        return not self.mismatches

    @property
    def series(self):
        if self.all_series and self.ok:
            return self.all_series[0]
        return None

    def __repr__(self):
        return f"DtReport(ok={self.ok}, records={len(self.all_series)})"


def _dt_form(ctx):
    """Pairing form of the DT products, which take E(y^alpha) untwisted."""
    if ctx.m != 1:
        raise ValueError("DT products are defined over m=1 records")
    b0 = ctx.B0
    if any(b0[i][j] != -b0[j][i] for i in range(ctx.n) for j in range(i)):
        raise HypothesisViolated(
            "DT products need a skew-symmetric B0; the untwisted E(y^alpha) "
            "does not hold for a valued quiver")
    return PairingForm(b0)


def _crossing_product(crossings, truncation, form):
    factors = [dilog_series(gv.coords, truncation, form) for gv in crossings]
    return qseries_prod(factors, truncation, form)


def dt_invariant_check(ctx, records, truncation):
    """Compute prod E(y^beta) over each record's crossings (first crossing
    leftmost) and report whether all products agree."""
    form = _dt_form(ctx)
    series_list = [_crossing_product(rec.crossings, truncation, form)
                   for rec in records]
    mismatches = [i for i in range(1, len(series_list))
                  if series_list[i] != series_list[0]]
    return DtReport(series_list, mismatches)


class EdgeReport:
    """Per-edge comparison of wall-crossing products on the green graph."""

    def __init__(self, products, mismatches, series):
        self.products = products        # node key -> P(key)
        self.mismatches = mismatches    # (from, to, k) of each bad edge
        self.series = series            # P(terminal), if ok

    @property
    def ok(self):
        return not self.mismatches

    def __repr__(self):
        return f"EdgeReport(ok={self.ok}, nodes={len(self.products)})"


def edge_invariant_check(ctx, graph, truncation):
    """Wall-crossing invariance checked once per green edge.

    Fixes P(initial) = 1 and walks graph.edges in BFS order, requiring
    P(w) = P(u) E(y^c) for the graded column c crossed at u; the first edge
    into w defines P(w).  Every MGS is a green path, so agreement on every
    edge gives agreement of every MGS product (path independence: Keller,
    On cluster theory and quantum dilogarithm identities, 2011).

    When every edge agrees, the report's series is P at the terminal node
    (at m = 1 there is one terminal key): the product along any MGS, which
    has one numerator per term, so it serializes the same for every MGS.
    It is None when no MGS ends within the graph.
    """
    form = _dt_form(ctx)
    products = {graph.initial: qseries_one(truncation, form)}
    mismatches = []
    for (u, w, k, _p) in graph.edges:
        crossed = graph.nodes[u].graded_column(k - 1)
        step = qseries_mul(products[u],
                           dilog_series(crossed.coords, truncation, form), form)
        if w not in products:
            products[w] = step
        elif step != products[w]:
            mismatches.append((u, w, k))
    series = (products[graph.terminals[0]]
              if graph.terminals and not mismatches else None)
    return EdgeReport(products, mismatches, series)
