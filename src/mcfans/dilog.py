"""Truncated quantum-torus series and quantum dilogarithm identities.

Coefficients are exact rational functions in v = q^(1/2): an integer Laurent
polynomial numerator over a denominator kept as a multiset of (q^i - 1)
factors. Series terms live on exponent vectors with total degree <= the
truncation bound.
"""

from collections import Counter

from .errors import FormMismatch, HypothesisViolated


# --- Laurent polynomials in v (dict: power -> int coefficient) ---

def lau_zero():
    return {}

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

_DEN_CACHE = {}
_DEN_CACHE_SIZE = 4096  # entries; the oldest is evicted first


def _den_expand(den):
    """Expanded Laurent polynomial of prod_i (q^i - 1)^mult."""
    key = tuple(sorted((i, m) for i, m in den.items() if m))
    if key in _DEN_CACHE:
        return _DEN_CACHE[key]
    out = lau_const(1)
    for (i, mult) in key:
        factor = lau_add(lau_monomial(2 * i), lau_const(-1))
        for _ in range(mult):
            out = lau_mul(out, factor)
    if len(_DEN_CACHE) >= _DEN_CACHE_SIZE:
        del _DEN_CACHE[next(iter(_DEN_CACHE))]
    _DEN_CACHE[key] = out
    return out


class Coeff:
    """num / prod (q^i - 1)^den[i], exact."""

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


def coeff_one():
    return Coeff(lau_const(1))


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
    """Truncated series sum_alpha coeff_alpha * y^alpha, |alpha| <= truncation."""

    def __init__(self, truncation, form, terms=None):
        self.truncation = int(truncation)
        if self.truncation < 1:
            raise ValueError("truncation must be positive")
        self.form = form
        self.terms = {}
        if terms:
            for alpha, coeff in terms.items():
                if sum(alpha) <= self.truncation and not coeff.is_zero():
                    self.terms[tuple(alpha)] = coeff

    def coefficient(self, alpha):
        return self.terms.get(tuple(alpha), Coeff(lau_zero()))

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.truncation != other.truncation or self.form != other.form:
            return False
        for alpha in set(self.terms) | set(other.terms):
            if self.coefficient(alpha) != other.coefficient(alpha):
                return False
        return True

    def __repr__(self):
        return (f"QSeries(N={self.truncation}, "
                f"{len(self.terms)} terms)")

    def to_json(self):
        out = []
        for alpha in sorted(self.terms):
            entry = {"exp": list(alpha)}
            entry.update(self.terms[alpha].to_json())
            out.append(entry)
        return {"truncation": self.truncation, "terms": out}


def qseries_one(truncation, form):
    zero = tuple(0 for _ in range(form.n))
    return QSeries(truncation, form, {zero: coeff_one()})


def qseries_monomial(alpha, truncation, form, coeff=None):
    return QSeries(truncation, form,
                   {tuple(alpha): coeff if coeff is not None else coeff_one()})


def qseries_mul(a, b, form):
    """Product with the twisted monomial rule y^a y^b = v^{-(a,b)} y^{a+b}."""
    if not (a.form == form and b.form == form):
        raise FormMismatch("series do not share the given pairing form")
    if a.truncation != b.truncation:
        raise FormMismatch(
            f"truncations differ: {a.truncation} vs {b.truncation}")
    n = form.n
    out = {}
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            gamma = tuple(alpha[i] + beta[i] for i in range(n))
            if sum(gamma) > a.truncation:
                continue
            twist = Coeff(lau_monomial(-form.pair(alpha, beta)))
            contrib = ca * cb * twist
            if gamma in out:
                out[gamma] = out[gamma] + contrib
            else:
                out[gamma] = contrib
    return QSeries(a.truncation, form, out)


def qseries_prod(factors, truncation, form):
    out = qseries_one(truncation, form)
    for f in factors:
        out = qseries_mul(out, f, form)
    return out


# --- the quantum dilogarithm ---

def dilog_series(alpha, truncation, form):
    """E(y^alpha) = sum_k v^k (y^alpha)^k / prod_{i<=k} (q^i - 1).

    The v-power per order is pinned by requiring the pentagon identity in
    the orientation E(N)E(M) = E(M)E(L)E(N); see check_pentagon.
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
        den = Counter({i: 1 for i in range(1, k + 1)})
        terms[tuple(k * x for x in alpha)] = Coeff(lau_monomial(power), den)
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
        self.series = series            # product along the record, if ok

    @property
    def ok(self):
        return not self.mismatches

    def __repr__(self):
        return f"EdgeReport(ok={self.ok}, nodes={len(self.products)})"


def edge_invariant_check(ctx, graph, truncation, record):
    """Wall-crossing invariance checked once per green edge.

    Fixes P(initial) = 1 and walks graph.edges in BFS order, requiring
    P(w) = P(u) E(y^c) for the graded column c crossed at u; the first edge
    into w defines P(w).  Every MGS is a green path, so agreement on every
    edge gives agreement of every MGS product (path independence: Keller,
    On cluster theory and quantum dilogarithm identities, 2011).

    When every edge agrees, the report's series is the product along record
    (normally first_mgs), computed as dt_invariant_check computes it, so it
    serializes the same; it equals P at the record's terminal node.
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
    series = (None if mismatches
              else _crossing_product(record.crossings, truncation, form))
    return EdgeReport(products, mismatches, series)
