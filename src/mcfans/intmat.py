"""Small exact linear algebra helpers (lists of lists, int/Fraction entries).

Everything here is exact: integer matrices stay integer where possible and
anything that needs division goes through fractions.Fraction.
"""

from fractions import Fraction


# --- basics ---

def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def copy_matrix(a):
    return [list(row) for row in a]


def dot(u, v):
    """Dot product; no length check, so zip truncates to the shorter one."""
    return sum(x * y for x, y in zip(u, v))


def mat_mul(a, b):
    """Matrix product a*b."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} * {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    """Matrix-vector product a*v."""
    if a and len(a[0]) != len(v):
        raise ValueError("shape mismatch in mat_vec")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


# --- elimination-based routines ---

def det(a):
    """Determinant of an integer matrix via fraction-free Bareiss.

    Every division is exact, so the arithmetic stays in integers.
    """
    n = len(a)
    if n == 0:
        return 1
    m = copy_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rref(a):
    """Reduced row echelon form over Fraction. Returns (matrix, pivot_cols)."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a):
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a):
    """Basis (list of Fraction vectors) of the right null space of a."""
    if not a:
        return []
    cols = len(a[0])
    m, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis
