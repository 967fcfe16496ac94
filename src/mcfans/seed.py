"""Valued quivers: Euler form, symmetrizer, exchange matrix, and the g-vector
of a dimension vector.

Conventions used throughout the package:
  * vertices are 1..n in user-facing text, 0..n-1 internally;
  * euler[i][j] for i != j is minus the weighted arrow count i -> j, so the
    pairing <a, b> = a^T E b computes hom - ext for modules;
  * symmetrizer f is a tuple of positive ints with f_i e_ij = f_j e_ji
    symmetrized via E^T D ... concretely D^{-1}(E^T - E) must be integral.
"""

from .intmat import mat_vec, transpose


class ValuedQuiver:
    """Acyclic valued quiver, stored as an Euler matrix plus symmetrizer."""

    def __init__(self, n, euler, symmetrizer=None, name=None):
        if symmetrizer is None:
            symmetrizer = tuple([1] * n)
        euler = tuple(tuple(int(x) for x in row) for row in euler)
        symmetrizer = tuple(int(x) for x in symmetrizer)
        if len(euler) != n or any(len(row) != n for row in euler):
            raise ValueError(f"euler matrix must be {n}x{n}")
        if len(symmetrizer) != n:
            raise ValueError(f"symmetrizer must have length {n}")
        if any(f <= 0 for f in symmetrizer):
            raise ValueError("symmetrizer entries must be positive")
        for i in range(n):
            if euler[i][i] != symmetrizer[i]:
                raise ValueError(f"euler diagonal entry {i + 1} must equal symmetrizer")
            for j in range(n):
                if i != j and euler[i][j] > 0:
                    raise ValueError("off-diagonal euler entries must be <= 0")
        self.n = n
        self.euler = euler
        self.symmetrizer = symmetrizer
        self.name = name
        self._check_acyclic()
        # integrality of D^{-1}(E^T - E) is checked eagerly so a bad quiver
        # fails at construction, not deep inside a mutation
        self.exchange = self._exchange_matrix()

    # --- validation ---

    def _check_acyclic(self):
        n = self.n
        arrows = {(i, j) for i in range(n) for j in range(n)
                  if i != j and self.euler[i][j] != 0}
        indeg = [0] * n
        for _, j in arrows:
            indeg[j] += 1
        queue = [v for v in range(n) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for (a, b) in list(arrows):
                if a == v:
                    arrows.discard((a, b))
                    indeg[b] -= 1
                    if indeg[b] == 0:
                        queue.append(b)
        if seen != n:
            raise ValueError("quiver has an oriented cycle")

    def _exchange_matrix(self):
        e = self.euler
        f = self.symmetrizer
        n = self.n
        b = []
        for i in range(n):
            row = []
            for j in range(n):
                num = e[j][i] - e[i][j]
                if num % f[i] != 0:
                    raise ValueError(
                        f"(E^T - E)[{i + 1}][{j + 1}] = {num} not divisible by "
                        f"symmetrizer entry {f[i]}")
                row.append(num // f[i])
            b.append(tuple(row))
        return tuple(b)

    # --- niceties ---

    def arrows(self):
        """List of (src, tgt, weight) with weight = -euler[src][tgt] > 0."""
        return [(i, j, -self.euler[i][j])
                for i in range(self.n) for j in range(self.n)
                if i != j and self.euler[i][j] != 0]

    def key(self):
        return (self.euler, self.symmetrizer)

    def __eq__(self, other):
        return isinstance(other, ValuedQuiver) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"ValuedQuiver(name={self.name!r}, n={self.n})"

    def to_json(self):
        return {"name": self.name, "n": self.n,
                "euler": [list(r) for r in self.euler],
                "symmetrizer": list(self.symmetrizer)}

    @classmethod
    def from_json(cls, data):
        return cls(data["n"], data["euler"], data.get("symmetrizer"),
                   name=data.get("name"))


# --- presets ---

def _linear_quiver(orientation, name=None):
    """A_n path quiver; orientation[t] in '<>' orients edge t+1 -- t+2."""
    n = len(orientation) + 1
    e = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for t, ch in enumerate(orientation):
        if ch == '<':      # arrow t+1 -> t
            e[t + 1][t] = -1
        elif ch == '>':    # arrow t -> t+1
            e[t][t + 1] = -1
        else:
            raise ValueError(f"orientation characters must be '<' or '>', got {ch!r}")
    return ValuedQuiver(n, e, name=name)


def preset(name):
    """Named quivers: a2, a3, a2tilde, or a_n:<orientation string>."""
    if name == "a2":
        return _linear_quiver("<", name="a2")
    if name == "a3":
        return _linear_quiver("<>", name="a3")
    if name == "a2tilde":
        # vertices 1,2,3 with arrows 2->1, 3->1, 3->2 (acyclic orientation
        # of the triangle; affine type)
        e = [[1, 0, 0],
             [-1, 1, 0],
             [-1, -1, 1]]
        return ValuedQuiver(3, e, name="a2tilde")
    if name.startswith("a_n:"):
        orient = name[len("a_n:"):]
        if not orient:
            raise ValueError("a_n preset needs an orientation string, e.g. a_n:<>")
        return _linear_quiver(orient, name=name)
    raise ValueError(f"unknown quiver preset {name!r}")


# --- core pairings / transforms ---

def euler_pairing(q, a, b):
    """<a, b> = a^T E b (equals hom - ext on module classes)."""
    if len(a) != q.n or len(b) != q.n:
        raise ValueError("vectors must have length n")
    return sum(a[i] * q.euler[i][j] * b[j]
               for i in range(q.n) for j in range(q.n))


def g_of_dim(q, d):
    """Integer g-vector with D g = E^T d; raises ValueError if non-integral
    (which signals d is not a module class for q)."""
    if len(d) != q.n:
        raise ValueError("dimension vector must have length n")
    et_d = mat_vec(transpose(q.euler), list(d))
    g = []
    for i, x in enumerate(et_d):
        if x % q.symmetrizer[i] != 0:
            raise ValueError(
                f"no integral g-vector: (E^T d)[{i + 1}] = {x} not divisible by "
                f"{q.symmetrizer[i]}")
        g.append(x // q.symmetrizer[i])
    return tuple(g)
