"""Exchange-graph exploration, maximal green sequences, edge parity and fan
components.

m-clusters are unordered, so states are identified up to simultaneous column
permutation (canonical_key: the sorted graded columns).  Graph nodes are
canonical keys with one concrete representative state each; the graph is the
closure of the initial state under mu_plus, and every green edge is recorded
while expanding a representative.
"""

import json
import math

from .errors import NodeCapExceeded, SlopeAtMax
from .mutation import initial_state, is_terminal, mu_plus, state_to_json

DEFAULT_NODE_CAP = 100000


def canonical_key(st):
    """JSON list of the graded columns [slope_j, |c_j|], in sorted order.

    This is a canonical form up to column permutation: B = D^-1 C^T D B0 C is
    fixed by the signed C, and permuting columns conjugates B.  det C = +-1,
    so no two |c_j| are equal and the sort has exactly one result.
    """
    return json.dumps(sorted(zip(st.slopes, zip(*st.absC))),
                      separators=(",", ":"))


class ExchangeGraph:
    """Canonicalized exchange graph: nodes, green edges, initial/terminal keys."""

    def __init__(self, nodes, edges, initial, terminals):
        self.nodes = nodes          # key -> representative MutationState
        self.edges = edges          # list of (from_key, to_key, k, parity)
        self.initial = initial
        self.terminals = terminals

    def __len__(self):
        return len(self.nodes)


def classify_edge(st, k):
    """'horizontal' if the mutated slope is even, 'vertical' if odd."""
    sk = st.slopes[k - 1]
    if sk == st.context.m:
        raise SlopeAtMax(f"slope at vertex {k} already equals m")
    return "horizontal" if sk % 2 == 0 else "vertical"


def exchange_graph(ctx, node_cap=None, depth_cap=None):
    """Closure of the initial state under mu_plus, keyed by canonical_key.

    Each node keeps the first representative state that reached its key, and
    every mu_plus from a representative is recorded as a green edge, in BFS
    order.  No mu_minus closure is needed: in finite type every state of the
    silting interval [A[m], A] is reached from A by green (left) mutations
    alone (Aihara-Iyama, Silting mutation in triangulated categories, 2012).

    With depth_cap, nodes at BFS depth depth_cap are kept but not expanded,
    so the graph holds every green path of at most depth_cap steps from the
    initial node.

    Raises NodeCapExceeded if more than node_cap canonical classes appear
    (guards against non-finite type).
    """
    cap = DEFAULT_NODE_CAP if node_cap is None else int(node_cap)
    if depth_cap is not None and depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    init = initial_state(ctx)
    init_key = canonical_key(init)
    reps = {init_key: init}
    depth = {init_key: 0}
    edges = []
    queue = [init_key]
    qi = 0
    while qi < len(queue):
        key = queue[qi]
        qi += 1
        if depth[key] == depth_cap:
            continue
        st = reps[key]
        for k in range(1, ctx.n + 1):
            if st.slopes[k - 1] == ctx.m:
                continue
            nxt = mu_plus(st, k)
            nkey = canonical_key(nxt)
            if nkey not in reps:
                reps[nkey] = nxt
                depth[nkey] = depth[key] + 1
                queue.append(nkey)
                if len(reps) > cap:
                    raise NodeCapExceeded(f"exchange graph exceeds {cap} nodes")
            edges.append((key, nkey, k, classify_edge(st, k)))
    terminals = sorted(k for k, s in reps.items() if is_terminal(s))
    return ExchangeGraph(reps, edges, init_key, terminals)


def fuss_catalan(n, m):
    """(1/(m(n+1)+1)) * binomial((m+1)(n+1), n+1), exactly."""
    if n < 1 or m < 1:
        raise ValueError("fuss_catalan needs n, m >= 1")
    num = math.comb((m + 1) * (n + 1), n + 1)
    den = m * (n + 1) + 1
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("Fuss-Catalan closed form came out non-integral")
    return q


class MgsRecord:
    """One maximal green sequence: vertex indices plus graded crossings."""

    def __init__(self, mutations, crossings):
        self.mutations = tuple(mutations)
        self.crossings = tuple(crossings)

    @property
    def length(self):
        return len(self.mutations)

    def __repr__(self):
        return f"MgsRecord(mutations={self.mutations})"

    def to_json(self):
        return {"mutations": list(self.mutations),
                "crossings": [c.to_json() for c in self.crossings]}


class MgsResult:
    """All MGSs found within the depth cap, plus a truncation flag."""

    def __init__(self, records, truncated):
        self.records = list(records)
        self.truncated = truncated

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


def enumerate_mgs(ctx, depth_cap, node_cap=None):
    """All maximal positive-mutation sequences from the initial state that
    terminate (all slopes = m) within depth_cap steps, in DFS order:
    ascending vertex index at every branch.

    Every such sequence is a green path of at most depth_cap steps, so the
    listing works on exchange_graph(ctx, depth_cap=depth_cap): the walk
    enters only branches that green_path_counts says can still end, and
    truncated is true iff some non-terminal node is depth_cap or more steps
    from the initial node along a green path.  Raises NodeCapExceeded if
    the capped graph exceeds node_cap nodes.
    """
    graph = exchange_graph(ctx, node_cap=node_cap, depth_cap=depth_cap)
    records = list(_walk_mgs(ctx, green_path_counts(graph, depth_cap),
                             depth_cap))
    return MgsResult(records, mgs_truncated(graph, depth_cap))


def mgs_truncated(graph, depth_cap):
    """Whether some non-terminal node of the graph is depth_cap or more
    steps from the initial node along a green path."""
    terminals = set(graph.terminals)
    return any(d >= depth_cap for key, d in
               _longest_distances(graph).items() if key not in terminals)


def _green_moves(st, memo):
    """(k, next state, graded column crossed, terminal?, key of next) for
    each green mutation of st, ascending k; computed once per state."""
    label = (st.absC, st.slopes)
    moves = memo.get(label)
    if moves is None:
        moves = memo[label] = []
        for k in range(1, st.context.n + 1):
            if st.slopes[k - 1] < st.context.m:
                nxt = mu_plus(st, k)
                moves.append((k, nxt, st.graded_column(k - 1),
                              is_terminal(nxt), canonical_key(nxt)))
    return moves


def _walk_mgs(ctx, counts, depth_cap):
    """Yield the records of enumerate_mgs in order, given
    green_path_counts(graph, depth_cap).  DFS over concrete states on an
    explicit stack, so the depth is not bounded by Python's recursion limit;
    a move is entered only if its target still has a green path to a
    terminal node within the steps left, so every branch ends in a record."""
    memo = {}
    path, crossings = [], []  # path[d] leads from stack[d] to stack[d + 1]
    stack = [iter(_green_moves(initial_state(ctx), memo))]
    while stack:
        left = depth_cap - len(stack)  # steps left after the next move
        for k, nxt, column, terminal, key in stack[-1]:
            if (key, left) in counts:
                break
        else:
            stack.pop()
            if stack:
                path.pop()
                crossings.pop()
            continue
        path.append(k)
        crossings.append(column)
        if terminal:
            yield MgsRecord(path, crossings)
            path.pop()
            crossings.pop()
        else:
            stack.append(iter(_green_moves(nxt, memo)))


def _successors(graph):
    succ = {key: [] for key in graph.nodes}
    for (u, v, _k, _p) in graph.edges:
        succ[u].append(v)
    return succ


def green_path_counts(graph, depth_cap):
    """Number of green paths of at most s steps from a node to a terminal
    one, as a dict {(key, s): count}.  It holds the pairs with a nonzero
    count that green paths from (graph.initial, depth_cap) reach; a missing
    pair counts 0.  The entry (graph.initial, depth_cap) is the number of
    maximal green sequences enumerate_mgs lists at depth_cap.

    Iterative DP: a BFS on reversed edges gives each node's fewest steps to
    a terminal node; the nodes reached after d steps that can still end
    within depth_cap - d steps form layer d; counts run from the last layer
    back to the initial node.
    """
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    succ = _successors(graph)
    pred = {key: [] for key in graph.nodes}
    for (u, v, _k, _p) in graph.edges:
        pred[v].append(u)
    to_end = dict.fromkeys(graph.terminals, 0)
    queue = list(graph.terminals)
    for v in queue:
        for u in pred[v]:
            if u not in to_end:
                to_end[u] = to_end[v] + 1
                queue.append(u)
    if to_end.get(graph.initial, depth_cap + 1) > depth_cap:
        return {}
    layers = [{graph.initial}]
    for left in range(depth_cap - 1, -1, -1):
        layers.append({v for u in layers[-1] if to_end[u] for v in succ[u]
                       if to_end.get(v, left + 1) <= left})
    counts = {}
    for left, layer in enumerate(reversed(layers)):
        for u in layer:
            counts[u, left] = (sum(counts.get((v, left - 1), 0)
                                   for v in succ[u]) if to_end[u] else 1)
    return counts


def _toposort_green(graph):
    """Topological order of nodes under green edges; raises if cyclic."""
    out = _successors(graph)
    indeg = {key: 0 for key in graph.nodes}
    for (_u, v, _k, _p) in graph.edges:
        indeg[v] += 1
    order = [k for k in sorted(indeg) if indeg[k] == 0]
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for v in sorted(out[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) != len(graph.nodes):
        raise ValueError("green-edge relation has a directed cycle")
    return order


def _longest_distances(graph):
    """Length of the longest green path from the initial node to each node."""
    succ = _successors(graph)
    dist = {graph.initial: 0}
    for u in _toposort_green(graph):
        for v in succ[u]:
            dist[v] = max(dist.get(v, 0), dist[u] + 1)
    return dist


def longest_mgs(ctx, node_cap=None):
    """Length of the longest green path from the initial to a terminal node."""
    graph = exchange_graph(ctx, node_cap=node_cap)
    dist = _longest_distances(graph)
    if not graph.terminals:
        raise ValueError("no terminal node reachable from the initial state")
    return max(dist[t] for t in graph.terminals)


def fan_components(graph, parity):
    """Connected components of the subgraph keeping only edges of one parity.

    Returns a list of sorted key tuples, largest first (ties by first key).
    """
    if parity not in ("horizontal", "vertical"):
        raise ValueError(f"parity must be horizontal or vertical, got {parity!r}")
    parent = {key: key for key in graph.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v, _k, p) in graph.edges:
        if p == parity:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    groups = {}
    for key in graph.nodes:
        groups.setdefault(find(key), []).append(key)
    comps = [tuple(sorted(g)) for g in groups.values()]
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


# --- serialization ---

def graph_to_json(graph):
    return {
        "nodes": [{"key": key, "state": state_to_json(graph.nodes[key])}
                  for key in sorted(graph.nodes)],
        "edges": [{"from": u, "to": v, "k": k, "parity": p}
                  for (u, v, k, p) in sorted(graph.edges)],
        "initial": graph.initial,
        "terminals": list(graph.terminals),
    }


def mgs_to_json(result):
    return {"sequences": [rec.to_json() for rec in result.records],
            "truncated": result.truncated}
