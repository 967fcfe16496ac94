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
from collections import namedtuple

from .errors import NodeCapExceeded, SlopeAtMax
from .mutation import initial_state, is_terminal, mu_plus, states_to_json

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
    enters a node only if green_paths says it is at most the steps left
    from a terminal node, and truncated is true iff some non-terminal node
    is depth_cap or more steps from the initial node along a green path.
    Raises NodeCapExceeded if the capped graph exceeds node_cap nodes.
    """
    graph = exchange_graph(ctx, node_cap=node_cap, depth_cap=depth_cap)
    paths = green_paths(graph, depth_cap)
    records = list(_walk_mgs(ctx, paths.to_end, depth_cap))
    return MgsResult(records, paths.truncated)


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


def _walk_mgs(ctx, to_end, depth_cap):
    """Yield the records of enumerate_mgs in order, given the to_end of
    green_paths(graph, depth_cap).  DFS over concrete states on an explicit
    stack, so the depth is not bounded by Python's recursion limit; a move
    is entered only if its target is at most the steps left from a terminal
    node, so every branch entered ends in a record."""
    memo = {}
    path, crossings = [], []  # path[d] leads from stack[d] to stack[d + 1]
    stack = [iter(_green_moves(initial_state(ctx), memo))]
    while stack:
        left = depth_cap - len(stack)  # steps left after the next move
        for k, nxt, column, terminal, key in stack[-1]:
            if to_end.get(key, left + 1) <= left:
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


GreenPaths = namedtuple("GreenPaths", "longest to_end count truncated")


def green_paths(graph, depth_cap=None):
    """Green-path facts of an exchange graph, all from one topological order.

    longest[key]: the most steps from the initial node to key.
    to_end[key]: the fewest steps from key to a terminal node; keys that
    reach none are missing.
    With depth_cap, count is the number of green paths of at most depth_cap
    steps from the initial to a terminal node (the maximal green sequences
    enumerate_mgs lists), and truncated is true iff some non-terminal node
    is depth_cap or more steps from the initial node; without it both are
    None.  Raises ValueError if the green edges have a directed cycle.
    """
    if depth_cap is not None and depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    succ = {key: [] for key in graph.nodes}
    indeg = dict.fromkeys(graph.nodes, 0)
    for (u, v, _k, _p) in graph.edges:
        succ[u].append(v)
        indeg[v] += 1
    # Kahn's algorithm; order grows while it is read, and each node's
    # longest distance is final when the node is read
    order = [key for key, d in indeg.items() if d == 0]
    longest = {graph.initial: 0}
    for u in order:
        for v in succ[u]:
            longest[v] = max(longest.get(v, 0), longest[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) != len(graph.nodes):
        raise ValueError("green-edge relation has a directed cycle")
    to_end = dict.fromkeys(graph.terminals, 0)
    for u in reversed(order):
        ends = [to_end[v] for v in succ[u] if v in to_end]
        if ends:
            to_end[u] = min(ends) + 1
    if depth_cap is None:
        return GreenPaths(longest, to_end, None, None)
    # layer d maps each node that is d steps from the initial node and can
    # still end within depth_cap - d steps to its number of such paths
    terminals = set(graph.terminals)
    count, left, layer = 0, depth_cap, {graph.initial: 1}
    while layer:
        left -= 1
        nxt = {}
        for u, ways in layer.items():
            if u in terminals:
                count += ways
            for v in succ[u]:
                if to_end.get(v, left + 1) <= left:
                    nxt[v] = nxt.get(v, 0) + ways
        layer = nxt
    truncated = any(d >= depth_cap for key, d in longest.items()
                    if key not in terminals)
    return GreenPaths(longest, to_end, count, truncated)


def longest_mgs(ctx, node_cap=None):
    """Length of the longest green path from the initial to a terminal node."""
    graph = exchange_graph(ctx, node_cap=node_cap)
    longest = green_paths(graph).longest
    if not graph.terminals:
        raise ValueError("no terminal node reachable from the initial state")
    return max(longest[t] for t in graph.terminals)


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
    keys = sorted(graph.nodes)
    states = states_to_json([graph.nodes[key] for key in keys])
    return {
        "nodes": [{"key": key, "state": state}
                  for key, state in zip(keys, states)],
        "edges": [{"from": u, "to": v, "k": k, "parity": p}
                  for (u, v, k, p) in sorted(graph.edges)],
        "initial": graph.initial,
        "terminals": list(graph.terminals),
    }


def mgs_to_json(result):
    return {"sequences": [rec.to_json() for rec in result.records],
            "truncated": result.truncated}
