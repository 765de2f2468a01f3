"""Exhaustive vertex enumeration for small balanced transportation polytopes.

Every vertex of the transportation polytope is the flow vector of a spanning
tree of the complete bipartite graph on the sources and sinks; enumerating
all trees and keeping the feasible flows therefore scans every basic feasible
solution.  Tree sets are cached per shape: 4096 trees for K_{4,4} (6-atom
instances), ~3.9e5 for K_{5,5} (the 8-atom oracle cap, a few seconds once).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

FLOW_FEAS_TOL = 1e-11


@lru_cache(maxsize=None)
def bipartite_tree_tensors(r: int, s: int):
    """All spanning trees of K_{r,s} with per-edge cut memberships.

    Returns ``(eu, ev, cuts)`` where ``eu[t, e]``/``ev[t, e]`` are the source
    and sink endpoints of edge ``e`` of tree ``t`` and ``cuts[t, e, k]`` marks
    the nodes (sources then sinks) on the source-endpoint side once the edge
    is removed.
    """
    n = r + s
    edges_all = [(i, r + j) for i in range(r) for j in range(s)]
    n_edges = n - 1

    trees = []
    for combo in combinations(range(len(edges_all)), n_edges):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for e in combo:
            u, v = edges_all[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            trees.append(combo)

    T = len(trees)
    eu = np.empty((T, n_edges), dtype=np.int32)
    ev = np.empty((T, n_edges), dtype=np.int32)
    cut_bits = np.empty((T, n_edges), dtype=np.int64)
    full_mask = (1 << n) - 1

    for t, combo in enumerate(trees):
        edges = [edges_all[e] for e in combo]
        adj = [[] for _ in range(n)]
        for idx, (u, v) in enumerate(edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        parent_node = [-1] * n
        parent_edge = [-1] * n
        order = []
        stack = [0]
        seen = [False] * n
        seen[0] = True
        while stack:
            node = stack.pop()
            order.append(node)
            for nxt, idx in adj[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    parent_node[nxt] = node
                    parent_edge[nxt] = idx
                    stack.append(nxt)
        subtree = [1 << k for k in range(n)]
        for node in reversed(order):
            p = parent_node[node]
            if p >= 0:
                subtree[p] |= subtree[node]
        for idx, (u, v) in enumerate(edges):
            eu[t, idx] = u
            ev[t, idx] = v - r
            # child side of the edge, oriented so the mask holds u's side
            child = v if parent_node[v] == u else u
            mask = subtree[child]
            if not (mask >> u) & 1:
                mask = full_mask ^ mask
            cut_bits[t, idx] = mask

    shifts = np.arange(n, dtype=np.int64)
    cuts = ((cut_bits[:, :, None] >> shifts[None, None, :]) & 1).astype(np.uint8)
    return eu, ev, cuts


def min_cost_vertex(a: np.ndarray, b: np.ndarray, C: np.ndarray) -> float:
    """Exact optimum of the balanced transportation LP by scanning all vertices.

    Flows are computed on marginals divided by their largest entry, so the
    feasibility tolerance acts at unit scale; the optimum is multiplied back.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    r, s = len(a), len(b)
    eu, ev, cuts = bipartite_tree_tensors(r, s)
    scale = max(float(a.max()), float(b.max())) or 1.0
    supply = np.concatenate([a, -b]) / scale
    flows = np.einsum("ten,n->te", cuts, supply)
    feasible = (flows >= -FLOW_FEAS_TOL).all(axis=1)
    if not np.any(feasible):
        raise RuntimeError("internal error: no feasible basic flow found")
    edge_costs = C[eu, ev]
    totals = (flows * edge_costs).sum(axis=1)
    return scale * float(totals[feasible].min())
