"""Exhaustive vertex enumeration for small balanced transportation polytopes.

Every vertex of the transportation polytope is the flow vector of a spanning
tree of K_{r,s} (sources ``0..r-1``, then sinks ``r..r+s-1``).  Its
r^(s-1) * s^(r-1) trees (Scoins 1962) are decoded from bipartite Prüfer codes
of s - 1 source and r - 1 sink labels: degrees are one plus the count in the
code, the smallest-numbered leaf is joined to the next unused label of the
other side r + s - 2 times, then the last two nodes are joined.  The scan
peels each tree in the same order: a leaf's remaining net supply is its
edge's flow and passes on to its neighbour.  Both work in chunks of ``CHUNK``
trees, so memory beyond the cached table (three bytes per edge, 10.5 MB for
K_{5,5}) is bounded whatever the shape.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

FLOW_FEAS_TOL = 1e-11
#: Trees decoded or scanned at a time: a step's 64 KB arrays stay in cache and
#: below the size for which malloc maps fresh pages (2**15 ran slower).
CHUNK = 1 << 13


@lru_cache(maxsize=None)
def bipartite_tree_tensors(r: int, s: int):
    """All spanning trees of K_{r,s}, edges in elimination order.

    Returns ``(eu, ev, leaf_row)``: edge ``e`` of tree ``t`` joins source
    ``eu[t, e]`` to sink ``ev[t, e]``, and ``leaf_row[t, e]`` is true when the
    source was the removed leaf.  The last edge joins the final two nodes and
    counts the source as its leaf.
    """
    n = r + s
    # mixed-radix code: s - 1 source labels, then r - 1 sink labels
    radix = np.array([r] * (s - 1) + [s] * (r - 1), dtype=np.intp)
    place = np.cumprod(radix) // radix
    T = int(np.prod(radix))
    # column-major, so that each step's column is contiguous
    eu = np.empty((n - 1, T), dtype=np.uint8).T
    ev = np.empty((n - 1, T), dtype=np.uint8).T
    leaf_row = np.empty((n - 1, T), dtype=bool).T
    for lo in range(0, T, CHUNK):
        codes = np.arange(lo, min(lo + CHUNK, T))
        m = len(codes)
        ar = np.arange(m)
        labels = codes[:, None] // place % radix + (np.arange(n - 2) >= s - 1) * r  # as nodes
        deg = np.ones((m, n), dtype=np.int8)
        for k in range(n - 2):
            deg[ar, labels[:, k]] += 1
        nxt_src = np.zeros(m, dtype=np.intp)  # next unused source label
        nxt_snk = np.full(m, s - 1, dtype=np.intp)  # next unused sink label
        for k in range(n - 2):
            leaf = (deg == 1).argmax(axis=1)
            is_row = leaf < r
            nbr = labels[ar, np.where(is_row, nxt_snk, nxt_src)]
            nxt_snk += is_row
            nxt_src += ~is_row
            deg[ar, leaf] = 0
            deg[ar, nbr] -= 1
            eu[lo:lo + m, k] = np.where(is_row, leaf, nbr)
            ev[lo:lo + m, k] = np.where(is_row, nbr, leaf) - r
            leaf_row[lo:lo + m, k] = is_row
        eu[lo:lo + m, -1] = (deg[:, :r] == 1).argmax(axis=1)
        ev[lo:lo + m, -1] = (deg[:, r:] == 1).argmax(axis=1)
        leaf_row[lo:lo + m, -1] = True
    return eu, ev, leaf_row


def min_cost_vertex(a: np.ndarray, b: np.ndarray, C: np.ndarray) -> float:
    """Exact optimum of the balanced transportation LP by scanning all vertices.

    Flows are computed on marginals divided by their largest entry, so the
    feasibility tolerance acts at unit scale; the optimum is multiplied back.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    r, s = len(a), len(b)
    n = r + s
    eu, ev, leaf_row = bipartite_tree_tensors(r, s)
    scale = max(float(a.max()), float(b.max())) or 1.0
    supply = np.concatenate([a, -b]) / scale
    costs = np.asarray(C, dtype=float).ravel()
    best = np.inf
    for lo in range(0, len(eu), CHUNK):
        u, v, row = eu[lo:lo + CHUNK], ev[lo:lo + CHUNK], leaf_row[lo:lo + CHUNK]
        m = len(u)
        rem = np.tile(supply, m)  # remaining net supply of node j of tree t at t * n + j
        at_u = np.arange(0, m * n, n)
        at_v = at_u + r
        feasible = np.ones(m, dtype=bool)
        total = np.zeros(m)
        for k in range(n - 1):
            uk, vk, rk = u[:, k].astype(np.intp), v[:, k], row[:, k]
            iu, iv = at_u + uk, at_v + vk
            xu, xv = rem.take(iu), rem.take(iv)
            # the neighbour takes the leaf's supply; the leaf is never read again
            rem[iu] = rem[iv] = xu + xv
            flow = xu * rk - xv * ~rk  # xu from a source leaf, -xv from a sink leaf
            feasible &= flow >= -FLOW_FEAS_TOL
            total += flow * costs.take(uk * s + vk)
        if feasible.any():
            best = min(best, float(total[feasible].min()))
    if best == np.inf:
        raise RuntimeError("internal error: no feasible basic flow found")
    return scale * best
