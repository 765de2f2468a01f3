"""Network simplex for balanced transportation problems.

One engine computes every optimum of the package: the coupling metric
directly, and the bounded and anchored Lipschitz seminorms through the
augmented problem of ``seminorm_problem``.  It is the primal network simplex
of Ahuja, Magnanti & Orlin, *Network Flows* (1993), ch. 11, on the bipartite
graph of sources (rows) and sinks (columns), as in the EMD solver of Bonneel
et al., "Displacement Interpolation Using Lagrangian Mass Transport"
(SIGGRAPH Asia 2011).

- The marginals are divided by their largest entry before solving and the
  flows and cost multiplied back afterwards, so every tolerance below acts at
  unit scale whatever the mass scale of the data.
- The basis is kept as a spanning tree rooted at row 0 with parent, depth and
  child links.  The cycle of an entering cell is found by walking both of its
  endpoints up to their common ancestor; after a pivot only the subtree cut
  off by the leaving cell is re-hung and has its depths and duals updated.
  A node's dual is fixed by its path to the root, so it equals what a fresh
  traversal of the basis would give.
- The starting basis is the least-cost ("matrix minimum") one: cells are
  taken in increasing cost and each closes its row or its column, so the
  start already ships most mass along cheap cells and the simplex needs far
  fewer pivots than from the northwest corner, which ignores the costs.
- The entering cell comes from block-search pricing, the default rule of
  LEMON (Kovács, "Minimum-cost flow algorithms: an experimental
  evaluation", 2015).  The cost matrix is priced in blocks of whole rows,
  ``PRICING_BLOCK_CELLS`` cells each, cyclically from the block after the
  one that gave the last entering cell.  Within a block the reduced costs
  ``(C - u) - v`` are computed and the block's most negative cell (first in
  row-major order) enters if it is below the stop tolerance.  The solve is
  optimal once a full cycle of blocks finds none, the same certificate as
  pricing the whole matrix.  A problem of at most ``PRICING_BLOCK_CELLS``
  cells is one block, which is Dantzig's rule.  Blocks of 1024 to 8192
  cells solve 256 x 256 and 512 x 512 problems within about 10% of each
  other's time; the largest keeps the most problems (every one up to
  90 x 90) on Dantzig's rule.  Basic cells are not masked: their reduced
  cost is round-off of the duals, about 1e-13 times the largest cost, far
  above the stop tolerance of ``-FLOW_TOL`` times it, so they never enter.
  Up to ``PRICING_BLOCK_CELLS`` cells the pivots, and so the flows, duals
  and cost, are those of Dantzig's rule bit for bit.  Above it the pivots
  differ, and where the optimum is tied the solve may return another
  optimal coupling or potential; it is still an optimum, and the
  certificate checks validate it as such.
- Degeneracy is resolved by an index-scaled perturbation of the source
  marginals: row i gets ``PERTURBATION * (i + 1)`` more, compensated on the
  last sink.  The flow on a tree edge is the net supply of the side of the
  tree that does not hold the last sink, and the perturbation adds
  ``PERTURBATION`` times the sum of ``i + 1`` over that side's rows.  That
  sum vanishes only when the side is a single leaf column, whose flow is its
  own demand (positive in every problem the package builds, as zero-mass
  atoms are dropped), so every basis the simplex visits, the starting one
  included, is nondegenerate whatever order it was built in.  The final basis
  is re-flowed against the unperturbed marginals, so reported flows and costs
  are exact for the original data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Perturbation of the unit-scale source marginals, times the row index + 1.
PERTURBATION = 1e-12
#: Optimality tolerance on reduced costs (times the largest cost), and the
#: most negative unit-scale basic flow that is clipped to zero.
FLOW_TOL = 1e-9
#: Largest relative imbalance of the total masses that is accepted.
BALANCE_TOL = 1e-9
#: Cells priced per block of whole rows (at least one row per block).
PRICING_BLOCK_CELLS = 8192
#: Sorted cells filtered at a time while building the starting basis.
START_CHUNK_CELLS = 1024


@dataclass(frozen=True)
class TransportSolution:
    flows: np.ndarray  # (r, s), basic cells only are nonzero
    cost: float
    u: np.ndarray
    v: np.ndarray
    iterations: int


def _least_cost_basis(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Starting basis by the matrix-minimum rule.

    Cells are visited in increasing cost (ties in row-major order); a cell
    whose row or column is closed is skipped, otherwise it ships what its row
    and column can still take and closes exactly one of them: the exhausted
    one, except that the last open column or row stays open until the last
    cell, which closes both (round-off could leave it short of the mass still
    owed to it).  A closed line appears in no later cell, so the r + s - 1
    cells form a spanning tree.  The sorted cells are taken in chunks of
    ``START_CHUNK_CELLS``, and numpy drops those of a chunk whose line closed
    before it, which the rule would skip anyway.
    """
    r, s = len(a), len(b)
    rem_a = a.tolist()
    rem_b = b.tolist()
    row_open = np.ones(r, dtype=bool)
    col_open = np.ones(s, dtype=bool)
    open_rows, open_cols = r, s
    basis = []
    flows = {}
    order = np.argsort(C, axis=None, kind="stable")
    for lo in range(0, order.size, START_CHUNK_CELLS):
        rows, cols = np.divmod(order[lo : lo + START_CHUNK_CELLS], s)
        keep = row_open[rows] & col_open[cols]
        for i, j in zip(rows[keep].tolist(), cols[keep].tolist()):
            if not (row_open[i] and col_open[j]):
                continue
            f = min(rem_a[i], rem_b[j])
            basis.append((i, j))
            flows[(i, j)] = f
            rem_a[i] -= f
            rem_b[j] -= f
            if open_cols == 1 or (open_rows > 1 and rem_a[i] <= rem_b[j]):
                row_open[i] = False
                open_rows -= 1
                if open_rows == 0:
                    return basis, flows
            else:
                col_open[j] = False
                open_cols -= 1
    return basis, flows


def _cell(node: int, other: int, r: int) -> tuple[int, int]:
    """Basis cell of the tree edge between ``node`` and ``other``."""
    return (node, other - r) if node < r else (other, node - r)


def _reflow(basis, a: np.ndarray, b: np.ndarray):
    """Exact tree flows for the original marginals.

    The flow on a tree edge is the net supply of the subtree it cuts off.  It
    is summed exactly, in integers over a common power-of-two denominator, and
    rounded once, so no rounding error accumulates along the tree.
    """
    r, s = len(a), len(b)
    ratios = [x.as_integer_ratio() for x in a.tolist()]
    ratios += [(-x).as_integer_ratio() for x in b.tolist()]
    den = max(q for _, q in ratios)
    net = [p * (den // q) for p, q in ratios]  # node balance: + supply, - demand
    adj = [[] for _ in range(r + s)]
    for (i, j) in basis:
        adj[i].append(r + j)
        adj[r + j].append(i)
    parent = [-1] * (r + s)
    order = [0]
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                order.append(y)
    flows = {}
    for x in reversed(order[1:]):
        up = parent[x]
        net[up] += net[x]
        # rows ship to columns
        flows[_cell(x, up, r)] = (net[x] if x < r else -net[x]) / den
    return flows


def solve_transportation(a, b, C) -> TransportSolution:
    """Balanced problem: min sum f_ij C_ij, row sums = a, column sums = b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    C = np.asarray(C, dtype=float)
    r, s = len(a), len(b)
    if C.shape != (r, s):
        raise ValueError("cost matrix shape mismatch")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("marginals must be nonnegative")
    total = math.fsum(a.tolist())
    if abs(total - math.fsum(b.tolist())) > BALANCE_TOL * total:
        raise ValueError("marginals are not balanced")
    max_iter = 50 * r * s + 1000

    scale = max(float(a.max()), float(b.max())) or 1.0
    a2 = a / scale + PERTURBATION * (np.arange(r) + 1.0)
    b2 = b / scale
    b2[-1] += math.fsum(a2.tolist()) - math.fsum(b2.tolist())

    # spanning tree of the starting basis, rooted at row 0; nodes are rows
    # 0..r-1 and columns r..r+s-1, and eflow[x] is the flow on the edge from
    # x to its parent
    basis, start_flows = _least_cost_basis(a2, b2, C)
    n_nodes = r + s
    adj = [[] for _ in range(n_nodes)]
    for (i, j) in basis:
        adj[i].append(r + j)
        adj[r + j].append(i)
    Cl = C.tolist()
    parent = [-1] * n_nodes
    depth = [0] * n_nodes
    eflow = [0.0] * n_nodes
    pot = [0.0] * n_nodes  # duals: u for rows, v for columns
    children = [set() for _ in range(n_nodes)]
    order = [0]
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                depth[y] = depth[x] + 1
                children[x].add(y)
                i, j = _cell(y, x, r)
                eflow[y] = float(start_flows[(i, j)])
                pot[y] = Cl[i][j] - pot[x]
                order.append(y)
    if len(order) != n_nodes:
        raise RuntimeError("internal error: transportation basis is not a spanning tree")
    duals = np.array(pot)
    u, v = duals[:r, None], duals[None, r:]

    stop = -FLOW_TOL * max(1.0, float(np.abs(C).max()))
    block_rows = max(1, PRICING_BLOCK_CELLS // s)
    n_blocks = -(-r // block_rows)
    rc_block = np.empty((min(block_rows, r), s))
    blk = 0
    it = 0
    for it in range(1, max_iter + 1):
        # block search: price blocks of rows cyclically from the one after
        # the last hit; a full cycle with no cell below stop is optimal
        for _ in range(n_blocks):
            lo = blk * block_rows
            hi = min(lo + block_rows, r)
            blk = (blk + 1) % n_blocks
            rc = rc_block[: hi - lo]
            np.subtract(C[lo:hi], u[lo:hi], out=rc)
            rc -= v
            k = rc.argmin()
            if rc.item(k) < stop:
                break
        else:
            break
        ei, ej = divmod(int(k), s)
        ei += lo
        # The cycle is the entering cell plus the tree path from column ej
        # up to the common ancestor and down to row ei.  Each side lists the
        # child ends of its edges from the endpoint upwards; even positions
        # lose flow, odd positions gain it.
        p, q = ei, r + ej
        side_q, side_p = [], []
        x, y = q, p
        while depth[x] > depth[y]:
            side_q.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            side_p.append(y)
            y = parent[y]
        while x != y:
            side_q.append(x)
            x = parent[x]
            side_p.append(y)
            y = parent[y]
        theta = min(eflow[z] for z in side_q[0::2] + side_p[0::2])
        # leaving edge: first minus cell in path order from column ej to row ei
        leave = next((t for t in range(0, len(side_q), 2) if eflow[side_q[t]] == theta), None)
        if leave is not None:
            path, inner, outer = side_q[: leave + 1], q, p
        else:
            leave = max(t for t in range(0, len(side_p), 2) if eflow[side_p[t]] == theta)
            path, inner, outer = side_p[: leave + 1], p, q
        for side in (side_q, side_p):
            for z in side[0::2]:
                eflow[z] -= theta
            for z in side[1::2]:
                eflow[z] += theta

        # re-hang the subtree cut off by the leaving edge below the entering
        # one: the path from inner up to the leaving edge reverses direction
        children[parent[path[-1]]].discard(path[-1])
        for t in range(len(path) - 1, 0, -1):
            eflow[path[t]] = eflow[path[t - 1]]
        eflow[inner] = theta
        prev = outer
        for z in path:
            parent[z] = prev
            children[prev].add(z)
            children[z].discard(prev)
            prev = z
        nodes = [inner]
        for z in nodes:
            up = parent[z]
            depth[z] = depth[up] + 1
            pot[z] = (Cl[z][up - r] if z < r else Cl[up][z - r]) - pot[up]
            nodes.extend(children[z])
        duals[nodes] = [pot[z] for z in nodes]
    else:
        raise RuntimeError("internal error: transportation simplex iteration limit")

    # tree flows are linear in the marginals: re-flowing against the original
    # data gives the unit-scale flows times the scale, without rounding twice
    basis = [_cell(x, parent[x], r) for x in range(1, n_nodes)]
    exact = _reflow(basis, a, b)
    out = np.zeros((r, s))
    neg = 0.0
    for (i, j), f in exact.items():
        if f < 0:
            neg = min(neg, f)
            f = 0.0
        out[i, j] = f
    if neg < -FLOW_TOL * scale:
        raise RuntimeError(f"internal error: negative basic flow {neg}")
    cost = math.fsum(out[i, j] * C[i, j] for (i, j) in exact)
    return TransportSolution(out, cost, duals[:r].copy(), duals[r:].copy(), it)


# ---------------------------------------------------------------------------
# Seminorms as transportation problems.  The bounded-Lipschitz and
# anchored-Lipschitz suprema equal balanced transportation optima on an
# augmented node set: a slack location at unit distance from everything
# (bounded mode) or the anchor itself (anchored mode) absorbs the surplus of
# either sign.
# ---------------------------------------------------------------------------


class SeminormProblem(NamedTuple):
    """Rows: positive atoms, then the absorbing node; columns: negative atoms,
    then the absorbing node."""

    pos: np.ndarray
    a: np.ndarray
    b: np.ndarray
    C: np.ndarray


def seminorm_problem(d: np.ndarray, weights: np.ndarray, mode: str, anchor: int = 0):
    """The transportation problem whose optimum is the sup of the weights'
    integral over 1-Lipschitz potentials bounded by 1 (``"bounded"``) or
    vanishing at ``anchor`` (``"anchored"``); None for the zero measure."""
    if mode not in ("bounded", "anchored"):
        raise ValueError(f"unknown mode {mode!r}; expected 'bounded' or 'anchored'")
    w = np.asarray(weights, dtype=float)
    pos = np.flatnonzero(w > 0)
    neg = np.flatnonzero(w < 0)
    if len(pos) + len(neg) == 0:
        return None
    if mode == "bounded":
        C = np.ones((len(pos) + 1, len(neg) + 1))
        C[:-1, :-1] = d[np.ix_(pos, neg)]
        C[-1, -1] = 0.0
    else:
        C = d[np.ix_(np.append(pos, anchor), np.append(neg, anchor))]
    a = np.append(w[pos], math.fsum((-w[neg]).tolist()))
    b = np.append(-w[neg], math.fsum(w[pos].tolist()))
    return SeminormProblem(pos, a, b, C)


def flow_seminorm_value(d: np.ndarray, weights: np.ndarray, mode: str, anchor: int = 0) -> float:
    """Optimum of ``seminorm_problem`` (0 for the zero measure)."""
    prob = seminorm_problem(d, weights, mode, anchor)
    if prob is None:
        return 0.0
    return solve_transportation(prob.a, prob.b, prob.C).cost
