"""Network simplex for balanced transportation problems.

One engine computes every optimum of the package: the coupling metric
directly, and every Lipschitz seminorm through the augmented problem of
``seminorm_problem``, whose optimal potential ``seminorm_potential`` reads
off the duals.  It is the primal network simplex
of Ahuja, Magnanti & Orlin, *Network Flows* (1993), ch. 11, on the bipartite
graph of sources (rows) and sinks (columns), as in the EMD solver of Bonneel
et al., "Displacement Interpolation Using Lagrangian Mass Transport"
(SIGGRAPH Asia 2011).

- The marginals are divided by their largest entry before solving and the
  flows and cost multiplied back afterwards, so every tolerance below acts at
  unit scale whatever the mass scale of the data.
- The basis is kept as a spanning tree rooted at row 0 and threaded as in
  LEMON (Kovács, "Minimum-cost flow algorithms: an experimental evaluation",
  2015): each node has its parent, its successor in a circular preorder of
  the tree (``thread``) and its predecessor, the size of its subtree and the
  subtree's last node in the thread.  Each node also caches the flow and the
  cost of the edge to its parent.  The cycle of an entering cell is found by
  stepping up from whichever endpoint has the smaller subtree, which cannot
  be an ancestor of the other, until the two meet at the join; one scan per
  side finds theta and the leaving edge.  A pivot re-hangs only the subtree
  cut off by the leaving edge.  The stem, the path from the entering cell up
  to the leaving edge, reverses and moves its cached flows and costs one
  node down.  ``_rehang`` re-links the thread along the stem, splices the
  subtree in after the entering cell's other end, and corrects sizes and
  last nodes on the two sides of the cycle, so it costs steps in the stem
  and the cycle, not in the subtree.  The subtree is then the next ``succ``
  nodes of the thread, each after its parent, and one walk along them sets
  each dual as the cached edge cost minus the parent's dual.  A node's dual
  is fixed by its path to the root, so it equals a fresh traversal's bit for
  bit.  Shifting the subtree's duals by one delta instead would round
  differently from a fresh traversal, and the witnesses are read off the
  duals, so the walk stays.  The duals live in one ``array('d')`` that the
  walk writes and pricing reads through ``np.frombuffer``, so no copy is
  synchronised between them.
- The starting basis is the least-cost ("matrix minimum") one: cells are
  taken in increasing cost and each closes its row or its column, so the
  start already ships most mass along cheap cells and the simplex needs far
  fewer pivots than from the northwest corner, which ignores the costs.
  The next cell comes from a heap of each open row's cheapest open cell, so
  the cells of a closed row are never visited.  A closed line appears in no
  later cell, so the start hangs it below the cell's other line and builds
  the tree as it goes; re-rooting it at row 0 reverses one path.
- The entering cell comes from block-search pricing, LEMON's default rule.
  The cost matrix is priced in blocks of whole rows, ``PRICING_BLOCK_CELLS``
  cells each, cyclically from the block after the one that gave the last
  entering cell.  Within a block the reduced costs ``(C - u) - v`` are
  computed and the block's most negative cell (first in row-major order)
  enters if it is below the stop tolerance.  The solve is optimal once a
  full cycle of blocks finds none, the same certificate as pricing the whole
  matrix.  A problem of at most ``PRICING_BLOCK_CELLS`` cells is one block,
  which is Dantzig's rule.  Blocks of 1024 to 8192 cells solve 256 x 256
  and 512 x 512 problems within about 10% of each other's time; the largest
  keeps the most problems (every one up to 90 x 90) on Dantzig's rule.
  Basic cells are not masked: their reduced cost is round-off of the duals,
  about 1e-13 times the largest cost, far above the stop tolerance of
  ``-FLOW_TOL`` times it, so they never enter.
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
  included, is nondegenerate whatever order it was built in.  The simplex's
  own final tree is re-flowed against the unperturbed marginals, so reported
  flows and costs are exact for the original data: each edge's flow is the
  net supply of the subtree below it, one ``math.fsum`` (exact, rounded
  once) of the subtree's balances, gathered backwards along the thread, so
  children before parents; the cost is one ``math.fsum`` of the flows times
  their costs.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from itertools import filterfalse
from typing import NamedTuple, Sequence

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


@dataclass(frozen=True)
class TransportSolution:
    flows: np.ndarray  # (r, s), basic cells only are nonzero
    cost: float
    u: np.ndarray
    v: np.ndarray
    iterations: int


def _least_cost_tree(a: Sequence[float], b: Sequence[float], C: np.ndarray):
    """Starting basis by the matrix-minimum rule, as a spanning tree.

    Cells are taken in increasing cost (ties in row-major order); a cell
    whose row or column is closed is passed over, otherwise it ships what its
    row and column can still take and closes exactly one of them: the
    exhausted one, except that the last open column or row stays open until
    the last cell, which closes both (round-off could leave it short of the
    mass still owed to it).  The next cell is the least of the open rows'
    cheapest cells, kept in a heap: a closed row leaves the heap, and a row
    whose cheapest column closed moves on along its columns in increasing
    cost, so no cell of a closed row is visited again.

    A closed line appears in no later cell, so each cell hangs the line it
    closes below its other line, and the r + s - 1 cells form a spanning tree
    rooted at the column left open.  Nodes are rows 0..r-1 and columns
    r..r+s-1.  Returns ``(order, parent, eflow, ecost)``: the nodes, parent
    first from the root; each node's parent (-1 at the root); and the flow
    and the cost of the cell that joins it to its parent.
    """
    r, s = len(a), len(b)
    rem_a = list(map(float, a))
    rem_b = list(map(float, b))
    col_open = [True] * s
    open_rows, open_cols = r, s
    parent = [-1] * (r + s)
    eflow = [0.0] * (r + s)
    ecost = [0.0] * (r + s)
    closed = []
    Cl = C.tolist()
    by_cost = C.argsort(kind="stable").tolist()
    at = [0] * r  # position of each row's heap cell in its by_cost list
    heap = [(Cl[i][row[0]], i, row[0]) for i, row in enumerate(by_cost)]
    heapify(heap)
    while True:
        c, i, j = heap[0]
        if col_open[j]:
            ra, rb = rem_a[i], rem_b[j]
            f = ra if ra <= rb else rb
            # the exhausted line closes (ra <= rb is rem_a <= rem_b after
            # shipping f); only the line left open needs its remainder
            if open_cols == 1 or (open_rows > 1 and ra <= rb):
                x = i
                parent[i] = r + j
                rem_b[j] = rb - f
                open_rows -= 1
            else:
                x = r + j
                parent[x] = i
                rem_a[i] = ra - f
                col_open[j] = False
                open_cols -= 1
            eflow[x] = f
            ecost[x] = c
            closed.append(x)
            if x == i:
                if open_rows == 0:
                    closed.append(r + j)
                    closed.reverse()
                    return closed, parent, eflow, ecost
                heappop(heap)
                continue
        # row i's cheapest cell lies in a closed column: move on to its next
        # open column (one is left while a row is open)
        row = by_cost[i]
        p = at[i] + 1
        while not col_open[row[p]]:
            p += 1
        at[i] = p
        j = row[p]
        heapreplace(heap, (Cl[i][j], i, j))


def _rehang(path, v_in, join, parent, thread, rev, succ, last) -> None:
    """Re-hang the subtree cut off by a pivot's leaving edge below its
    entering edge, updating the tree's parents and thread.

    ``path`` is the stem: the entering edge's endpoint inside the subtree,
    then its ancestors up to the child end of the leaving edge, the subtree's
    old root.  ``v_in`` is the entering edge's other endpoint and ``join`` the
    deepest common ancestor of the two.  ``thread`` is a circular preorder
    with inverse ``rev``; ``succ`` and ``last`` give each subtree's size and
    last node in the thread.  This is LEMON's ``updateTreeStructure``
    (Kovács 2015), and it costs O(stem + cycle + climb) steps, whatever the
    size of the subtree.
    """
    u_in, u_out = path[0], path[-1]
    v_out = parent[u_out]
    size = succ[u_out]
    old_last = last[u_out]
    before, after = rev[u_out], thread[old_last]
    if u_in == u_out:
        # a one-node stem keeps its subtree, its size and its last node
        new_last = old_last
        parent[u_in] = v_in
    else:
        # The subtree is a run of the thread from u_out to old_last.  Its new
        # preorder is u_in's subtree, then each further stem node z with what
        # is left of its subtree once its stem child c's is gone: the run
        # from z to just before c and the run from just after c's subtree to
        # z's last node.
        ends, starts = [last[u_in]], []
        c = u_in
        for z in path[1:]:
            starts.append(z)
            ends.append(rev[c])
            if last[c] != last[z]:
                starts.append(thread[last[c]])
                ends.append(last[z])
            c = z
        new_last = ends[-1]
        for e, z in zip(ends, starts):
            thread[e] = z
            rev[z] = e
        # each stem node now hangs from the one below it (u_in from v_in),
        # and holds the subtree less what its old stem child held
        up, gone = v_in, 0
        for z in path:
            parent[z] = up
            held = succ[z]
            succ[z] = size - gone
            last[z] = new_last
            gone = held
            up = z
    # cut the run out of the thread and splice it in right after v_in
    thread[before] = after
    rev[after] = before
    after = thread[v_in]
    thread[v_in] = u_in
    rev[u_in] = v_in
    thread[new_last] = after
    rev[after] = new_last
    # below the join, v_in's ancestors gain the subtree and v_out's lose it
    z = v_in
    while z != join:
        succ[z] += size
        if last[z] == v_in:
            last[z] = new_last
        z = parent[z]
    z = v_out
    while z != join:
        succ[z] -= size
        if last[z] == old_last:
            last[z] = before
        z = parent[z]
    # from the join up, a subtree that ended at v_in, or at the cut run when
    # v_in was just before it, now ends at the run's new last node; one that
    # ended at the cut run otherwise ends just before it
    end = last[join]
    if end == v_in or (end == old_last and before == v_in):
        new_end = new_last
    elif end == old_last:
        new_end = before
    else:
        return
    if new_end == end:
        return
    z = join
    while z >= 0 and last[z] == end:
        last[z] = new_end
        z = parent[z]


def solve_transportation(a, b, C) -> TransportSolution:
    """Balanced problem: min sum f_ij C_ij, row sums = a, column sums = b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    C = np.asarray(C, dtype=float)
    r, s = len(a), len(b)
    if C.shape != (r, s):
        raise ValueError("cost matrix shape mismatch")
    al, bl = a.tolist(), b.tolist()
    # the largest |cost| is NaN or infinite exactly when some cost is
    cmax = float(np.abs(C).max(initial=0.0))
    if not (math.isfinite(cmax) and all(map(math.isfinite, al)) and all(map(math.isfinite, bl))):
        raise ValueError("marginals and costs must be finite")
    if min(al) < 0 or min(bl) < 0:
        raise ValueError("marginals must be nonnegative")
    total = math.fsum(al)
    if abs(total - math.fsum(bl)) > BALANCE_TOL * total:
        raise ValueError("marginals are not balanced")
    max_iter = 50 * r * s + 1000

    scale = max(max(al), max(bl)) or 1.0
    a2 = [x / scale + PERTURBATION * (i + 1.0) for i, x in enumerate(al)]
    b2 = [x / scale for x in bl]
    b2[-1] += math.fsum(a2) - math.fsum(b2)

    # The start tree, rooted at row 0: the edges on the spine, the path from
    # row 0 up to the start's root, reverse direction, each now hanging from
    # the node it hung below.  eflow[x] and ecost[x] are the flow and the cost of the
    # edge from node x to its parent.
    order, parent, eflow, ecost = _least_cost_tree(a2, b2, C)
    n_nodes = r + s
    spine = [0]
    while parent[spine[-1]] >= 0 and len(spine) <= n_nodes:
        spine.append(parent[spine[-1]])
    if len(order) != n_nodes or len(set(order)) != n_nodes or len(spine) > n_nodes:
        raise RuntimeError("internal error: transportation basis is not a spanning tree")
    for t in range(len(spine) - 1, 0, -1):
        z, child = spine[t], spine[t - 1]
        parent[z] = child
        eflow[z] = eflow[child]
        ecost[z] = ecost[child]
    parent[0] = -1
    # A dual is fixed by its path to the root, so any parent-first order
    # gives the same bits: the spine first, then the order the tree grew in.
    # Each node enters the thread right after its parent, as a leaf, so the
    # thread stays a preorder.  A node placed before its parent would be left
    # out of the root's subtree size.
    grown = spine[1:]
    grown += filterfalse(set(spine).__contains__, order)
    pot = [0.0] * n_nodes  # duals: u for rows, v for columns
    thread = [0] * n_nodes  # preorder successor, circular through the root
    rev = [0] * n_nodes  # preorder predecessor
    for z in grown:
        up = parent[z]
        pot[z] = ecost[z] - pot[up]
        after = thread[up]
        thread[z] = after
        rev[after] = z
        thread[up] = z
        rev[z] = up
    succ = [1] * n_nodes  # subtree sizes
    last = list(range(n_nodes))  # each subtree's last node in the thread
    for z in reversed(grown):
        up = parent[z]
        succ[up] += succ[z]
        last[up] = last[z]
    if succ[0] != n_nodes:
        raise RuntimeError("internal error: transportation basis is not a spanning tree")
    # pricing reads the duals the pivots write, through one shared buffer
    pot = array("d", pot)
    duals = np.frombuffer(pot)
    u, v = duals[:r, None], duals[None, r:]

    stop = -FLOW_TOL * cmax
    block_rows = max(1, PRICING_BLOCK_CELLS // s)
    rc_block = np.empty((min(block_rows, r), s))
    blocks = [
        (lo, C[lo : lo + block_rows], u[lo : lo + block_rows], rc_block[: min(block_rows, r - lo)])
        for lo in range(0, r, block_rows)
    ]
    n_blocks = len(blocks)
    blk = 0
    it = 0
    for it in range(1, max_iter + 1):
        # block search: price blocks of rows cyclically from the one after
        # the last hit; a full cycle with no cell below stop is optimal
        for _ in range(n_blocks):
            lo, C_blk, u_blk, rc = blocks[blk]
            blk = (blk + 1) % n_blocks
            np.subtract(C_blk, u_blk, out=rc)
            rc -= v
            k = rc.argmin()
            if rc.item(k) < stop:
                break
        else:
            break
        ei, ej = divmod(int(k), s)
        ei += lo
        # The cycle is the entering cell plus the tree path from column ej
        # up to the join, the deepest common ancestor, and down to row ei.
        # An ancestor's subtree is larger than its descendant's, so the
        # endpoint with the smaller subtree is not the join and steps up.
        # Each side lists the child ends of its edges from the endpoint
        # upwards; even positions lose flow, odd positions gain it.
        p, q = ei, r + ej
        side_q, side_p = [], []
        x, y = q, p
        for _ in range(n_nodes):
            if x == y:
                break
            if succ[x] < succ[y]:
                side_q.append(x)
                x = parent[x]
            else:
                side_p.append(y)
                y = parent[y]
        else:
            raise RuntimeError("internal error: transportation basis is not a spanning tree")
        # theta is the least flow on a minus edge; the leaving edge is the
        # first minus edge carrying it in path order from column ej to row
        # ei: the column side's first, else the row side's last
        theta_q = theta_p = math.inf
        leave_q = leave_p = 0
        for t in range(0, len(side_q), 2):
            f = eflow[side_q[t]]
            if f < theta_q:
                theta_q, leave_q = f, t
        for t in range(0, len(side_p), 2):
            f = eflow[side_p[t]]
            if f < theta_p:
                theta_p, leave_p = f, t
            elif f == theta_p:
                leave_p = t
        if theta_q <= theta_p:
            theta, path, inner, outer = theta_q, side_q[: leave_q + 1], q, p
        else:
            theta, path, inner, outer = theta_p, side_p[: leave_p + 1], p, q
        for side in (side_q, side_p):
            f = -theta
            for z in side:
                eflow[z] += f
                f = -f

        # the edges of the stem, the path from inner up to the leaving edge,
        # reverse direction, each now hanging from the node it hung below;
        # inner takes the entering edge, and the leaving edge drops out
        f, c = theta, C_blk.item(k)
        for z in path:
            eflow[z], f = f, eflow[z]
            ecost[z], c = c, ecost[z]
        _rehang(path, outer, x, parent, thread, rev, succ, last)  # x is the join
        # the re-hung subtree is the thread's next succ[inner] nodes, each
        # after its parent
        z = inner
        for _ in range(succ[inner]):
            pot[z] = ecost[z] - pot[parent[z]]
            z = thread[z]
    else:
        raise RuntimeError("internal error: transportation simplex iteration limit")

    # Tree flows are linear in the marginals: re-flowing the final tree
    # against the original data gives the unit-scale flows times the scale,
    # without rounding twice.  The flow on a tree edge is the net supply
    # (+ supply, - demand) of the subtree it cuts off: one math.fsum, exact
    # and rounded once, of the balances of the subtree's nodes, gathered
    # backwards along the thread, so each node's after its children's.
    below = [[x] for x in al]
    below += [[-x] for x in bl]
    z = 0
    for _ in range(n_nodes - 1):
        z = rev[z]
        below[parent[z]] += below[z]
    # rows ship to their parent columns, columns receive from their parent
    # rows; "+ 0.0" and "0.0 -" write an exact zero as +0.0
    fsum = math.fsum
    flows = [fsum(below[x]) + 0.0 for x in range(1, r)]
    flows += [0.0 - fsum(below[x]) for x in range(r, n_nodes)]
    neg = min(flows)
    if neg < 0:
        if neg < -FLOW_TOL * scale:
            raise RuntimeError(f"internal error: negative basic flow {neg}")
        flows = [0.0 if f < 0 else f for f in flows]
    cells = [x * s + parent[x] - r for x in range(1, r)]
    cells += [parent[x] * s + x - r for x in range(r, n_nodes)]
    out = np.zeros(r * s)
    out[cells] = flows
    cost = math.fsum(map(operator.mul, flows, ecost[1:]))
    out.shape = (r, s)
    return TransportSolution(out, cost, duals[:r].copy(), duals[r:].copy(), it)


# ---------------------------------------------------------------------------
# Seminorms as transportation problems.  The sup of a measure's integral over
# the 1-Lipschitz potentials that vanish at an absorbing node is a balanced
# transportation optimum on the support augmented by that node, which absorbs
# the surplus of either sign.  The anchored seminorm's absorbing node is the
# anchor.  The bounded seminorm's is a slack point at unit distance from every
# point: a 1-Lipschitz potential that vanishes there is one bounded by 1.
# ---------------------------------------------------------------------------


class SeminormProblem(NamedTuple):
    """Rows: positive atoms, then the absorbing node; columns: negative atoms,
    then the absorbing node."""

    pos: np.ndarray
    a: np.ndarray
    b: np.ndarray
    C: np.ndarray


def absorbing_distances(d: np.ndarray, mode: str, anchor: int):
    """The absorbing node's distances from and to each point: the anchor's
    row and column (``"anchored"``), or all 1 for the slack (``"bounded"``)."""
    if mode == "anchored":
        return d[anchor], d[:, anchor]
    if mode == "bounded":
        ones = np.ones(len(d))
        return ones, ones
    raise ValueError(f"unknown mode {mode!r}; expected 'bounded' or 'anchored'")


def seminorm_problem(d: np.ndarray, weights: np.ndarray, end_row: np.ndarray, end_col: np.ndarray):
    """The transportation problem whose optimum is the sup of the weights'
    integral over 1-Lipschitz potentials that vanish at an absorbing node at
    distances ``end_row`` from and ``end_col`` to each point, and 0 from
    itself; None for the zero measure."""
    w = np.asarray(weights, dtype=float)
    pos = (w > 0).nonzero()[0]
    neg = (w < 0).nonzero()[0]
    if not (len(pos) or len(neg)):
        return None
    a = np.append(w[pos], math.fsum((-w[neg]).tolist()))
    b = np.append(-w[neg], math.fsum(w[pos].tolist()))
    C = np.zeros((len(pos) + 1, len(neg) + 1))
    C[:-1, :-1] = d.take(pos, 0).take(neg, 1)
    C[:-1, -1] = end_col.take(pos)
    C[-1, :-1] = end_row.take(neg)
    return SeminormProblem(pos, a, b, C)


def seminorm_potential(d: np.ndarray, weights: np.ndarray, end_row: np.ndarray, end_col: np.ndarray):
    """The optimum of ``seminorm_problem``, one ``math.fsum`` over the support
    of the weights' integral of an optimal potential, and that potential on
    the whole space (zero for the zero measure).

    The potential is one c-transform of the optimal duals.  Row duals less
    the absorbing row's, capped by the absorbing node's distance, bound it on
    the positive atoms; the largest 1-Lipschitz function below those bounds
    and the absorbing node's zero is no larger than the dual bound on any
    negative atom, so it attains the optimum.  The cap keeps it at most 0 at
    the anchor (read off the same row of ``d``) and at most 1 for the slack.
    """
    w = np.asarray(weights, dtype=float)
    prob = seminorm_problem(d, w, end_row, end_col)
    if prob is None:
        return 0.0, np.zeros(len(w))
    u = solve_transportation(prob.a, prob.b, prob.C).u
    g = np.minimum(u[:-1] - u[-1], end_row.take(prob.pos))
    f = (g - d.take(prob.pos, 1)).max(axis=1, initial=-math.inf)
    np.maximum(f, -end_col, out=f)
    supp = w.nonzero()[0]
    return math.fsum((f[supp] * w[supp]).tolist()), f


def power_costs(d: np.ndarray, q: float) -> np.ndarray:
    """``d ** q`` for distances ``d``; a ValueError naming ``q`` and the
    largest distance when that power overflows."""
    largest = float(d.max(initial=0.0))
    try:
        largest**q
    except OverflowError:
        raise ValueError(f"q = {q:g} overflows d**q at the largest distance {largest:g}") from None
    return d**q


def moment_weights(anchor_distances: np.ndarray, weights: np.ndarray, q: float) -> np.ndarray:
    """(1 + d(., x0)^q) . weights; a ValueError naming ``q`` and the largest
    |mass| when a moment weight, or their total |mass|, overflows."""
    with np.errstate(over="ignore"):
        moments = weights * (1.0 + power_costs(anchor_distances, q))
    try:
        total = math.fsum(np.abs(moments).tolist())
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        largest = float(np.abs(weights).max())
        raise ValueError(f"q = {q:g} overflows the moment weights at the largest |mass| {largest:g}")
    return moments
