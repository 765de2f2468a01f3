"""The transportation simplex's per-pivot tree update, on random trees.

``_rehang`` re-hangs the subtree cut off by a leaving edge below an entering
edge and re-links the tree's thread.  Each example draws a spanning tree of
K_{r,s}, threads it in a random preorder, then takes a cell outside the tree
and an edge on that cell's cycle as the leaving edge, and runs the update.
Afterwards the parents must be the re-hung tree's, ``thread`` must be a
preorder of it (every node once, parents first, each subtree contiguous) with
``rev`` its inverse, and ``succ`` and ``last`` must equal a fresh traversal's.
A corrupt tree must make the solver raise, not loop.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorovich_lab.transport import _transportation
from kantorovich_lab.transport._transportation import _rehang, solve_transportation


def _spanning_tree(rnd, r, s):
    """Adjacency lists of a random spanning tree of K_{r,s}: Kruskal's rule
    on the cells in random order.  Rows are nodes 0..r-1, columns r..r+s-1."""
    cells = [(i, r + j) for i in range(r) for j in range(s)]
    rnd.shuffle(cells)
    comp = list(range(r + s))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    adj = [[] for _ in range(r + s)]
    for i, j in cells:
        a, b = find(i), find(j)
        if a != b:
            comp[a] = b
            adj[i].append(j)
            adj[j].append(i)
    return adj


def _threaded(rnd, adj):
    """Parents of the tree rooted at node 0 and its arrays for one preorder,
    children visited in random order."""
    n = len(adj)
    parent = [-1] * n
    order, stack = [], [0]
    while stack:
        x = stack.pop()
        order.append(x)
        kids = [y for y in adj[x] if y != parent[x]]
        rnd.shuffle(kids)
        for y in kids:
            parent[y] = x
        stack.extend(kids)
    thread, rev = [0] * n, [0] * n
    for x, y in zip(order, order[1:] + order[:1]):
        thread[x], rev[y] = y, x
    succ, last = _fresh_subtrees(parent, order)
    return parent, thread, rev, succ, last


def _fresh_subtrees(parent, order):
    """Subtree sizes and last nodes, for ``order`` a preorder of ``parent``."""
    n = len(parent)
    succ = [1] * n
    for x in reversed(order[1:]):
        succ[parent[x]] += succ[x]
    pos = {x: k for k, x in enumerate(order)}
    return succ, [order[pos[x] + succ[x] - 1] for x in range(n)]


def _depths(parent):
    depth = [0] * len(parent)
    for x in range(len(parent)):
        y = x
        while parent[y] >= 0:
            depth[x] += 1
            y = parent[y]
    return depth


def _pivot(rnd, r, s, parent):
    """A random cell outside the tree and an edge on its cycle: the stem from
    the cell's endpoint on the leaving edge's side up to the leaving edge's
    child end, the cell's other endpoint, and the join."""
    depth = _depths(parent)
    while True:
        p, q = rnd.randrange(r), r + rnd.randrange(s)
        if parent[p] != q and parent[q] != p:
            break
    side_p, side_q = [], []
    x, y = p, q
    while x != y:
        if depth[x] >= depth[y]:
            side_p.append(x)
            x = parent[x]
        else:
            side_q.append(y)
            y = parent[y]
    t = rnd.randrange(len(side_p) + len(side_q))
    if t < len(side_p):
        return side_p[: t + 1], q, x
    return side_q[: t - len(side_p) + 1], p, x


def _check(parent, thread, rev, succ, last):
    n = len(parent)
    order = [0]
    for _ in range(n - 1):
        order.append(thread[order[-1]])
    assert thread[order[-1]] == 0
    assert sorted(order) == list(range(n))  # every node once
    assert all(rev[thread[x]] == x for x in range(n))
    pos = {x: k for k, x in enumerate(order)}
    assert all(pos[parent[x]] < pos[x] for x in order[1:])  # parents first
    fresh_succ, fresh_last = _fresh_subtrees(parent, order)
    # each subtree contiguous: its nodes fill the run of its size from it
    for x in range(n):
        for y in order[pos[x] + 1 : pos[x] + fresh_succ[x]]:
            while y != x and y >= 0:
                y = parent[y]
            assert y == x
    assert succ == fresh_succ
    assert last == fresh_last


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_rehang_keeps_the_thread_a_preorder(r, s, seed):
    rnd = random.Random(seed)
    parent, thread, rev, succ, last = _threaded(rnd, _spanning_tree(rnd, r, s))
    for _ in range(3):
        path, v_in, join = _pivot(rnd, r, s, parent)
        expected = parent.copy()
        for z, up in zip(path, [v_in] + path[:-1]):
            expected[z] = up
        _rehang(path, v_in, join, parent, thread, rev, succ, last)
        assert parent == expected
        _check(parent, thread, rev, succ, last)


def test_cycle_walk_on_a_corrupt_tree_raises(monkeypatch):
    # every node its own parent: the two cycle ends never meet, and the walk
    # must give up after r + s steps instead of spinning
    def corrupt(path, v_in, join, parent, *rest):
        parent[:] = range(len(parent))

    monkeypatch.setattr(_transportation, "_rehang", corrupt)
    rng = np.random.default_rng(1)
    x, y = rng.uniform(0, 1, size=(12, 2)), rng.uniform(0, 1, size=(14, 2))
    C = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    with pytest.raises(RuntimeError, match="not a spanning tree"):
        solve_transportation(rng.dirichlet(np.ones(12)), rng.dirichlet(np.ones(14)), C)
