"""The transportation simplex's outputs, pinned byte for byte.

Each seeded problem below is solved and its ``(flows, u, v, cost,
iterations)`` hashed.  The digests were recorded from the solver before its
pivot loop, start tree, re-flow and tree structure were reworked for speed;
a change that alters any pivot, flow, dual or cost bit fails here.  The
problems cover the shapes the package builds: Euclidean couplings below and
above one pricing block (8,192 cells), a squared-Euclidean 256 x 256 coupling
of eight blocks, an integer-line coupling with many tied costs above one
block, bounded and anchored seminorm problems on an integer line and on
planar points at mass scales 1e-12 to 1e6, and single-row and single-column
problems.  ``kr_norm`` and ``k_norm`` are pinned the same way, value and
witness, since their witnesses are read off the duals.
"""

import functools
import hashlib

import numpy as np
import pytest

from kantorovich_lab import transport
from kantorovich_lab.measures import PseudometricSpace
from kantorovich_lab.transport import _transportation, k_norm, kr_norm
from kantorovich_lab.transport._transportation import (
    PRICING_BLOCK_CELLS,
    absorbing_distances,
    seminorm_problem,
    solve_transportation,
)


def _euclidean(seed, r, s):
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0, 1, size=(r, 2)), rng.uniform(0, 1, size=(s, 2))
    C = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    return rng.dirichlet(np.ones(r)), rng.dirichlet(np.ones(s)), C


def _squared_euclidean(seed, n):
    a, b, C = _euclidean(seed, n, n)
    return a, b, C * C


def _tied_coupling(seed, n):
    """The integer-line coupling of the pricing tests' tie-heavy HiGHS check."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 12, size=n).astype(float)
    rng.integers(n)  # the space's anchor
    a = rng.integers(1, 4, size=n).astype(float)
    return a, rng.permutation(a), np.abs(x[:, None] - x[None, :])


def _integer_line(seed, mode):
    rng = np.random.default_rng(seed)
    n = 80
    x = rng.integers(0, 12, size=n).astype(float)
    w = rng.standard_normal(n) * (rng.random(n) > 0.2)
    d = np.abs(x[:, None] - x[None, :])
    prob = seminorm_problem(d, w, *absorbing_distances(d, mode, int(rng.integers(n))))
    return prob.a, prob.b, prob.C


def _planar(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 2))
    return rng, np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))


def _augmented(seed, mode, scale):
    rng, d = _planar(seed, 24)
    w = rng.standard_normal(24) * (rng.random(24) > 0.25) * scale
    prob = seminorm_problem(d, w, *absorbing_distances(d, mode, int(rng.integers(24))))
    return prob.a, prob.b, prob.C


def _degenerate():
    """Integer data whose optimal tree carries exact zero flows, written +0.0."""
    a, b = np.array([2.0, 3.0, 2.0, 2.0]), np.array([3.0, 3.0, 3.0])
    C = np.array([[1.0, 2.0, 2.0], [1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
    return a, b, C


def _one_row(seed, n):
    rng = np.random.default_rng(seed)
    return np.array([1.0]), rng.dirichlet(np.ones(n)), rng.uniform(0, 3, size=(1, n))


def _one_column(seed, n):
    a, b, C = _one_row(seed, n)
    return b, a, C.T.copy()


PROBLEMS = {
    "euclidean 12x14": lambda: _euclidean(1, 12, 14),
    "euclidean 64x64": lambda: _euclidean(2, 64, 64),
    "euclidean 100x100": lambda: _euclidean(3, 100, 100),
    "euclidean q=2 256x256": lambda: _squared_euclidean(8, 256),
    "tied coupling 120x120": lambda: _tied_coupling(7, 120),
    "integer line, bounded": lambda: _integer_line(4, "bounded"),
    "integer line, anchored": lambda: _integer_line(5, "anchored"),
    "1 x 9": lambda: _one_row(6, 9),
    "9 x 1": lambda: _one_column(7, 9),
    "degenerate 4x3": _degenerate,
}
MASS_SCALES = (1e-12, 1e-6, 1.0, 1e6)
PROBLEMS.update(
    (f"augmented {mode}, mass {scale:g}", functools.partial(_augmented, 20 + k, mode, scale))
    for k, scale in enumerate(MASS_SCALES)
    for mode in ("bounded", "anchored")
)

DIGESTS = {
    "euclidean 12x14": (15, "311b140e927ce3150b5a2f440779f15fca8653c4fa99777109b909bf29d13453"),
    "euclidean 64x64": (63, "490c11ed4e6449c6548c24a708e42485e75577050339719facc865f8438e37b7"),
    "euclidean 100x100": (167, "c451f2e9434d653e1ebfaec6531874b0d78c2c4a72f7c348da66b3ba4420c526"),
    "euclidean q=2 256x256": (1754, "1162ba8eee411a8e2f96a806183db726a0d5f6499c5db8b79f5932583fd9237f"),
    "tied coupling 120x120": (19, "99a24d92bfe49d56050dcb30bce0cd2e74aa3f14ce2a11b7c91cb40391f745c6"),
    "integer line, bounded": (8, "b587e6ec29defb99f9819d8a4c614fe8e68aabd37a8096f833a47fafcdfb114d"),
    "integer line, anchored": (16, "e39991b72c3008b3588787eb5b4f7abdf63a8511eaed9dae7e742433909bd49a"),
    "1 x 9": (1, "f30248002ab89095b15d5be74b9dbe007a5dc67ce774b0fee39ee2cf41e0035f"),
    "9 x 1": (1, "c10415cf147c024e0730c03d1e86494e3068ec1c3f9a55a23adc0ad514a821e7"),
    "degenerate 4x3": (1, "8c88f211b28bf4047a8496da1f5d0146e9764e5466cc68affde919710c8d49bd"),
    "augmented bounded, mass 1e-12": (5, "63e360797b09b127c251cbd7c54b34cc5572d3f34a28a365cd16c084c8ce3088"),
    "augmented anchored, mass 1e-12": (7, "b2a5f37a093f4a7af646aa687caba1c4f4cb3f93055f69ca5537f958cf361c76"),
    "augmented bounded, mass 1e-06": (14, "2ee7528e4c8226a299db075c9d44b8114236c207abaf6acf18a0c85aa1435855"),
    "augmented anchored, mass 1e-06": (15, "ef9b5faaecb12c4375362e10b7265640ead6201b02f5b2bbf8c6104edcf72da4"),
    "augmented bounded, mass 1": (2, "ebe229d27efb617e0cdbdb9df933e200ba73d58b8a4e491d4614eb73fde6bc60"),
    "augmented anchored, mass 1": (1, "71ec2ab45aff0e271436f18001c176c2d6e41a1d0778f26c001ed0b534ae9cf4"),
    "augmented bounded, mass 1e+06": (7, "5362c4984f0d82ee02139ce0a6e80f0e0fca0c0e59146f2c4d44de47a46e2807"),
    "augmented anchored, mass 1e+06": (6, "ed2e77f523f6416658b318985e3ce102ae4cc4f50de200e79ffbd232c180f6fa"),
}


def solution_digest(sol) -> str:
    h = hashlib.sha256()
    for part in (sol.flows, sol.u, sol.v, np.float64(sol.cost), np.int64(sol.iterations)):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def test_one_problem_spans_several_pricing_blocks():
    _, _, C = PROBLEMS["euclidean 100x100"]()
    assert C.size > PRICING_BLOCK_CELLS


def test_large_pins_span_pricing_blocks():
    _, _, C = PROBLEMS["euclidean q=2 256x256"]()
    assert C.size == 8 * PRICING_BLOCK_CELLS
    _, _, C = PROBLEMS["tied coupling 120x120"]()
    assert C.size > PRICING_BLOCK_CELLS


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_solution_bytes_are_pinned(name):
    sol = solve_transportation(*PROBLEMS[name]())
    assert (sol.iterations, solution_digest(sol)) == DIGESTS[name]


def _measure(seed, scale, sign=None):
    """Signed weights on 20 planar points; ``sign`` keeps one sign only."""
    rng, d = _planar(seed, 20)
    space = PseudometricSpace(
        points=tuple(f"p{i}" for i in range(20)), metrics={"d": d}, anchor=int(rng.integers(20))
    )
    w = rng.standard_normal(20) * (rng.random(20) > 0.3) * scale
    if sign is not None:
        w = sign * np.abs(w)
    return space.measure(w)


MEASURES = {
    "mass 1e-12": lambda: _measure(30, 1e-12),
    "mass 1": lambda: _measure(31, 1.0),
    "mass 1e6": lambda: _measure(32, 1e6),
    "positive only": lambda: _measure(33, 1.0, sign=1.0),
    "negative only": lambda: _measure(34, 1.0, sign=-1.0),
}
NORMS = {"kr": kr_norm, "k": k_norm}
NORM_DIGESTS = {
    ("k", "mass 1"): "0a412011fbf9a562da2f7b47a0295691c6a894d0742f020f2181a82879fc2cd9",
    ("k", "mass 1e-12"): "6a46dc12289e289856922f7a9108e3feb354907b82f0ad005235b83d2cfee99b",
    ("k", "mass 1e6"): "c31095d99a90b92e124c66d50089d86f174b7f8061f6d8958dc4aeeec85fbfb2",
    ("k", "negative only"): "e4ecae9942a655868ef1d422910a6647809fa8ce4fbaa6fdf1e01fececc2c26f",
    ("k", "positive only"): "d74f9bbfb974e7890167de9029d7838e2602adaedddffc7d6e36be38e7a61063",
    ("kr", "mass 1"): "dbf7d25a3cc1042db0aa2c525a1ae743f62ae27d971644e0bb1cea27f7ffa0cd",
    ("kr", "mass 1e-12"): "78ed25169f92e8484f7996b415cb94569dfd3c99e29a25d4136e998c83febd19",
    ("kr", "mass 1e6"): "834dbbc85cf38a1d2f4392c19ba762fb00977c9df59de9d43213392118094d65",
    ("kr", "negative only"): "680ff77a90fdaf38b057f4e6df4bb52c2bc09b93732f9cd8139b6cce10e803b8",
    ("kr", "positive only"): "b9b10c606aa82a36050744f2d4c89fbb3e12ffc052dabb763feda1f4e73f3521",
}


def norm_digest(value, witness) -> str:
    h = hashlib.sha256()
    for part in (np.float64(value), witness.values, np.float64(witness.achieved)):
        h.update(np.ascontiguousarray(part).tobytes())
    h.update(witness.mode.encode())
    return h.hexdigest()


@pytest.mark.parametrize("measure", sorted(MEASURES))
@pytest.mark.parametrize("norm", sorted(NORMS))
def test_seminorm_bytes_are_pinned(norm, measure):
    value, witness = NORMS[norm](MEASURES[measure](), "d")
    assert norm_digest(value, witness) == NORM_DIGESTS[(norm, measure)]


@pytest.mark.parametrize("norm", sorted(NORMS))
def test_each_seminorm_call_solves_once(monkeypatch, norm):
    """Witnesses come from one solve, through the module-level engine that
    profilers and the benchmark's tracer wrap."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return solve_transportation(*args, **kwargs)

    monkeypatch.setattr(transport, "solve_transportation", spy)
    monkeypatch.setattr(_transportation, "solve_transportation", spy)
    NORMS[norm](MEASURES["mass 1"](), "d")
    assert len(calls) == 1
