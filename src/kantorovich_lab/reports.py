"""Report containers and reductions shared by the Monte-Carlo experiment modules.

Every estimate carries a half-width of three standard errors; a one-sided
check passes when the estimate does not exceed its bound by more than the
half-width.

Reports serialize deterministically, so identical seeds give byte-identical
files.  ``dump_json`` writes the bytes of
``json.dumps(_plain(doc), indent=2, sort_keys=True, allow_nan=False) + "\\n"``:
keys sorted, two-space indent, ASCII-only strings, floats as their shortest
round-trip ``repr``.  ``_plain`` has one rule for every value, at any depth:
numpy scalars and arrays become their ``tolist()``, mappings get ``str`` keys,
and a non-finite float becomes the string ``"inf"``, ``"-inf"`` or ``"nan"``,
spelled as in curve and measure files.  A report is therefore strict JSON
(RFC 8259), with no ``Infinity`` or ``NaN`` token.

``dump_json`` gets these bytes in one walk over the document instead of
converting it with ``_plain`` first and then running the stdlib's pure-Python
indenting encoder.  Floats and strings are recognised by their exact type
before the slower checks; a list of finite floats (witnesses) is joined in one
``str.join``; and the file is written with one ``write``.  A finite float64
ndarray of one or two dimensions, the usual bulk of a report (an n x n
coupling with r + s - 1 nonzero cells), is written straight from numpy:
every ``+0.0`` cell shares one ``"0.0"`` token, a ``-0.0`` cell is
``"-0.0"``, and only the nonzero cells go through ``float.__repr__``.  The
stdlib encoder stays the reference the tests compare these bytes with.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import astuple, dataclass, field
from json.encoder import encode_basestring_ascii as _string
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


def half_width(std: float, n: int) -> float:
    """Three standard errors of the mean."""
    return 3.0 * std / math.sqrt(n)


#: Rows drawn or reduced at a time by the Monte-Carlo samplers and
#: reductions, so that their work arrays are block-sized, not full-length.
BLOCK = 1 << 15


def row_blocks(n: int) -> list[slice]:
    """Slices of at most ``BLOCK`` rows covering ``range(n)`` in order.

    No slice holds a single row unless n == 1: numpy multiplies one row by a
    matrix through BLAS's gemv, whose bits can differ from gemm's, so a
    one-row tail is cut as two rows, one taken from the block before it.
    """
    starts = list(range(0, n, BLOCK))
    if n > 1 and n - starts[-1] == 1:
        starts[-1] -= 1
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def mean_var(v: np.ndarray, out: np.ndarray | None = None) -> tuple[float, float]:
    """Mean and population variance of a 1-D array, bit for bit ``v.mean()``
    and ``v.var()``: numpy's ``_mean`` and ``_var`` (the deviations from the
    mean, squared in place, summed and divided by n), with the mean's sum
    taken once instead of twice.  With ``out=v`` the deviations are written
    over ``v``, a temporary the caller owns: the same bits without a second
    array.  A standard deviation is the ``math.sqrt`` of the variance, as
    ``v.std()`` is."""
    n = len(v)
    m = v.sum() / n
    d = np.subtract(v, m, out=out)
    d *= d
    return float(m), float(d.sum() / n)


def row_norms(x: np.ndarray) -> np.ndarray:
    """Row L2 norms with the bits of ``np.sqrt((x * x).sum(axis=1))``, one
    block of rows at a time.

    Below 8 terms numpy's row sum adds the squares left to right, so one
    accumulator over the columns gives the same bits without the (rows, dim)
    temporary; from 8 terms on its pairwise sum unrolls 8 ways and adds in
    another order, so the row sum itself is kept there.
    """
    n, dim = x.shape
    out = np.empty(n)
    for rows in row_blocks(n):
        xb = x[rows]
        acc = out[rows]
        if dim >= 8:
            (xb * xb).sum(axis=1, out=acc)
        else:
            np.multiply(xb[:, 0], xb[:, 0], out=acc)
            for j in range(1, dim):
                acc += xb[:, j] * xb[:, j]
        np.sqrt(acc, out=acc)
    return out


def column_means(xs: np.ndarray) -> np.ndarray:
    """Per-column means with the bits of ``xs.mean(axis=0)``.

    On a C-contiguous array with two or more columns numpy reduces axis 0
    row by row, so each column is summed strictly left to right: that is the
    last entry of ``np.cumsum`` of the column (``_column_sums``).  A single
    column is one contiguous vector, which numpy sums pairwise, as
    ``mean_var`` does.  Other layouts can reduce in another order and keep
    numpy's own reduction.
    """
    n, dim = xs.shape
    if dim == 1:
        return np.array([xs[:, 0].sum() / n])
    if not xs.flags.c_contiguous:
        return xs.mean(axis=0)
    return _column_sums(xs) / n


def column_mean_std(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column means and standard deviations with the bits of
    ``xs.mean(axis=0)`` and ``xs.std(axis=0)``: ``column_means``, then the
    left sums of the squared deviations from them, in the same layouts."""
    n, dim = xs.shape
    if dim == 1:
        m, var = mean_var(xs[:, 0])
        return np.array([m]), np.array([math.sqrt(var)])
    means = column_means(xs)
    if not xs.flags.c_contiguous:
        return means, xs.std(axis=0)
    return means, np.sqrt(_column_sums(xs, means) / n)


def _column_sums(xs: np.ndarray, centers: np.ndarray | None = None) -> np.ndarray:
    """The last entry of ``np.cumsum`` of each column of a C-contiguous array
    of two or more columns, or with ``centers`` (one per column) that of the
    squared deviations from them.

    Streaming one column at a time avoids numpy's inner loop of length dim
    per row.  Two neighbouring columns are summed in one pass, viewed as one
    complex column: complex addition and subtraction take one IEEE operation
    per part, so each part keeps the bits of its own real sum.  An odd last
    column is summed alone.
    """
    n, dim = xs.shape
    sums = np.empty(dim)
    work = np.empty(min(n, BLOCK) + 1, dtype=complex)
    for j in range(0, dim - 1, 2):
        pair = xs[:, j : j + 2].view(complex)[:, 0]
        total = _left_sum(pair, None if centers is None else complex(centers[j], centers[j + 1]), work)
        sums[j], sums[j + 1] = total.real, total.imag
    if dim % 2:
        sums[-1] = _left_sum(xs[:, -1], None if centers is None else centers[-1], work.view(float))
    return sums


def _left_sum(col: np.ndarray, center, work: np.ndarray):
    """``np.cumsum(col)[-1]``, or with ``center`` that of the squares of
    ``d = col - center``, one block at a time in ``work`` (``BLOCK + 1``
    entries or more, of ``col``'s dtype, float or complex).

    Each block is summed behind the running total, as ``np.cumsum`` of
    ``[total, block]``, so the terms are added in the order of one cumulative
    sum.  The total starts at -0.0, which adds exactly to any first term
    (a column of -0.0 alone sums to -0.0, as in ``np.cumsum``; numpy's
    ``mean`` starts at 0.0 and gives 0.0).  A complex ``d`` is squared part
    by part, through its float view.
    """
    total = complex(-0.0, -0.0) if work.dtype == complex else -0.0
    for rows in row_blocks(len(col)):
        w = work[: rows.stop - rows.start + 1]
        w[0] = total
        d = w[1:]
        if center is None:
            d[...] = col[rows]
        else:
            np.subtract(col[rows], center, out=d)
            parts = d.view(float)
            parts *= parts
        total = np.cumsum(w, out=w)[-1]
    return total


def sorted_quantiles(ordered: np.ndarray, q):
    """``np.quantile(ordered, q)`` of a sorted 1-D float sample, read off it.

    numpy's default ``"linear"`` rule (Hyndman & Fan 1996, definition 7)
    partitions its input even when that is already sorted; here the order
    statistics are taken by index, and numpy's arithmetic is repeated bit
    for bit: the virtual index ``(n - 1) q`` and its floor, the last entry
    for an index at or past n - 1, and ``_lerp``'s two branches,
    ``a + (b - a) t`` or, for t >= 0.5, ``b - (b - a) (1 - t)``.  A sample
    that ends in NaN gives NaN throughout, as numpy does.  A partition may
    leave equal entries in another order, so a zero may carry the other sign
    than numpy's.  ``q`` is a float or a float64 array, each in [0, 1]; any
    other level, NaN among them, is refused with numpy's ValueError.
    """
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0) & (q <= 1)):
        raise ValueError("Quantiles must be in the range [0, 1]")
    last = len(ordered) - 1
    virtual = last * q.reshape(-1)
    below = np.floor(virtual)
    top = virtual >= last
    lo = np.where(top, -1, below).astype(np.intp)
    hi = np.where(top, -1, below + 1).astype(np.intp)
    t = virtual - lo
    a = ordered[lo]
    b = ordered[hi]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(ordered[-1]):
        out[:] = ordered[-1]
    return out.reshape(q.shape)[()]


def content_seed(base_seed: int, *fields) -> np.random.SeedSequence:
    """Seed derived from parameter content: identical laws share samples.

    Makes gap and comparison reports exactly zero along constant sequences
    while keeping distinct laws independent.
    """
    digest = hashlib.sha256(repr(fields).encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.SeedSequence(entropy=(int(base_seed), key))


def require_laws(specs: Sequence) -> None:
    """Refuse an empty sequence of laws: a sequence experiment compares its
    last law with the limit, and an empty one has no last law."""
    if not specs:
        raise ValueError("the sequence must hold at least one law")


def reduce_each_law(reduce: Callable, limit, specs: Sequence, base_seed: int) -> tuple:
    """``reduce(spec, seed)`` of the limit and of each spec, drawing each law once.

    Laws are reduced in order, the limit first, each with the seed
    ``content_seed(base_seed, *astuple(spec))``; a spec equal to the limit or
    to an earlier spec reuses its reduction.  Laws are keyed by the ``repr``
    of their fields, since ``0.0 == -0.0`` would merge two laws whose seeds
    differ.  Returns the limit's reduction and the list of the specs'.  An
    empty ``specs`` is refused before any draw (``require_laws``).
    """
    require_laws(specs)
    laws = {}

    def once(spec):
        fields = astuple(spec)
        key = repr(fields)
        if key not in laws:
            laws[key] = reduce(spec, content_seed(base_seed, *fields))
        return laws[key]

    return once(limit), [once(spec) for spec in specs]


@dataclass(frozen=True)
class CheckRecord:
    name: str
    estimate: float
    half_width: float
    bound: float | None = None
    passed: bool = True
    expected_failure: bool = False

    @property
    def verdict(self) -> str:
        """PASS, FAIL, or EXPECTED_FAIL for a failure the hypotheses predict."""
        if self.passed:
            return "PASS"
        return "EXPECTED_FAIL" if self.expected_failure else "FAIL"


def one_sided(name: str, estimate: float, hw: float, bound: float) -> CheckRecord:
    return CheckRecord(
        name=name,
        estimate=estimate,
        half_width=hw,
        bound=bound,
        passed=estimate <= bound + hw,
    )


def fraction(mask: np.ndarray) -> tuple[float, float]:
    """The share of true entries in a boolean mask, and its half-width."""
    return share(np.count_nonzero(mask), len(mask))


def share(count: int, n: int) -> tuple[float, float]:
    """The share ``count / n`` and its half-width, as ``fraction`` gives them."""
    p = float(count) / n
    return p, half_width(math.sqrt(p * (1.0 - p)), n)


def max_z_check(name: str, zmax: float) -> CheckRecord:
    """The verdict on the largest z-score over a grid: at most 3 passes."""
    return CheckRecord(name=name, estimate=zmax, half_width=0.0, bound=3.0, passed=zmax <= 3.0)


def bounded_sup(name: str, values: Sequence[float]) -> CheckRecord:
    """The verdict that a sequence of values is bounded: their largest is both
    estimate and bound, and the check passes when every value is finite."""
    top = max(values)
    return CheckRecord(
        name=name, estimate=top, half_width=0.0, bound=top, passed=all(map(math.isfinite, values))
    )


def barycenter_gap(name: str, bary: np.ndarray, limit_bary: np.ndarray, bound: float) -> CheckRecord:
    """The final law's barycenter against the limit's: the largest coordinate
    gap, which passes when it is at most ``bound``.  Barycenters of two
    shapes are refused: numpy would broadcast one against the other, and the
    gap would compare coordinates of different dimensions."""
    if np.shape(bary) != np.shape(limit_bary):
        raise ValueError(
            f"{name}: a barycenter of shape {np.shape(bary)} against a limit of shape {np.shape(limit_bary)}"
        )
    return one_sided(name, float(np.abs(bary - limit_bary).max()), 0.0, bound)


def two_sided(name: str, estimate: float, hw: float, target: float) -> CheckRecord:
    return CheckRecord(
        name=name,
        estimate=estimate,
        half_width=hw,
        bound=target,
        passed=abs(estimate - target) <= hw,
    )


@dataclass(frozen=True)
class ConcentrationReport:
    name: str
    checks: tuple[CheckRecord, ...]
    extras: Mapping = field(default_factory=dict)
    curves: Mapping[str, Sequence[Sequence[float]]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.verdict != "FAIL" for c in self.checks)

    def check(self, name: str) -> CheckRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _plain(obj):
    """The document as the stdlib encoder is to see it: numpy scalars and
    arrays become their ``tolist()``, converted in turn; mappings get ``str``
    keys; and a non-finite float becomes ``"inf"``, ``"-inf"`` or ``"nan"``."""
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


#: The bits of -0.0, the one float64 zero that is not written "0.0".
_NEGATIVE_ZERO = np.float64(-0.0).view(np.uint64)


def _bracketed(items: list, level: int) -> str:
    """A list of encoded items as the stdlib encoder writes it, nested ``level`` deep."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * level + "]"


def _float_array(a: np.ndarray, level: int, out: list) -> None:
    """Append ``a.tolist()`` encoded, for a finite float64 array of one or two dimensions."""
    flat = a.ravel()
    tokens = ["0.0"] * flat.size
    nonzero = np.flatnonzero(flat)
    for i, v in zip(nonzero.tolist(), flat[nonzero].tolist()):
        tokens[i] = float.__repr__(v)
    for i in np.flatnonzero(flat.view(np.uint64) == _NEGATIVE_ZERO).tolist():
        tokens[i] = "-0.0"
    if a.ndim == 1 or not len(a):
        out.append(_bracketed(tokens, level))
        return
    # the rows go to ``out`` one by one: joining them here would copy the text once more
    width = a.shape[1]
    inner = "\n" + "  " * (level + 1)
    for r in range(len(a)):
        out.append(("," if r else "[") + inner)
        out.append(_bracketed(tokens[r * width : (r + 1) * width], level + 1))
    out.append("\n" + "  " * level + "]")


def _encode(obj, level: int, out: list) -> None:
    """Append ``_plain(obj)`` as the stdlib encoder writes it, nested ``level`` deep."""
    kind = type(obj)
    if kind is float:
        out.append(float.__repr__(obj) if math.isfinite(obj) else _string(repr(obj)))
    elif kind is str:
        out.append(_string(obj))
    elif kind is np.ndarray and obj.dtype == np.float64 and obj.ndim in (1, 2) and np.isfinite(obj).all():
        _float_array(obj, level, out)
    # the rest in _plain's order
    elif hasattr(obj, "tolist"):
        _encode(obj.tolist(), level, out)
    elif isinstance(obj, Mapping):
        if not obj:
            out.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "," + inner
        out.append("{")
        for i, (key, value) in enumerate(sorted({str(k): v for k, v in obj.items()}.items())):
            out.append((sep if i else inner) + _string(key) + ": ")
            _encode(value, level + 1, out)
        out.append("\n" + "  " * level + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            out.append(_bracketed(list(map(float.__repr__, obj)), level))
            return
        inner = "\n" + "  " * (level + 1)
        sep = "," + inner
        out.append("[")
        for i, value in enumerate(obj):
            out.append(sep if i else inner)
            _encode(value, level + 1, out)
        out.append("\n" + "  " * level + "]")
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else _string(repr(obj)))
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def dump_json(doc, path) -> None:
    """Write ``doc`` as the deterministic JSON report described above."""
    out: list[str] = []
    _encode(doc, 0, out)
    out.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(out))


def write_curve_csv(path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) for x in row])
