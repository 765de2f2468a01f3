"""Report containers shared by the Monte-Carlo experiment modules.

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
before the slower checks; a list of finite floats, the usual bulk of a report
(coupling matrices, witnesses), is joined in one ``str.join``; and the file is
written with one ``write``.  The stdlib encoder stays the reference the tests
compare these bytes with.
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


def mean_std(v: np.ndarray) -> tuple[float, float]:
    """Mean and population std of a 1-D array, bit for bit ``v.mean()`` and
    ``v.std()``: the same sums, deviations and divisions as numpy's
    ``_mean``/``_var``, with the mean's sum taken once instead of twice."""
    n = len(v)
    m = v.sum() / n
    d = v - m
    d *= d
    return float(m), float(np.sqrt(d.sum() / n))


def content_seed(base_seed: int, *fields) -> np.random.SeedSequence:
    """Seed derived from parameter content: identical laws share samples.

    Makes gap and comparison reports exactly zero along constant sequences
    while keeping distinct laws independent.
    """
    digest = hashlib.sha256(repr(fields).encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.SeedSequence(entropy=(int(base_seed), key))


def reduce_each_law(reduce: Callable, limit, specs: Sequence, base_seed: int) -> tuple:
    """``reduce(spec, seed)`` of the limit and of each spec, drawing each law once.

    Laws are reduced in order, the limit first, each with the seed
    ``content_seed(base_seed, *astuple(spec))``; a spec equal to the limit or
    to an earlier spec reuses its reduction.  Laws are keyed by the ``repr``
    of their fields, since ``0.0 == -0.0`` would merge two laws whose seeds
    differ.  Returns the limit's reduction and the list of the specs'.
    """
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
    detail: str = ""


def one_sided(name: str, estimate: float, hw: float, bound: float, **kw) -> CheckRecord:
    return CheckRecord(
        name=name,
        estimate=estimate,
        half_width=hw,
        bound=bound,
        passed=estimate <= bound + hw,
        **kw,
    )


def two_sided(name: str, estimate: float, hw: float, target: float, **kw) -> CheckRecord:
    return CheckRecord(
        name=name,
        estimate=estimate,
        half_width=hw,
        bound=target,
        passed=abs(estimate - target) <= hw,
        **kw,
    )


@dataclass(frozen=True)
class ConcentrationReport:
    name: str
    sample_count: int
    seed: int
    checks: tuple[CheckRecord, ...]
    extras: Mapping = field(default_factory=dict)
    curves: Mapping[str, Sequence[Sequence[float]]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed or c.expected_failure for c in self.checks)

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


def _encode(obj, level: int, out: list) -> None:
    """Append ``_plain(obj)`` as the stdlib encoder writes it, nested ``level`` deep."""
    kind = type(obj)
    if kind is float:
        out.append(float.__repr__(obj) if math.isfinite(obj) else _string(repr(obj)))
    elif kind is str:
        out.append(_string(obj))
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
        inner = "\n" + "  " * (level + 1)
        sep = "," + inner
        if set(map(type, obj)) == {float}:
            line = sep.join(map(float.__repr__, obj))
            # "inf" and "nan" are the only float reprs holding an "n"
            if "n" not in line:
                out += ("[", inner, line, "\n", "  " * level, "]")
                return
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
