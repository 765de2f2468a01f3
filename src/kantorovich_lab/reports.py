"""Report containers shared by the Monte-Carlo experiment modules.

Every estimate carries a half-width of three standard errors; a one-sided
check passes when the estimate does not exceed its bound by more than the
half-width.

Reports serialize deterministically, so identical seeds give byte-identical
files.  ``dump_json`` writes the bytes of
``json.dumps(_plain(doc), indent=2, sort_keys=True) + "\\n"``: keys sorted,
two-space indent, ASCII-only strings, floats as their shortest round-trip
``repr``.  It gets them in one walk over the document instead of converting
it with ``_plain`` first and then running the stdlib's pure-Python indenting
encoder.  Floats and strings are recognised by their exact type before the
slower checks; a list of finite floats, the usual bulk of a report (coupling
matrices, witnesses), is joined in one ``str.join``; and the file is written
with one ``write``.

``_plain``'s rules hold unchanged: numpy scalars and arrays become their
``tolist()``, mappings get ``str`` keys, and a non-finite Python float
becomes the string ``"inf"`` or ``"nan"``.  A ``tolist()`` result is written
as the stdlib writes it, so a non-finite number inside an array is
``Infinity``/``NaN``.  The stdlib encoder stays the reference the tests
compare these bytes with.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _string
from typing import Iterable, Mapping, Sequence

import numpy as np


def half_width(std: float, n: int) -> float:
    """Three standard errors of the mean."""
    return 3.0 * std / math.sqrt(n)


def content_seed(base_seed: int, *fields) -> np.random.SeedSequence:
    """Seed derived from parameter content: identical laws share samples.

    Makes gap and comparison reports exactly zero along constant sequences
    while keeping distinct laws independent.
    """
    digest = hashlib.sha256(repr(fields).encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.SeedSequence(entropy=(int(base_seed), key))


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
    """Recursively convert numpy scalars/arrays for JSON output."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _json_float(x: float) -> str:
    """A float as the stdlib encoder writes it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_key(key) -> str:
    """A dict key as the stdlib encoder converts it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _encode_list(items, level: int, out: list, encode) -> None:
    if not items:
        out.append("[]")
        return
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    if set(map(type, items)) == {float}:
        line = sep.join(map(float.__repr__, items))
        # "inf" and "nan" are the only float reprs holding an "n"
        if "n" not in line:
            out += ("[", inner, line, "\n", "  " * level, "]")
            return
    out.append("[")
    for i, value in enumerate(items):
        out.append(sep if i else inner)
        encode(value, level + 1, out)
    out.append("\n" + "  " * level + "]")


def _encode_dict(pairs, level: int, out: list, encode) -> None:
    """``pairs``: (str key, value) in output order."""
    if not pairs:
        out.append("{}")
        return
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    out.append("{")
    for i, (key, value) in enumerate(pairs):
        out.append((sep if i else inner) + _string(key) + ": ")
        encode(value, level + 1, out)
    out.append("\n" + "  " * level + "}")


def _encode_json(obj, level: int, out: list) -> None:
    """Append ``obj`` as the stdlib encoder writes it (a ``tolist()`` result)."""
    if isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_json_float(obj))
    elif isinstance(obj, (list, tuple)):
        _encode_list(obj, level, out, _encode_json)
    elif isinstance(obj, dict):
        pairs = [(_json_key(k), v) for k, v in sorted(obj.items())]
        _encode_dict(pairs, level, out, _encode_json)
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _encode(obj, level: int, out: list) -> None:
    """Append ``_plain(obj)`` as the stdlib encoder writes it, nested ``level`` deep."""
    kind = type(obj)
    if kind is float:
        out.append(float.__repr__(obj) if math.isfinite(obj) else _string(repr(obj)))
    elif kind is str:
        out.append(_string(obj))
    # the rest in _plain's order
    elif hasattr(obj, "tolist"):
        _encode_json(obj.tolist(), level, out)
    elif isinstance(obj, Mapping):
        _encode_dict(sorted({str(k): v for k, v in obj.items()}.items()), level, out, _encode)
    elif isinstance(obj, (list, tuple)):
        _encode_list(obj, level, out, _encode)
    elif isinstance(obj, float) and not math.isfinite(obj):
        out.append(_string(repr(obj)))
    else:
        _encode_json(obj, level, out)


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
