"""Every option of the library has a caller outside the tests.

A defaulted parameter of a function or method, or a defaulted field of a
dataclass, that no program call ever passes runs at its default everywhere
but in the tests: it is a constant written as an option, and each such
option doubles the configurations the tests would have to cover.  A test
that sets it checks a behaviour no program reaches.  This test parses the
modules of ``src/kantorovich_lab`` and every call in ``src`` and
``perfbench``, matching calls to definitions by the callee's name, and lists
each defaulted parameter that no call passes, by keyword or by position.

One option is exempt: ``extract_convergent_subsequence(tv_bound)`` checks a
hypothesis about the caller's own sequence, its declared bound on the total
variation, and no constant can stand in for a bound that only the caller
knows.

``cli.py`` is left out: its runners' keyword parameters are the config
schema, which configs set.  So is ``transport/_simplex.py``, which the
benchmark still imports by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kantorovich_lab"
EXEMPT = {PACKAGE / "cli.py", PACKAGE / "transport" / "_simplex.py"}
CALLERS = ("src", "perfbench")
#: The one option that no program call passes and that stays an option.
EXEMPT_OPTION = "convergence: extract_convergent_subsequence(tv_bound)"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_static(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


def _signatures(tree: ast.Module):
    """(callee name, qualified name, parameters) of each function, method
    and dataclass: a parameter is (name, position or None, defaulted), and
    the position counts the arguments a call passes, so a method's ``self``
    is not counted."""

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    params = [(f.target.id, i, f.value is not None) for i, f in enumerate(fields)]
                    yield node.name, f"{prefix}{node.name}", params
                yield from visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                skip = 1 if in_class and not _is_static(node) else 0
                first = len(positional) - len(args.defaults)
                params = [(a.arg, i - skip, i >= first) for i, a in enumerate(positional) if i >= skip]
                params += [(a.arg, None, d is not None) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
                yield node.name, f"{prefix}{node.name}", params
                yield from visit(node.body, f"{prefix}{node.name}.", False)

    yield from visit(tree.body, "", False)


def _calls() -> dict[str, list[tuple[set[str], int]]]:
    """Per callee name, each call's keywords and number of positional
    arguments."""
    calls: dict[str, list[tuple[set[str], int]]] = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name is None:
                    continue
                count = len(node.args)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    count = 10**6  # unpacked arguments may fill every position
                calls.setdefault(name, []).append(({k.arg for k in node.keywords if k.arg is not None}, count))
    return calls


def unset_options() -> list[str]:
    """Each defaulted parameter or field that no call passes, as
    ``module: function(parameter)``.

    Calls match by the callee's name alone, so one name may stand for
    several definitions.  A positional argument is then taken to set a
    defaulted parameter only where no definition of that name requires an
    argument at its position: ``coupling.validate(mu, nu)`` does not set the
    ``tol`` of a ``validate(mu, tol)``."""
    signatures = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path not in EXEMPT:
            module = path.relative_to(PACKAGE).with_suffix("").as_posix()
            signatures += [(module, *sig) for sig in _signatures(ast.parse(path.read_text(encoding="utf-8")))]
    required: dict[str, set[int]] = {}
    for _, callee, _, params in signatures:
        required.setdefault(callee, set()).update(i for _, i, defaulted in params if i is not None and not defaulted)
    calls = _calls()
    unset = []
    for module, callee, qualified, params in signatures:
        for param, position, defaulted in params:
            if not defaulted:
                continue
            by_position = position is not None and position not in required[callee]
            if not any(param in keywords or (by_position and position < count)
                       for keywords, count in calls.get(callee, ())):
                unset.append(f"{module}: {qualified}({param})")
    return unset


def test_every_option_has_a_caller():
    unset = unset_options()
    others = [option for option in unset if option != EXEMPT_OPTION]
    assert not others, "options that no program call passes (make each a constant):\n" + "\n".join(others)
    assert unset == [EXEMPT_OPTION], f"{EXEMPT_OPTION} now has a program caller: drop its exemption"
