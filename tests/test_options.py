"""Every option and every public definition of the library has a caller
outside the tests.

A defaulted parameter of a function or method, or a defaulted field of a
dataclass, that no program call ever passes runs at its default everywhere
but in the tests: it is a constant written as an option, and each such
option doubles the configurations the tests would have to cover.  A test
that sets it checks a behaviour no program reaches.  The options check
parses the modules of ``src/kantorovich_lab`` and every call in ``src`` and
``perfbench``, matching calls to definitions by the callee's name, and lists
each defaulted parameter that no call passes, by keyword or by position.
``cli.py`` is left out of it: its runners' keyword parameters are the config
schema, which configs set.

A public function, method or class that no program reaches is code that
only its own tests run.  The surface check walks the names that reachable
code reads, from ``perfbench``, ``tests/test_acceptance.py`` and the
module-level statements of ``src`` through the bodies of the definitions
they reach, and lists each public definition never reached.  Imports,
re-exports, ``__all__`` and annotations read nothing.

The surface check leaves out one definition, ``transport/_simplex``'s
``simplex_max``: the benchmark's tracer binds it by a string, which reads no
name.  A test below keeps that module to the two stubs the benchmark binds,
``kernel_backend`` and a ``simplex_max`` that raises, so that the
benchmark's retarget can delete it knowing nothing else depends on it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kantorovich_lab"
SIMPLEX = PACKAGE / "transport" / "_simplex.py"
EXEMPT = {PACKAGE / "cli.py"}
CALLERS = ("src", "perfbench")
#: Code that counts as a caller whole: the benchmark and the acceptance suite.
ROOTS = (*sorted((ROOT / "perfbench").rglob("*.py")), ROOT / "tests" / "test_acceptance.py")
#: Definitions that the benchmark binds by a string, which reads no name.
BOUND_BY_STRING = {"transport/_simplex: simplex_max"}


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
    assert not unset, "options that no program call passes (make each a constant):\n" + "\n".join(unset)


def _reads(node: ast.AST):
    """The names ``node`` reads, as a variable or as an attribute, leaving
    out annotations."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        for field, child in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            if isinstance(child, ast.AST):
                stack.append(child)
            elif isinstance(child, list):
                stack.extend(c for c in child if isinstance(c, ast.AST))


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(body, prefix=""):
    """(name, qualified name, the nodes it reads once reached) of each
    function, class and method in ``body``.  A class reads its decorators,
    bases and the statements of its body other than definitions, which run
    when it is defined, and its dunder methods, which run when it is used."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            dunders = [n for n in node.body if isinstance(n, ast.FunctionDef)
                       and n.name.startswith("__") and n.name.endswith("__")]
            statements = [n for n in node.body if not isinstance(n, DEFINITIONS)]
            held = [*node.decorator_list, *node.bases, *node.keywords, *statements, *dunders]
            yield node.name, f"{prefix}{node.name}", held
            yield from _definitions([n for n in node.body if n not in dunders], f"{prefix}{node.name}.")
        elif isinstance(node, DEFINITIONS):
            yield node.name, f"{prefix}{node.name}", [node]


def unreached() -> list[str]:
    """Each public function, method or class of the package that no
    reachable code reads, as ``module: qualified name``.

    Reads match definitions by name alone, so a read of ``validate`` reaches
    every method of that name.  A function's decorators and defaults count
    as its own, read once it is reached."""
    held_by: dict[str, list[ast.AST]] = {}
    frontier: list[ast.AST] = [ast.parse(path.read_text(encoding="utf-8")) for path in ROOTS]
    public = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, qualified, held in _definitions(tree.body):
            held_by.setdefault(name, []).extend(held)
            if not name.startswith("_"):
                public.append((name, f"{module}: {qualified}"))
        frontier += [node for node in tree.body if not isinstance(node, DEFINITIONS)]
    read: set[str] = set()
    while frontier:
        for name in _reads(frontier.pop()):
            if name not in read:
                read.add(name)
                frontier += held_by.get(name, ())
    return [label for name, label in public if name not in read and label not in BOUND_BY_STRING]


def test_every_public_definition_has_a_caller():
    dead = unreached()
    assert not dead, "definitions that no program reaches (delete each with its tests):\n" + "\n".join(dead)


def test_a_re_export_is_no_read(tmp_path, monkeypatch):
    # a definition that only an __init__ import and __all__ name is listed
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text('from .a import used, unused\n__all__ = ["used", "unused"]\n')
    (package / "a.py").write_text("def used():\n    pass\n\n\ndef unused():\n    pass\n")
    (tmp_path / "run.py").write_text("from toy import used\nused()\n")
    for name, value in {"PACKAGE": package, "ROOTS": (tmp_path / "run.py",)}.items():
        monkeypatch.setitem(globals(), name, value)
    assert unreached() == ["a: unused"]


def test_the_simplex_module_holds_only_the_benchmark_stubs():
    from kantorovich_lab.transport._simplex import simplex_max

    # past its docstring, the module holds the two functions and no other statement
    docstring, *body = ast.parse(SIMPLEX.read_text(encoding="utf-8")).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [(type(node), getattr(node, "name", None)) for node in body] == [
        (ast.FunctionDef, "kernel_backend"), (ast.FunctionDef, "simplex_max")]
    with pytest.raises(RuntimeError, match="dense simplex"):
        simplex_max([[1.0]], [1.0], [1.0])


def test_no_module_of_the_package_reads_simplex_max():
    # by name, by attribute, by import, or by a string as the tracer does
    readers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            elif isinstance(node, ast.Constant):
                names = {node.value}
            else:
                continue
            if "simplex_max" in names:
                readers.append(path.relative_to(PACKAGE).as_posix())
    assert not readers, f"modules that read simplex_max: {readers}"
