"""Two guards against code that nothing needs.

* No parameter that nothing sets: every defaulted parameter of a function in
  src/gapkit is passed, positionally or by keyword, by at least one call in
  src/gapkit, tests, demos or perfbench.  A default that no call overrides
  is a constant, and belongs at its use site.

  Calls are matched by name: ``f(...)`` and ``obj.f(...)`` both count as
  calls of every function named ``f``, and ``C(...)`` as a call of
  ``C.__init__``.  A call with ``*args`` passes every positional parameter
  and one with ``**kwargs`` every parameter.

* No function that only tests use: every function or method in src/gapkit,
  other than a dunder or a name that gapkit/__init__.py exports (the public
  API), is referenced from src/gapkit, demos or perfbench.  A helper that
  only tests need belongs in the tests.

  References are matched by name as well: ``f``, ``obj.f`` and the string
  ``"f"`` (as in ``getattr`` or perfbench's tracer list) all refer to every
  function named ``f``.  A bare ``f`` does not count inside a function or
  lambda that binds ``f`` itself, as a parameter or an assignment target,
  or inside one nested in such a function: there it names a local.  No
  reference to ``f`` counts inside a function named ``f`` or one nested in
  it, so recursion alone keeps no function alive.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src/gapkit", "tests", "demos", "perfbench")
USERS = ("src/gapkit", "demos", "perfbench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def defaulted_parameters():
    """(label, called name, positional index or None, name) of each
    defaulted parameter in src/gapkit; the index does not count self or
    cls, and is None for a keyword-only parameter."""
    for path in sorted((ROOT / "src" / "gapkit").glob("*.py")):
        tree = _parse(path)
        owner = {f: c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(fn)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = 1 if cls is not None and not static else 0
            args = fn.args
            pos = args.posonlyargs + args.args
            first = len(pos) - len(args.defaults)
            called = cls.name if fn.name == "__init__" else fn.name
            label = f"{path.stem}.{cls.name + '.' if cls else ''}{fn.name}"
            for i in range(first, len(pos)):
                yield label, called, i - skip, pos[i].arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield label, called, None, arg.arg


def calls_by_name() -> dict[str, list[ast.Call]]:
    out = defaultdict(list)
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    f = node.func
                    if isinstance(f, ast.Name):
                        out[f.id].append(node)
                    elif isinstance(f, ast.Attribute):
                        out[f.attr].append(node)
    return out


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if index is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > index


def test_every_defaulted_parameter_is_set_by_some_call():
    calls = calls_by_name()
    unset = [f"{label}({name})"
             for label, called, index, name in defaulted_parameters()
             if not any(_passes(c, index, name) for c in calls[called])]
    assert not unset, "defaulted parameters that no call sets:\n" + "\n".join(unset)


def public_names() -> set[str]:
    tree = _parse(ROOT / "src" / "gapkit" / "__init__.py")
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(fn) -> set[str]:
    """The names a function or lambda binds as parameters or as targets
    assigned in its own body, less those it declares global or nonlocal.  A
    function defined in the body is not counted: its name, read there,
    refers to a function."""
    a = fn.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
    declared = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if isinstance(node, (*_SCOPES, ast.ClassDef)):
            continue                      # a scope of its own
        todo.extend(ast.iter_child_nodes(node))
    return names - declared


def _references(node: ast.AST, local: frozenset = frozenset(),
                own: frozenset = frozenset(), out=None) -> set[str]:
    """Every name that ``node`` refers to by a Name outside the locals of
    its enclosing functions, by an attribute or by a string constant, less
    the names of the functions ``node`` lies in (``own``)."""
    out = set() if out is None else out
    if isinstance(node, _SCOPES):
        local = local | _bound(node)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        own = own | {node.name}
    for child in ast.iter_child_nodes(node):
        name = None
        if isinstance(child, ast.Name):
            name = None if child.id in local else child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            name = child.value
        if name is not None and name not in own:
            out.add(name)
        _references(child, local, own, out)
    return out


def referenced_names(tops) -> set[str]:
    out = set()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            _references(_parse(path), out=out)
    return out


SHADOWED = """
def helper():
    return 1

def dead():
    return 2

def dead_too():
    return 3

def user(xs, dead_too=0):
    dead = len(xs)
    def inner():
        return dead + dead_too
    return helper() + inner() + (lambda dead: dead)(1)

def caller():
    return [dead_too() for _ in range(2)]

def wrapper():
    def nested():
        return 4
    return nested()

def countdown(n):
    return 0 if n == 0 else countdown(n - 1)

class Walker:
    def walk(self, n):
        def step():
            return self.walk(n - 1)
        return step() if n else 0
"""


def test_references_skip_locals_named_like_functions():
    # ``dead`` is bound in ``user`` (assignment, lambda parameter) and only
    # read there or in a function nested in it; ``dead_too`` is a parameter
    # of ``user`` but called from ``caller``, where nothing binds it; a
    # function defined in a function is referenced where it is called;
    # ``countdown`` and ``Walker.walk`` are referenced only from their own
    # bodies, which keeps neither alive
    refs = _references(ast.parse(SHADOWED))
    assert {"helper", "dead_too", "nested", "step"} <= refs
    assert not {"dead", "countdown", "walk"} & refs


def test_no_function_is_used_only_by_tests():
    public, used = public_names(), referenced_names(USERS)
    unused = []
    for path in sorted((ROOT / "src" / "gapkit").glob("*.py")):
        tree = _parse(path)
        owner = {f: c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = fn.name
            if name.startswith("__") and name.endswith("__"):
                continue
            cls = owner.get(fn)
            if (cls is None and name in public) or name in used:
                continue
            unused.append(f"{path.stem}.{cls.name + '.' if cls else ''}{name}")
    assert not unused, "functions that only tests use:\n" + "\n".join(unused)
