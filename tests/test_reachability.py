"""Every public function and method in `finord` is reached, or is a named
oracle.

A public top-level function of a `src/finord` module counts as reached when
another `finord` module refers to it (`from finord.m import f`, or `m.f`
through `from finord import m [as alias]`), when its own module refers to it
outside its `def`, or when `perfbench/*.py` does (`m.f`, or the string pair
`("m", "f")` that the tracer resolves with `getattr`).  A public method (or
property) of a public class counts as reached when any `finord` module or
`perfbench/*.py` reads an attribute of its name outside its own `def`, or
when `perfbench/*.py` names it as `("m", "Class.method")`.  A method whose
name another public class also defines is not told apart by an attribute
read, so it counts as reached only through that perfbench pair, an ORACLES
entry, or a SHARED entry naming the `finord` function (or "Class.method")
that reads it.  A function or method nothing reaches must be listed in
ORACLES with the reason it is kept; anything else is dead code and should be
deleted with the tests that check only it.  An ORACLES entry that the package
or the benchmark does reach fails as well, so the list cannot go stale; an
oracle only the tests run belongs in `tests/oracles.py`, not in `src/`.

A second check finds names a `src/finord` module imports and never uses.

Another check finds a `src/finord` module reading a private name (one
with a leading underscore, not a dunder) of another `finord` module, through
a module alias or `from finord.m import _name`; what one module keeps
private is shared through a public name, or moved to `kernels`.

A fourth check finds optional parameters that only one value serves.  An
optional parameter of a `src/finord` function (or method, or `__init__`)
counts as passed when a call in `src/finord` or `perfbench/*.py` supplies it
by keyword or by position.  A call that supplies it as the bare name of the
calling function's own parameter of that name only forwards it and does not
count.  A parameter no call passes must be listed in UNPASSED with the
reason it is kept; otherwise its one value belongs in the body or in a named
constant.

A fifth check finds parameters that only one value serves although calls
pass it.  A parameter of a `src/finord` function, optional or not, takes
one value when every call in `src/finord` and `perfbench/*.py` supplies
the same constant for it, an unpassed default counting as its value (a
parameter no call passes is listed in UNPASSED, with its reason).  A
constant is a literal, or a name or attribute path made of upper-case
constants and imported modules; a parameter forwarded or computed by any
call takes more than one value.  Such a parameter must be listed in
ONE_VALUE with the reason it is kept; otherwise the value belongs in the
body.

A sixth check finds module-level constants nothing reads.  A name a
`src/finord` module binds at module level (dunders aside) counts as read
when its own module loads it, when another `finord` module refers to it as
above, or when `perfbench/*.py` does (`m.NAME`, or the pair `("m",
"NAME")`).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "finord"
BENCH = ROOT / "perfbench"

ORACLES = {
    ("hierarchy", "from_json"): "round-trip oracle of `hierarchy export`",
}

# optional parameters that no package or benchmark call passes
UNPASSED = {
    ("kripke", "sample_frame", "density"):
        "random test input; the p-morphism tests vary the density",
}

# parameters that every package and benchmark call passes the same constant
ONE_VALUE = {
    ("kripke", "sample_frame", "n"):
        "random test input; the tests sample frames of every size",
}

# method defined by several public classes -> the definition reading it
SHARED = {
    ("heyting", "DownsetAlgebra.top"): ("heyting", "is_complete_ha_morphism"),
    ("kripke", "FiniteBAO.top"): ("kripke", "FiniteBAO.box"),
}


def _finord_imports(tree, modules):
    """(aliases, names) a parsed file binds by importing from finord.

    aliases maps each name bound by `from finord import m [as alias]` to m,
    and names each name bound by `from finord.m import f [as g]` to (m, f).
    """
    aliases, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        for a in node.names:
            if node.module == "finord" and a.name in modules:
                aliases[a.asname or a.name] = a.name
            elif node.module.startswith("finord."):
                names[a.asname or a.name] = (
                    node.module.removeprefix("finord."), a.name)
    return aliases, names


def _module_refs(tree, modules):
    """(module, name) pairs a parsed file refers to through finord imports."""
    aliases, names = _finord_imports(tree, modules)
    refs = set(names.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.add((aliases[node.value.id], node.attr))
    return refs


def _string_pairs(tree, modules):
    """("module", "name") tuple literals, the form `perfbench/spans.py`
    lists its wrapped entry points in."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            mod, name = node.elts[:2]
            if (isinstance(mod, ast.Constant) and mod.value in modules
                    and isinstance(name, ast.Constant)
                    and isinstance(name.value, str)):
                refs.add((mod.value, name.value))
    return refs


def _own_refs(tree, skip):
    """Names the module's own code uses, outside the function `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _attribute_reads(node):
    """How often each attribute name is read under node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute))


def _public_methods(trees):
    """(module, "Class.method", def node) for public classes' methods."""
    for mod, tree in sorted(trees.items()):
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if (isinstance(node, ast.FunctionDef)
                            and not node.name.startswith("_")):
                        yield mod, f"{cls.name}.{node.name}", node


def _definitions(trees):
    """(module, name or "Class.method") -> def node, private ones included."""
    defs = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[mod, node.name] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[mod, f"{node.name}.{item.name}"] = item
    return defs


def _public_functions(trees):
    for mod, tree in sorted(trees.items()):
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                yield mod, node


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_function_is_reached_or_an_oracle():
    trees = {path.stem: _parse(path) for path in SRC.glob("*.py")}
    modules = set(trees)
    bench = [_parse(path) for path in BENCH.glob("*.py")]
    reached = set()
    for mod, tree in trees.items():
        reached |= {ref for ref in _module_refs(tree, modules)
                    if ref[0] != mod}
    for tree in bench:
        reached |= _module_refs(tree, modules) | _string_pairs(tree, modules)
    defined = {(mod, fn.name) for mod, fn in _public_functions(trees)}
    defined |= {(mod, name) for mod, name, _ in _public_methods(trees)}
    for key, reason in ORACLES.items():
        assert key in defined and reason.strip(), key
    unreached = [
        (mod, fn.name)
        for mod, fn in _public_functions(trees)
        if (mod, fn.name) not in reached
        and fn.name not in _own_refs(trees[mod], fn)
    ]
    defs = _definitions(trees)
    for (mod, name), reader in SHARED.items():
        attr = name.split(".")[1]
        assert (mod, name) in defined, (mod, name)
        assert _attribute_reads(defs[reader])[attr], (mod, name, reader)
    reads = sum(map(_attribute_reads, [*trees.values(), *bench]), Counter())
    owners = Counter(fn.name for _, _, fn in _public_methods(trees))
    unreached += [
        (mod, name)
        for mod, name, fn in _public_methods(trees)
        if (mod, name) not in reached
        and (mod, name) not in SHARED
        and (owners[fn.name] > 1
             or reads[fn.name] == _attribute_reads(fn)[fn.name])
    ]
    orphans = [f"{mod}.{name}" for mod, name in unreached
               if (mod, name) not in ORACLES]
    assert orphans == [], (
        "public functions and methods that neither the CLI, another module, "
        f"the benchmark nor an ORACLES entry reaches: {orphans}")
    stale = sorted(ORACLES.keys() - set(unreached))
    assert stale == [], (
        f"ORACLES entries the package or the benchmark reaches: {stale}")


def _imported_names(tree):
    """The names a module's imports bind."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out |= {a.asname or a.name for a in node.names}
    return out


def _exported(tree):
    """The string entries of a module-level `__all__` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exempt = _exported(tree) if path.name == "__init__.py" else set()
        unused += [f"{path.stem}: {name}"
                   for name in sorted(_imported_names(tree) - used - exempt)]
    assert unused == [], f"imported names never used: {unused}"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_name():
    trees = {path.stem: _parse(path) for path in SRC.glob("*.py")}
    modules = set(trees)
    reads = []
    for mod, tree in sorted(trees.items()):
        for ref in sorted(_module_refs(tree, modules)):
            if ref[0] != mod and _private(ref[1]):
                reads.append(f"{mod} reads {ref[0]}.{ref[1]}")
    assert reads == [], f"private names read across modules: {reads}"


def _parameters(trees):
    """(module, callee) -> [(parameter, position or None, default or None)]
    for every def in `src/finord` with named parameters.

    The callee is the function's name, "Class.method" for a method, and the
    class name for an `__init__`, which is how a call names it.  Positions
    count the arguments a call writes, so a method's `self` is skipped; a
    keyword-only parameter has no position.
    """
    out = {}
    for mod, tree in trees.items():
        methods = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[item] = (cls.name if item.name == "__init__"
                                         else f"{cls.name}.{item.name}")
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            skip = 1 if fn in methods else 0
            defaults = [None] * (len(positional) - len(args.defaults))
            params = [(a.arg, i - skip, d) for i, (a, d) in enumerate(
                zip(positional, defaults + args.defaults)) if i >= skip]
            params += [(a.arg, None, d)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults)]
            if params:
                out[mod, methods.get(fn, fn.name)] = params
    return out


def _methods(params):
    """Method name -> the (module, "Class.method") keys defining it."""
    methods = {}
    for mod, callee in params:
        if "." in callee:
            methods.setdefault(callee.split(".")[1], []).append((mod, callee))
    return methods


def _calls(tree, mod, modules, defined, methods):
    """(callee keys, call, enclosing function's parameter names) for every
    call in a parsed file.

    A callee resolves through `from finord.m import f`, a finord module
    alias, or a name in `defined`, the callees of the file's own module
    (empty outside `src/finord`).  Any other `x.f(...)` is a call of every
    method f in `methods` (attribute name -> keys).
    """
    aliases, names = _finord_imports(tree, modules)

    def callees(func):
        if isinstance(func, ast.Name):
            if func.id in names:
                return [names[func.id]]
            return [(mod, func.id)] if func.id in defined else []
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id in aliases:
                return [(aliases[func.value.id], func.attr)]
            return methods.get(func.attr, [])
        return []

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            params = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
        if isinstance(node, ast.Call):
            yield callees(node.func), node, params
        for child in ast.iter_child_nodes(node):
            yield from visit(child, params)

    yield from visit(tree, set())


def _passes(call, name, position, params):
    """Whether call supplies the parameter, other than by forwarding the
    caller's own parameter of the same name."""
    if any(kw.arg is None for kw in call.keywords):
        return True
    supplied = [kw.value for kw in call.keywords if kw.arg == name]
    if position is not None:
        if any(isinstance(a, ast.Starred) for a in call.args[:position + 1]):
            return True
        supplied += call.args[position:position + 1]
    return any(not (isinstance(v, ast.Name) and v.id == name
                    and name in params) for v in supplied)


def test_every_optional_parameter_is_passed_or_listed():
    trees = {path.stem: _parse(path) for path in SRC.glob("*.py")}
    modules = set(trees)
    optional = {key: [(name, pos) for name, pos, d in params
                      if d is not None]
                for key, params in _parameters(trees).items()}
    optional = {key: params for key, params in optional.items() if params}
    methods = _methods(optional)
    files = list(trees.items())
    files += [(None, _parse(path)) for path in BENCH.glob("*.py")]
    passed = set()
    for mod, tree in files:
        defined = {callee for m, callee in optional if m == mod}
        for keys, call, params in _calls(tree, mod, modules, defined, methods):
            for key in keys:
                for name, position in optional.get(key, ()):
                    if _passes(call, name, position, params):
                        passed.add((*key, name))
    declared = {(*key, name) for key, params in optional.items()
                for name, _ in params}
    unpassed = sorted(declared - passed - UNPASSED.keys())
    assert unpassed == [], (
        "optional parameters no package or benchmark call passes; make the "
        f"one value a constant or list the parameter in UNPASSED: {unpassed}")
    for entry, reason in UNPASSED.items():
        assert entry in declared and reason.strip(), entry
        assert entry not in passed, f"{entry} is passed; drop its entry"


def _scope(tree, mod, modules):
    """What the names a constant may use stand for in a parsed file: its
    finord module aliases and names, its other imports, and, in
    `src/finord/<mod>.py`, its own upper-case constants."""
    aliases, names = _finord_imports(tree, modules)
    scope = {name: name for name in _imported_names(tree)}
    scope |= {n: f"{m}.{f}" for n, (m, f) in names.items()}
    scope |= aliases
    if mod:
        scope |= {n: f"{mod}.{n}" for n in _constants(tree) if n.isupper()}
    return scope


def _constant(node, scope):
    """The value of an argument as a string when it is a constant, else
    None: a literal, or a name or attribute path through `scope`."""
    if isinstance(node, ast.Constant):
        return repr(node.value)
    if (isinstance(node, ast.UnaryOp)
            and isinstance(node.operand, ast.Constant)):
        return ast.unparse(node)
    if isinstance(node, ast.Name):
        return scope.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _constant(node.value, scope)
        return base and f"{base}.{node.attr}"
    if isinstance(node, ast.Tuple):
        items = [_constant(e, scope) for e in node.elts]
        return None if None in items else f"({', '.join(items)},)"
    return None


def _argument(call, name, position):
    """The expression call supplies for the parameter, False when it
    supplies none, or None when a starred argument may supply it."""
    if any(kw.arg is None for kw in call.keywords):
        return None
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if position is not None:
        if any(isinstance(a, ast.Starred) for a in call.args[:position + 1]):
            return None
        if position < len(call.args):
            return call.args[position]
    return False


def test_every_parameter_takes_more_than_one_value():
    trees = {path.stem: _parse(path) for path in SRC.glob("*.py")}
    modules = set(trees)
    declared = _parameters(trees)
    methods = _methods(declared)
    scopes = {mod: _scope(tree, mod, modules) for mod, tree in trees.items()}
    files = list(trees.items())
    files += [(None, _parse(path)) for path in BENCH.glob("*.py")]
    values = {}
    for mod, tree in files:
        scope = scopes[mod] if mod else _scope(tree, None, modules)
        defined = {callee for m, callee in declared if m == mod}
        for keys, call, _ in _calls(tree, mod, modules, defined, methods):
            for key in keys:
                for name, position, default in declared.get(key, ()):
                    arg = _argument(call, name, position)
                    # an unpassed default is read in its own module
                    value = (_constant(default, scopes[key[0]])
                             if arg is False and default
                             else arg and _constant(arg, scope))
                    values.setdefault((*key, name), set()).add(value)
    single = {key: value for key, (value,) in
              ((k, v) for k, v in values.items() if len(v) == 1) if value}
    unlisted = sorted(f"{'.'.join(key[:2])}({key[2]}={value})"
                      for key, value in single.items()
                      if key not in ONE_VALUE.keys() | UNPASSED.keys())
    assert unlisted == [], (
        "parameters every package and benchmark call passes the same "
        "constant; move the value into the body or list the parameter in "
        f"ONE_VALUE: {unlisted}")
    for entry, reason in ONE_VALUE.items():
        assert entry in single and reason.strip(), entry


def _constants(tree):
    """The names a module binds by a module-level assignment, dunders
    aside."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        out |= {t.id for t in targets
                if isinstance(t, ast.Name) and not t.id.startswith("__")}
    return out


def test_every_module_constant_is_read():
    trees = {path.stem: _parse(path) for path in SRC.glob("*.py")}
    modules = set(trees)
    read = set()
    for mod, tree in trees.items():
        read |= _module_refs(tree, modules)
        read |= {(mod, n.id) for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for path in BENCH.glob("*.py"):
        tree = _parse(path)
        read |= _module_refs(tree, modules) | _string_pairs(tree, modules)
    unread = [f"{mod}.{name}" for mod, tree in sorted(trees.items())
              for name in sorted(_constants(tree)) if (mod, name) not in read]
    assert unread == [], f"module-level constants nothing reads: {unread}"
