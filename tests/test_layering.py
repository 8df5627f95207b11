"""The package's import layering, read from the source with ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mixbounds"
#: the modules below ``bounds`` and ``cli``, which import neither
LOWER = {"chains", "errors", "mixing", "spectral", "flows"}


def _imported(path: Path):
    """(module, name) for each name a module imports from its own package;
    ``from . import m`` gives (m, None)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("mixbounds")):
            source = (node.module or "").removeprefix("mixbounds").lstrip(".")
            for alias in node.names:
                yield (source, alias.name) if source else (alias.name, None)


def test_the_import_layering():
    """No module but ``bounds`` reads a private name of ``bounds``, and the
    lower modules import nothing from ``bounds`` or ``cli``."""
    modules = {path.stem: list(_imported(path)) for path in SRC.glob("*.py")}
    assert LOWER <= set(modules)
    private = [(m, name) for m, pairs in modules.items() if m != "bounds"
               for source, name in pairs if source == "bounds" and name and name.startswith("_")]
    upward = [(m, source) for m in LOWER for source, _ in modules[m] if source in ("bounds", "cli")]
    assert not private, f"private names of bounds imported elsewhere: {private}"
    assert not upward, f"lower modules importing bounds or cli: {upward}"


def test_only_mixing_names_a_walk_or_its_rungs():
    """A walk's rungs are ``mixing``'s own: no other module imports or names
    ``_Walk``, or reads an attribute named ``rungs``."""
    named = []
    for path in SRC.glob("*.py"):
        if path.stem == "mixing":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.name if isinstance(node, ast.alias) else node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name == "_Walk" or name == "rungs" and isinstance(node, ast.Attribute):
                named.append((path.stem, name))
    assert not named, f"a walk's internals named outside mixing: {named}"


def test_only_errors_parses_floats():
    """Outside arrays are parsed in ``errors``: no other module calls
    ``_floats``; a vector goes through ``_vector``, a matrix ``_square``."""
    calls = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if isinstance(node, ast.Call) and name == "_floats" and path.stem != "errors":
                calls.add(path.stem)
    assert not calls, f"_floats called outside errors: {sorted(calls)}"


def test_serialize_leaves_parsing_to_the_library_constructors():
    """A file's contents are parsed by the constructor of what it holds,
    ``build_chain`` or ``Flow``, so ``serialize`` calls none of ``errors``'
    parsers."""
    parsers = {"_real", "_count", "_floats", "_square", "_vector"}
    called = set()
    for node in ast.walk(ast.parse((SRC / "serialize.py").read_text(encoding="utf-8"))):
        func = getattr(node, "func", None)
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if isinstance(node, ast.Call) and name in parsers:
            called.add(name)
    assert not called, f"serialize calls parsers of errors: {sorted(called)}"


def test_every_imported_name_is_read():
    """No module imports a name it never reads; ``__init__`` reads what its
    ``__all__`` lists, and a ``__future__`` import binds nothing."""
    unread = []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                imported |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        unread += [(path.stem, name) for name in sorted(imported - read)]
    assert not unread, f"imported but never read: {unread}"


def test_only_routed_checks_a_flow_against_a_calls_chains():
    """``bounds._routed`` is the one check of a flow against a call's chains:
    only it raises WrongFlowBase, and ``bounds`` leaves the chain-pair check
    to the flow's own walk."""
    raisers = set()
    for path in SRC.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if getattr(exc, "id", None) == "WrongFlowBase":
                        raisers.add((path.stem, func.name))
    assert raisers == {("bounds", "_routed")}, sorted(raisers)
    assert ("chains", "_check_pair") not in set(_imported(SRC / "bounds.py"))


def test_only_routed_reads_a_flows_chains():
    """In ``bounds`` only ``_routed`` reads a flow's ``.base`` or ``.target``,
    so it alone decides whether a flow is routed over the base (``direct``)."""
    readers = set()
    for func in ast.walk(ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr in ("base", "target"):
                owner = node.value.attr if isinstance(node.value, ast.Attribute) else getattr(node.value, "id", None)
                if owner == "flow":
                    readers.add(func.name)
    assert readers == {"_routed"}, sorted(readers)


def _where(matches) -> set[tuple[str, str]]:
    """(module, innermost enclosing function, or "<module>") of each node in
    ``src/`` that ``matches``."""
    found = set()

    def visit(node, module: str, where: str):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if matches(node):
            found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return found


def _callers(name: str) -> set[tuple[str, str]]:
    """Where ``src/`` calls ``name``, by plain name or as an attribute (``Flow._of``)."""
    return _where(lambda node: isinstance(node, ast.Call) and name == (
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)))


def test_only_chains_builds_a_product():
    """``chains`` alone calls ``multiply``: the reversal product a flow is
    routed over and the one a report compares it with come from one
    function, ``chains._reversal_product``."""
    assert {module for module, _ in _callers("multiply")} == {"chains"}
    assert {module for module, _ in _callers("_reversal_product")} == {"bounds", "cli"}


def test_a_walk_is_entered_only_by_walk_time():
    """Each clock gives its cap and whether time 0 counts as data; no clock
    defines a ``time`` of its own beside ``_Walk.time``."""
    tree = ast.parse((SRC / "mixing.py").read_text(encoding="utf-8"))
    clocks = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for name in ("_Powers", "_Ladder"):
        defined = {node.name for node in clocks[name].body if isinstance(node, ast.FunctionDef)}
        assert "time" not in defined, name
    assert any(node.name == "time" for node in clocks["_Walk"].body if isinstance(node, ast.FunctionDef))


def test_a_report_makes_its_walks_only_through_its_two_clocks():
    """In ``bounds`` only ``_Derived.discrete`` and ``_Derived.continuous``
    name ``_Powers`` or ``_Ladder``, so every walk a report makes goes
    through ``_Derived._time`` and its one walk at a time."""
    found = _where(lambda node: isinstance(node, ast.Name) and node.id in ("_Powers", "_Ladder"))
    assert {where for module, where in found if module == "bounds"} == {"discrete", "continuous"}


def test_only_the_flow_makers_call_the_array_constructor():
    """``Flow._of`` takes laid-out arrays from the code that builds them as
    arrays, ``Flow.__init__`` (a caller's paths, parsed), the canonical
    router, loop erasure and the spreader; every other flow is laid out by
    ``Flow``."""
    assert _callers("_of") == {("flows", "__init__"), ("flows", "build_canonical_flow"), ("flows", "_simplify"),
                              ("flows", "spread_flow")}


def test_only_kept_reads_or_writes_a_chains_store():
    """A chain keeps its constants in one private store, which
    ``Chain.__init__`` makes empty and ``chains._kept`` alone reads and
    writes: no other code names the attribute ``_constants``."""
    found = _where(lambda node: isinstance(node, ast.Attribute) and node.attr == "_constants")
    assert found == {("chains", "__init__"), ("chains", "_kept")}, sorted(found)


def test_only_matrix_exponential_imports_scipy():
    """Importing the package, loading a chain and routing a canonical flow
    need numpy alone: no module imports scipy at module level, and only
    ``matrix_exponential`` imports it, inside itself."""
    def imports_scipy(node) -> bool:
        names = ([node.module or ""] if isinstance(node, ast.ImportFrom) else
                 [alias.name for alias in node.names] if isinstance(node, ast.Import) else [])
        return any(name.partition(".")[0] == "scipy" for name in names)

    found = _where(imports_scipy)
    assert found == {("mixing", "matrix_exponential")}, sorted(found)
