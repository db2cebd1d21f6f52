"""The package namespace, imports that no module uses or that hide in a
function, and private and public names that nothing uses.

No linter ships with the project, so every check is a plain ``ast`` walk.
"""
import ast
import builtins
import pathlib
import re

import trajprior

PACKAGE = pathlib.Path(trajprior.__file__).resolve().parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def parse(name):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def imported(tree):
    """Name -> line of each module-level import, ``__future__`` left out."""
    return {(alias.asname or alias.name).split(".")[0]: node.lineno
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names}


def test_package_binds_only_version():
    """``__init__`` holds a docstring and ``__version__`` and imports nothing,
    so each public name has one path, its module's, and importing one module
    loads only what that module needs."""
    tree = parse("__init__.py")
    assert ast.get_docstring(tree)
    assert imported(tree) == {}
    statements = tree.body[1:]
    assert [type(node) for node in statements] == [ast.Assign]
    assert [target.id for target in statements[0].targets] == ["__version__"]


def test_no_unused_module_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path.name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported(tree).items() if name not in used]
    assert not unused, f"imported but never referenced: {unused}"


def private_bindings(tree):
    """Name -> line of each module-level private function, class or assigned
    name; dunders such as ``__all__`` left out."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in found.items()
            if name.startswith("_") and not name.startswith("__")}


def test_no_unreferenced_private_names():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path.name)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in private_bindings(tree).items()
                   if name not in loaded]
    assert not unused, f"private but never referenced in its module: {unused}"


def test_no_import_inside_a_function():
    """Every module names what it imports at its top, so an import cycle
    cannot hide in a function body."""
    nested = [f"{path.name}:{node.lineno} {func.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for func in ast.walk(parse(path.name))
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside a function: {nested}"


def names_used(tree, strings):
    """Every name a module loads or reads as an attribute, and with
    ``strings`` every word of its string constants."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"\w+", node.value))
    return used


def test_every_public_definition_has_a_caller():
    """A public module-level function or class is used by package code or
    named by the benchmark (``perfbench/*.py``, whose tracer names what it
    wraps in strings); anything else is dead code."""
    trees = {path.name: parse(path.name) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(names_used(tree, False) for tree in trees.values()))
    for path in sorted(BENCH.glob("*.py")):
        used |= names_used(ast.parse(path.read_text(encoding="utf-8")), True)
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert not unused, f"public but unused by the package and the benchmark: {unused}"


def test_no_package_function_as_a_default():
    """A default argument is evaluated once, when its module is imported, so
    a default ``parse=ingest.parse_trajectories`` keeps the function that was
    there then and never sees a wrapper installed on the module later (as
    the benchmark's tracer does). A function reaches another module's
    function at call time instead."""
    trees = {path.stem: parse(path.name) for path in sorted(PACKAGE.glob("*.py"))}
    functions = {name: {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
                 for name, tree in trees.items()}
    bound = [f"{name}.py:{func.lineno} {func.name}"
             for name, tree in trees.items()
             for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for default in func.args.defaults + func.args.kw_defaults
             if isinstance(default, ast.Attribute) and isinstance(default.value, ast.Name)
             and default.attr in functions.get(default.value.id, ())]
    assert not bound, f"package functions bound as defaults at import: {bound}"


def is_exception(name, known):
    """Whether a class named ``name`` is an exception: a builtin one, one
    named like one (``csv.Error``, ``orjson.JSONDecodeError``), or ``known``."""
    builtin = getattr(builtins, name, None)
    return (name in known or name.endswith(("Error", "Exception", "Warning"))
            or isinstance(builtin, type) and issubclass(builtin, BaseException))


def test_one_bad_input_error():
    """Bad input raises ``core.ContractError`` and a bad command line
    ``cli._UsageError``; ``cli.main`` maps them and ``OSError`` to exit 2,
    and any other exception is a defect. A second error type for bad input
    would need a mapping of its own, or end in a traceback."""
    classes = [(path.stem, node) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(parse(path.name)) if isinstance(node, ast.ClassDef)]
    errors = set()  # (module, class), grown until no class derives from a new member
    while True:
        names = {name for _, name in errors}
        found = {(module, node.name) for module, node in classes
                 if any(is_exception(ast.unparse(base).split(".")[-1], names)
                        for base in node.bases)}
        if found == errors:
            break
        errors = found
    assert errors == {("core", "ContractError"), ("cli", "_UsageError")}



# the json module's own codecs, which core's strict ones replace
JSON_CODECS = {"dump", "dumps", "load", "loads", "JSONEncoder", "JSONDecoder"}


def json_codecs_named(tree):
    """(line, name) of each of the json module's codecs a module names, and
    of each import or use of orjson, which only core may name."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "json" and node.attr in JSON_CODECS):
            yield node.lineno, f"json.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            yield from ((node.lineno, f"json.{a.name}") for a in node.names
                        if a.name in JSON_CODECS)
        elif isinstance(node, ast.Name) and node.id == "orjson":
            yield node.lineno, "orjson"
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "orjson" in (
                [getattr(node, "module", None)] + [a.name.split(".")[0] for a in node.names]):
            yield node.lineno, "import orjson"


def test_json_only_through_the_core_codec():
    """Every JSON file is read by ``core.decode_json`` and written by
    ``core.encode_json``, which refuse ``NaN`` and the infinities and write
    sorted, compact keys. A module that calls ``json.dumps`` or
    ``json.loads``, or builds its own ``JSONEncoder`` or ``JSONDecoder``,
    has rules of its own, and ``json.loads`` reads ``NaN``; so has one that
    calls orjson, which writes ``NaN`` as ``null``."""
    spelled = [f"{path.name}:{line} {name}"
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"
               for line, name in json_codecs_named(parse(path.name))]
    assert not spelled, f"JSON read or written around core's codec: {spelled}"


# The functions that build a TrajectorySet from records: the readers, the
# synthetic scene and the token writer of cluster and sample.
SET_BUILDERS = {("ingest", "_polylines"), ("ingest", "_parse_jsonl"), ("ingest", "_parse_csv"),
                ("ingest", "synth_scene"), ("cli", "_write_report")}


def test_sets_from_records_only_where_records_are_read():
    """A set taken from another set goes through ``take`` or
    ``dataclasses.replace``, one gather and one check; ``TrajectorySet.of``
    would turn its polylines back into records and read each one again."""
    builders = {(path.stem, getattr(top, "name", "<module>"))
                for path in sorted(PACKAGE.glob("*.py"))
                for top in parse(path.name).body
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "of"
                and ast.unparse(node.value).split(".")[-1] == "TrajectorySet"}
    assert builders <= SET_BUILDERS, f"sets built from records: {builders - SET_BUILDERS}"
