import ast
import os
import subprocess
import sys
from pathlib import Path

import sigdrift

PACKAGE = Path(sigdrift.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return [name for name in bound if name not in used]


def test_modules_use_every_name_they_import():
    unused = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" and (names := _unused_imports(path))}
    assert unused == {}


def _imported_module(node: ast.ImportFrom, in_package: bool) -> str | None:
    """The sigdrift module a ``from ... import`` reads: ``.mod`` inside the
    package or ``sigdrift.mod`` anywhere; ``""`` for the package itself."""
    if node.level:
        return (node.module or "") if in_package and node.level == 1 else None
    if node.module == "sigdrift":
        return ""
    if node.module and node.module.startswith("sigdrift."):
        return node.module.removeprefix("sigdrift.")
    return None


def _references(path: Path, modules: set[str]) -> set[tuple[str, str]]:
    """(module, name) pairs `path` refers to: ``from .mod import name``,
    ``from sigdrift.mod import name``, and ``alias.name`` or
    ``sigdrift.mod.name`` where an import binds ``alias`` to the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    in_package = path.parent == PACKAGE
    aliases: dict[str, set[str]] = {}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _imported_module(node, in_package)
            for a in node.names:
                if module == "" and a.name in modules:
                    aliases.setdefault(a.asname or a.name, set()).add(a.name)
                elif module in modules:
                    refs.add((module, a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                package, _, module = a.name.partition(".")
                if package == "sigdrift" and a.asname and module in modules:
                    aliases.setdefault(a.asname, set()).add(module)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Name):
            refs |= {(module, node.attr) for module in aliases.get(value.id, ())}
        elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
              and value.value.id == "sigdrift" and value.attr in modules):
            refs.add((value.attr, node.attr))
    return refs


def _definitions() -> list[tuple[str, str, set[str]]]:
    """(module, name, names its module uses) for each module-level
    function or class of the package."""
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        defs += [(path.stem, node.name, used) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return defs


def _all_references(paths) -> set[tuple[str, str]]:
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    return set().union(*(_references(path, modules) for path in paths))


def test_every_module_level_definition_is_referenced():
    """A function or class no module, test or benchmark refers to is dead.
    A reference is a use in its own module, an import of it from its
    module, or an attribute access on its module."""
    refs = _all_references([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                            *(ROOT / "perfbench").glob("*.py")])
    dead = [f"{module}.{name}" for module, name, used in _definitions()
            if name not in used and (module, name) not in refs]
    assert dead == []


#: Library definitions that only tests refer to, each with the reason it
#: stays.  Anything else that only tests use is dead code kept alive by
#: its own tests.  Re-exports in ``__init__`` do not count as uses.
TEST_ONLY = {
    ("noisegen", "learn_noise_profile"): "reference implementation of profile learning",
    ("noisegen", "write_spec"): "format writer that tests build noise-spec files with",
    ("cpd", "write_flags"): "format writer that tests build anomaly-flag files with",
    ("signature", "write_experiences"): "format writer that tests build cohort files with",
    ("cpd", "is_anomalous"): "the anomaly rule whose flags `events` reads",
}


def test_only_tests_use_what_is_listed_as_test_only():
    library = _all_references([*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                               *(ROOT / "perfbench").glob("*.py")])
    tests = _all_references((ROOT / "tests").glob("*.py"))
    test_only = {(module, name) for module, name, used in _definitions()
                 if name not in used and (module, name) not in library
                 and (module, name) in tests}
    assert test_only == set(TEST_ONLY)


def _members() -> set[tuple[str, str]]:
    """(class, name) for each method, property and classmethod of a
    module-level class of the package; dunder methods are left out."""
    members = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                members |= {(node.name, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))}
    return members


def _attributes_read(paths) -> set[str]:
    """Every name read as an attribute (``x.name``) in `paths`."""
    return {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}


#: Class members that only tests read, each with the reason it stays.
TEST_ONLY_MEMBERS: dict[tuple[str, str], str] = {}


def test_every_class_member_is_read_by_the_program_or_listed():
    """A member is in use when its name is read as an attribute in the
    package or the benchmark (by name: the receiver's type is not known,
    so a name any class shares counts for all of them).  The rest must be
    listed, with the reason that tests alone keep them."""
    read = _attributes_read([*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    assert {member for member in _members() if member[1] not in read} == set(TEST_ONLY_MEMBERS)


def test_json_files_are_read_and_written_only_through_core():
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ((isinstance(node, ast.Import) and any(a.name == "json" for a in node.names))
                    or (isinstance(node, ast.ImportFrom) and node.module == "json")):
                importers.add(path.stem)
    assert importers == {"core"}


def test_cli_import_leaves_out_the_process_pool():
    """``run_experiment`` imports the pool only when ``--jobs`` asks for it,
    and memory tracing is for tests and the benchmark: neither may slow
    every command's start."""
    code = ("import sys, sigdrift.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'tracemalloc') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_config_imports_no_package_module_but_errors():
    """The settings classes live in a leaf module: every other module may
    import them, and importing them pulls in nothing of the program."""
    tree = ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))
    imported = {_imported_module(node, in_package=True) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {a.name.removeprefix("sigdrift.") for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for a in node.names
                 if a.name.partition(".")[0] == "sigdrift"}
    assert imported - {None} == {"errors"}


def test_package_exports_exactly_what_it_imports():
    """``__all__`` lists each name ``__init__`` imports, plus ``__version__``,
    so that a removed export cannot linger in one of the two lists."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names]
    assert len(sigdrift.__all__) == len(set(sigdrift.__all__))
    assert set(sigdrift.__all__) == {*imported, "__version__"}
