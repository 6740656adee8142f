"""Source checks that need no linter: the package holds no `assert`
(`python -O` strips it, so a check written as one silently vanishes), no
module-level import that its module never uses and no import inside a
function, no function, class, method or module-level constant that only
tests refer to, no parameter that its function never reads, and one home
for the budget and prime-pool limits."""

import ast
import re
from pathlib import Path

import genvar

SOURCES = sorted(Path(genvar.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# where a reference keeps a helper alive: the package (but not the import and
# __all__ lines of __init__.py), the benchmark and the README; a test alone does not
REFERRERS = SOURCES + sorted((ROOT / "benchmark").rglob("*.py")) + [ROOT / "README.md"]


def _source(path):
    """(lines, syntax tree) of one source file."""
    text = path.read_text(encoding="utf-8")
    return text.splitlines(), ast.parse(text, filename=str(path))


def test_sources_are_found():
    assert {"__init__.py", "linalg.py", "repfq.py"} <= {p.name for p in SOURCES}


def test_no_assert_statement():
    found = ["%s:%d" % (p.name, node.lineno) for p in SOURCES
             for node in ast.walk(_source(p)[1]) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_module_level_import():
    # exempt: the re-exports in genvar.__all__ and imports on a noqa: F401 line
    found = []
    for path in SOURCES:
        exported = set(genvar.__all__) if path.name == "__init__.py" else set()
        lines, tree = _source(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(stmt, "module", None) == "__future__" or any(
                    "# noqa: F401" in line for line in lines[stmt.lineno - 1:stmt.end_lineno]):
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used and name not in exported:
                    found.append("%s:%d %s" % (path.name, stmt.lineno, name))
    assert found == []


def test_no_import_inside_a_function():
    # every dependency between modules shows at the top of its module
    found = ["%s:%d" % (p.name, node.lineno) for p in SOURCES
             for func in ast.walk(_source(p)[1])
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def _definitions():
    """(file, line span, name, pattern) for every module-level function and
    class of the package, which must be named as a word, and every method
    of such a class other than a dunder, which must be named as `.name`."""
    for path in SOURCES:
        for node in _source(path)[1].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield path, node, node.name, r"\b%s\b" % node.name
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                            meth.name.startswith("__") and meth.name.endswith("__")):
                        yield path, meth, "%s.%s" % (node.name, meth.name), r"\.%s\b" % meth.name


def _referrer_lines(path):
    """The lines of one referrer, with the re-export lines of __init__.py blanked."""
    if path != Path(genvar.__file__):
        return path.read_text(encoding="utf-8").splitlines()
    lines, tree = _source(path)
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
                isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)):
            lines[stmt.lineno - 1:stmt.end_lineno] = [""] * (stmt.end_lineno - stmt.lineno + 1)
    return lines


def _named_elsewhere(texts, path, node, pattern):
    """Whether `pattern` matches a referrer line outside the lines of `node` in `path`."""
    rx = re.compile(pattern)
    own = range(node.lineno - 1, node.end_lineno)
    return any(rx.search(line) for ref, lines in texts.items()
               for i, line in enumerate(lines) if not (ref == path and i in own))


def test_every_helper_is_referenced_outside_its_own_definition():
    texts = {path: _referrer_lines(path) for path in REFERRERS}
    found = ["%s:%d %s" % (path.name, node.lineno, name)
             for path, node, name, pattern in _definitions()
             if not _named_elsewhere(texts, path, node, pattern)]
    assert found == []


def test_every_module_constant_is_referenced_outside_its_own_line():
    # dunders (__all__, __version__) are read by the import system and tools
    texts = {path: _referrer_lines(path) for path in REFERRERS}
    found = []
    for path in SOURCES:
        for stmt in _source(path)[1].body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for name in (t.id for t in targets if isinstance(t, ast.Name)):
                if not (name.startswith("__") and name.endswith("__")) and not _named_elsewhere(
                        texts, path, stmt, r"\b%s\b" % name):
                    found.append("%s:%d %s" % (path.name, stmt.lineno, name))
    assert found == []


LIMITS = {"DEFAULT_BUDGET", "DEFAULT_PRIMES", "_check_limits", "_check_pool", "is_prime"}


def test_the_limits_live_in_errors_and_only_ccmap_reaches_the_counting_stack():
    # the budget and prime-pool limits are read without importing repfq
    importers, homes = set(), {name: [] for name in LIMITS}
    for path in SOURCES:
        tree = _source(path)[1]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and (
                    node.module == "repfq" or node.module is None
                    and any(alias.name == "repfq" for alias in node.names)):
                importers.add(path.stem)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in LIMITS.intersection(names):
                homes[name].append(path.name)
    assert importers == {"__init__", "ccmap"}
    assert homes == {name: ["errors.py"] for name in LIMITS}


# Functions with parameters that no body reads: (those parameters, why they stay).
UNREAD_PARAMETERS = {
    "candecomp.generic_ext_vanishes_cluster": (
        ("seed",), "benchmark/workloads.py passes it as the fourth positional argument"),
    "kronecker.build_basis": (("seed",), "benchmark/workloads.py passes it by name"),
    "laurent.LaurentPoly.__setattr__": (
        ("self", "name", "value"), "a protocol signature: every assignment raises"),
}


def _functions(tree, prefix):
    """(dotted name, node) of every function in `tree`, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + "." + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _functions(node, name)
        else:
            yield from _functions(node, prefix)


def test_every_parameter_is_read():
    # a parameter nothing reads is an option that cannot change any answer
    found = {}
    for path in SOURCES:
        for name, node in _functions(_source(path)[1], path.stem):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread = tuple(p for p in params if p not in read)
            if unread:
                found[name] = unread
    assert found == {name: params for name, (params, _why) in UNREAD_PARAMETERS.items()}
