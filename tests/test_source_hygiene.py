"""Source checks that need no linter: the package holds no `assert`
(`python -O` strips it, so a check written as one silently vanishes) and
no module-level import that its module never uses."""

import ast
from pathlib import Path

import genvar

SOURCES = sorted(Path(genvar.__file__).parent.glob("*.py"))


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
