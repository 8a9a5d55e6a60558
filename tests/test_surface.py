"""The public surface carries the paper's numbers and nothing else.

Every name in ``qprob.__all__`` must be read somewhere in ``src/qprob``
outside ``__init__.py`` and outside its own definition: a name that no other
function, CLI command or ``verify`` row reads goes, with its export and its
tests, unless a caller outside the package is named for it below.  Names are
matched in the syntax tree, as ``Name`` and ``Attribute`` nodes, so that
``pdf`` is not taken for ``pdf_normalization``.
"""

import ast
import re
from pathlib import Path

import qprob

SRC = Path(qprob.__file__).parent

#: Exported names that nothing in the package reads yet, each with its caller.
NO_CALLER_YET = {
    "composite_in_eigenbasis": "the perfbench library workload",
    "standard_union_probability": "the perfbench library workload",
    "partial_trace": "ROADMAP item 13, entanglement_production",
    "prospect_operator": "ROADMAP item 15, general prospects",
}


def _defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _read_names() -> set[str]:
    """Names read by a module of the package other than ``__init__.py``,
    each outside the top-level statement that defines it."""
    read = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = _defined_names(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    read.add(name)
    return read


def test_every_export_has_a_caller():
    uncalled = set(qprob.__all__) - _read_names() - NO_CALLER_YET.keys()
    assert sorted(uncalled) == []


def test_every_allowed_exception_is_exported_and_still_uncalled():
    stale = {name for name in NO_CALLER_YET if name not in qprob.__all__ or name in _read_names()}
    assert sorted(stale) == []


def test_every_environment_variable_is_documented():
    # README's "Environment:" paragraph names every QPROB_* variable the package reads, and no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = next(block for block in readme.split("\n\n") if block.startswith("Environment:"))
    in_source = {name for path in SRC.glob("*.py") for name in re.findall(r"QPROB_[A-Z_]+", path.read_text())}
    assert in_source == set(re.findall(r"QPROB_[A-Z_]+", paragraph))
