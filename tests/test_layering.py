"""Module layering: the metamodel depends on nothing but diagnostics, the
validator (static events and chronology checks included) and the renderer
on nothing but the metamodel and diagnostics, and the text, transform and
render layers never reach into the simulator. ``LAYERS`` pins the one-way order for
every module below the command line."""

from __future__ import annotations

import ast
from pathlib import Path

import tmkit

SOURCES = Path(tmkit.__file__).parent

# The tmkit modules each module may import. Only the entry points, the
# package itself and ``cli``, stand above the table and import freely.
LAYERS = {
    "diagnostics": set(),
    "model": {"diagnostics"},
    "dsl": {"model", "diagnostics"},
    "validator": {"model", "diagnostics"},
    "transform": {"model"},
    "dynamics": {"model", "diagnostics", "validator"},
    "render": {"model", "diagnostics"},
}
ENTRY_POINTS = {"__init__", "cli"}


def tmkit_imports(module: str) -> set[str]:
    """The tmkit modules that ``tmkit/<module>.py`` imports, by short name."""
    tree = ast.parse((SOURCES / f"{module}.py").read_text(encoding="utf-8"))
    modules: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: inside the tmkit package
                base = f"tmkit.{base}" if base else "tmkit"
            modules += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in modules if name.startswith("tmkit.")}


def test_model_imports_only_diagnostics():
    assert tmkit_imports("model") == {"diagnostics"}


def test_validator_imports_only_model_and_diagnostics():
    assert tmkit_imports("validator") <= {"model", "diagnostics"}


def test_render_imports_only_model_and_diagnostics():
    assert LAYERS["render"] == tmkit_imports("render") == {"model", "diagnostics"}


def test_text_transform_and_render_do_not_import_the_simulator():
    for module in ("dsl", "transform", "render"):
        assert "dynamics" not in tmkit_imports(module), module


def test_every_module_imports_only_from_the_layers_below_it():
    assert {p.stem for p in SOURCES.glob("*.py")} == set(LAYERS) | ENTRY_POINTS
    for module, allowed in LAYERS.items():
        assert tmkit_imports(module) <= allowed, module
