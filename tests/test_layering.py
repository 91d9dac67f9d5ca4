"""The runtime executes ops and tables; it never imports the compiler.

``repro.mblut`` is a compiler pass plus client encoding.  Every module
under ``repro.runtime`` and ``repro.tfhe`` is parsed (not imported), and
any import of ``repro.mblut`` — absolute, relative, or deferred inside a
function — fails this test.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
FORBIDDEN = "repro.mblut"
LAYERS = ("repro/runtime", "repro/tfhe")


def imported_names(path: Path, root: Path = SRC):
    """``(line, dotted name)`` of every module or name ``path`` imports."""
    package = list(path.relative_to(root).with_suffix("").parts[:-1])
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            parts = [node.module] if node.module else []
            if node.level:
                parts = package[: len(package) - node.level + 1] + parts
            base = ".".join(parts)
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_does_not_import_mblut(layer):
    modules = sorted((SRC / layer).rglob("*.py"))
    assert modules
    offenders = [
        f"{path.relative_to(SRC)}:{line} imports {name}"
        for path in modules
        for line, name in imported_names(path)
        if name == FORBIDDEN or name.startswith(FORBIDDEN + ".")
    ]
    assert offenders == []


def test_relative_imports_resolve(tmp_path):
    """The resolver sees what the executor used to import."""
    module = tmp_path / "repro" / "runtime" / "executors.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "from ..mblut.kernels import split_level\n"
        "def late():\n"
        "    from .. import mblut\n"
    )
    names = {name for _, name in imported_names(module, tmp_path)}
    assert "repro.mblut.kernels" in names
    assert "repro.mblut" in names
