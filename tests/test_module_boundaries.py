"""No module of the package reads another package module's private names.

A leading underscore marks a name as its module's own business.  The two
exceptions below stay private on purpose: perfbench traces every public
function of a package module, so making either public would put a traced
span inside a hot loop.
"""

import ast
from pathlib import Path

import chromafl

PACKAGE = Path(chromafl.__file__).parent

# (reading module, name as read): why it stays private
ALLOWED = {
    ("harness", "F._child_seed"): "public, it would be a traced span inside every round",
    ("models", "T._block_edges"): "public, it would be a traced span inside every forward block",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(path: Path) -> set[str]:
    """Private names ``path`` reads from other package modules, as ``alias.name``
    for module attributes and ``module.name`` for ``from``-imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = set()
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                "chromafl")):
            module = (node.module or "").removeprefix("chromafl").lstrip(".")
            for a in node.names:
                if not module:  # ``from . import models as M``
                    aliases.add(a.asname or a.name)
                elif _private(a.name):
                    reads.add(f"{module}.{a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            reads.add(f"{node.value.id}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    found = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in _private_reads(path)}
    assert found - set(ALLOWED) == set()
    # an exception no module needs any more goes from the list
    assert set(ALLOWED) <= found


def test_the_private_read_finder_sees_both_forms(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import saliency as S\nfrom .color import _clamped01\n"
                    "x = S._weighted_cam\ny = S.ssim\nz = S.__name__\n")
    assert _private_reads(path) == {"S._weighted_cam", "color._clamped01"}
