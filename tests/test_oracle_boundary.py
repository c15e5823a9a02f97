"""Production modules reach into ``eag.orbits`` only for production engines.

``eag.orbits`` also holds the test oracles (the subspace and kernel BFS
counts, the canonical-form counts, their caps and ``batch_rref``).  Every
other module of the package may use only the names below, so an oracle
cannot become a production path unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eag"

PRODUCTION_NAMES = {
    "orbit_components",
    "_subspace_blocks",
    "check_pure_caps",
    "count_pure_orbits_burnside",
    "witt_kernel_orbit_count",
}


def _orbits_names(tree):
    """(line, name) for each ``orbits.<name>`` and ``from .orbits import <name>``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "orbits"):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module in ("orbits", "eag.orbits"):
            for alias in node.names:
                yield node.lineno, alias.name


def test_production_modules_use_no_orbit_oracle():
    found = [f"{path.name}:{line} orbits.{name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "orbits.py"
             for line, name in _orbits_names(ast.parse(path.read_text(encoding="utf-8")))
             if name not in PRODUCTION_NAMES]
    assert found == []


def test_the_walk_sees_both_spellings():
    tree = ast.parse("from .orbits import count_kernel_orbits_bfs\n"
                     "from . import orbits\n"
                     "orbits.batch_rref(m, p)\n")
    assert sorted(name for _, name in _orbits_names(tree)) == [
        "batch_rref", "count_kernel_orbits_bfs"]
