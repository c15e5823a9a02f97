"""What production reaches, and what it may not.

``eag.orbits`` also holds the test oracles (the subspace and kernel BFS
counts, the canonical-form counts, their caps and ``batch_rref``).  Every
other module of the package may use only the names below, so an oracle
cannot become a production path unnoticed.

A walk by name over the module-level definitions of ``src/eag``, from
``cli.main``, finds every definition the CLI can reach.  What it does not
reach must be reached from ``KEPT``: the oracles, the Sp(2 rho, p)
closure they use, and the paper's API that the acceptance criteria call.
A definition that only tests call fails the walk.
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

#: definitions that no CLI path reaches, kept on purpose
KEPT = {
    # the orbit oracles, which cross-check e and h in the tests and the benchmark
    "orbits.batch_rref",
    "orbits.check_unramified_caps",
    "orbits.count_kernel_orbits_bfs",
    "orbits.count_kernel_orbits_canonical",
    "orbits.count_pure_orbits_bfs",
    "orbits.count_pure_orbits_canonical",
    "orbits.kernel_canonical_feasible",
    "orbits.pure_canonical_feasible",
    # Sp(2 rho, p) and the matrix closure, for the kernel oracles
    "fp.group_closure",
    "fp.sp_generators",
    "fp.sp_group",
    "fp.standard_symplectic_form",
    # the benchmark's reference answers filter specs by it
    "surfaces.genus_is_admissible",
    # the paper's content, which the acceptance criteria call
    "genvec.build_inequivalent_pair",
    "genvec.multiset_character",
    "grouptable.TableVector",
    "grouptable.braid_move",
    "grouptable.validate_table_vector",
    "hyperfermat.moduli_equivalent",
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


def _definitions(sources):
    """{"module.name": the "module.name"s it names} for every module-level definition.

    ``sources`` maps module names to their source.  A definition is a
    function, a class (with all its methods) or an assignment to a name;
    it names what a bare name, ``from .module import name`` or
    ``module.name`` after ``from . import module`` refers to.
    """
    refs = {}
    for module, text in sources.items():
        tree = ast.parse(text)
        modules, imported, defs = {}, {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        defs[target.id] = node
        for name, node in defs.items():
            named = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in defs:
                    named.add(f"{module}.{sub.id}")
                elif isinstance(sub, ast.Name) and sub.id in imported:
                    named.add(imported[sub.id])
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and sub.value.id in modules):
                    named.add(f"{modules[sub.value.id]}.{sub.attr}")
            refs[f"{module}.{name}"] = named
    return refs


def _unreached(refs, roots):
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in refs and name not in seen:
            seen.add(name)
            todo.extend(refs[name])
    return set(refs) - seen


def test_every_definition_is_reached_from_the_cli_or_kept():
    refs = _definitions({path.stem: path.read_text(encoding="utf-8")
                         for path in sorted(SRC.glob("*.py"))})
    assert "cli.main" in refs
    # every kept name exists, and no CLI path reaches it
    assert sorted(KEPT - _unreached(refs, ["cli.main"])) == []
    assert sorted(_unreached(refs, ["cli.main", *KEPT])) == []


def test_the_reachability_walk_flags_a_definition_only_tests_call():
    refs = _definitions({
        "cli": "from . import fp\nfrom .errors import Cap\n"
               "def main():\n    return fp.rref(Cap)\n",
        "errors": "class Cap(Exception):\n    pass\n",
        "fp": "CAP = 10\n"
              "def rref():\n    return _reduce(CAP)\n"
              "def _reduce(cap):\n    return cap\n"
              "def only_tests():\n    return rref()\n",
    })
    assert _unreached(refs, ["cli.main"]) == {"fp.only_tests"}
