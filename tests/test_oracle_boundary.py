"""What production reaches, and what it may not.

``eag.orbits`` is the numpy batch engine, and it also holds the test oracles
(the subspace and kernel BFS counts, the canonical-form counts and
``batch_rref``).  Every other module of the package may use only its batch
helpers, the names below, so an oracle cannot become a production path
unnoticed.  The closed-form counts and the oracles' boxes live in
``eag.genvec``, which does not import ``eag.orbits``.

A walk by name over the definitions of ``src/eag``, module-level ones and
methods alike, from ``cli.main``, finds every definition the CLI can
reach, imports in function bodies included.  What it does not reach must
be reached from ``KEPT``: the oracles, the Sp(2 rho, p) closure they use,
the smoothness sampler, and the paper's API that the acceptance criteria
call.  A definition or a method that only tests call fails the
walk.
"""

import ast
import builtins
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eag"

PRODUCTION_NAMES = {
    "orbit_components",
    "_subspace_blocks",
    "_pack_keys",
}

#: definitions that no CLI path reaches, kept on purpose
KEPT = {
    # the orbit oracles, which cross-check e and h in the tests and the benchmark
    "orbits.batch_rref",
    "genvec.check_unramified_caps",
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
    # the smoothness sampler, a test oracle for the Jacobian certificate; it
    # stays in src/eag because perfbench/tracing.py reads the traced key
    # hyperfermat.sample_and_check_smoothness and raises KeyError without it
    "hyperfermat.sample_and_check_smoothness",
    "hyperfermat.SmoothnessReport",
    "hyperfermat.SmoothnessReport.passed",
    "hyperfermat.SAMPLE_CAP",
    "hyperfermat.SAMPLE_ATTEMPTS_PER_POINT",
    "hyperfermat.SMOOTHNESS_TOL",
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


def _foreign_base(expr, imports):
    """The class that a base-class expression names outside the package, or None."""
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id in imports):
        return getattr(importlib.import_module(imports[expr.value.id]), expr.attr, None)
    return getattr(builtins, expr.id, None) if isinstance(expr, ast.Name) else None


def _definitions(sources):
    """{"module.name": the definitions it names} for every definition.

    ``sources`` maps module names to their source.  A definition is a
    module-level function, class or assignment to a name, or a method,
    keyed "module.Class.name".  It names what a bare name, ``from .module
    import name`` or ``module.name`` after ``from . import module`` refers
    to, wherever in the module the import stands, and ``x.name`` names every
    method called ``name``.  A class names
    its base classes, decorators and class-level assignments, its dunder
    methods, and the methods that override a base class from outside the
    package (an ``argparse.ArgumentParser`` hook, say), since Python calls
    those.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    methods = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        methods.setdefault(sub.name, set()).add(
                            f"{module}.{node.name}.{sub.name}")
    refs = {}
    for module, tree in trees.items():
        modules, imported, foreign, defs = {}, {}, {}, {}
        # a function that imports in its body binds the name for the whole module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    foreign[alias.asname or alias.name] = alias.name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        defs[target.id] = node

        def named(nodes):
            out = set()
            for sub in (sub for node in nodes for sub in ast.walk(node)):
                if isinstance(sub, ast.Name) and sub.id in defs:
                    out.add(f"{module}.{sub.id}")
                elif isinstance(sub, ast.Name) and sub.id in imported:
                    out.add(imported[sub.id])
                elif isinstance(sub, ast.Attribute):
                    out |= methods.get(sub.attr, set())
                    if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                        out.add(f"{modules[sub.value.id]}.{sub.attr}")
            return out

        for name, node in defs.items():
            key = f"{module}.{name}"
            if not isinstance(node, ast.ClassDef):
                refs[key] = named([node])
                continue
            own = [sub for sub in node.body if isinstance(sub, ast.FunctionDef)]
            bases = [_foreign_base(base, foreign) for base in node.bases]
            refs[key] = named([*node.bases, *node.decorator_list,
                               *(sub for sub in node.body if sub not in own)])
            for sub in own:
                refs[f"{key}.{sub.name}"] = named([sub])
                if sub.name.startswith("__") or any(hasattr(b, sub.name) for b in bases):
                    refs[key].add(f"{key}.{sub.name}")
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


def test_the_reachability_walk_flags_a_method_only_tests_call():
    refs = _definitions({
        "cli": "import argparse\nfrom .cx import Point\n"
               "class _Parser(argparse.ArgumentParser):\n"
               "    def error(self, message):\n        raise SystemExit(message)\n"
               "    def unused_hook(self):\n        pass\n"
               "def main():\n    return Point(1).value()\n",
        "cx": "class Point:\n"
              "    def __init__(self, x):\n        self.x = x\n"
              "    def value(self):\n        return self._scaled(1)\n"
              "    def _scaled(self, k):\n        return k * self.x\n"
              "    def only_tests(self):\n        return self.x\n",
    })
    # main names neither _Parser nor its methods; argparse calls error once
    # the parser is reached, while a method of its own no one calls stays out
    assert _unreached(refs, ["cli.main"]) == {
        "cli._Parser", "cli._Parser.error", "cli._Parser.unused_hook",
        "cx.Point.only_tests"}
    assert _unreached(refs, ["cli.main", "cli._Parser"]) == {
        "cli._Parser.unused_hook", "cx.Point.only_tests"}


def test_the_reachability_walk_follows_imports_in_function_bodies():
    refs = _definitions({
        "cli": "def main():\n    from . import engine\n    return engine.run()\n",
        "engine": "def run():\n    from .fp import rref\n    return rref()\n"
                  "def only_tests():\n    return run()\n",
        "fp": "def rref():\n    return 0\n",
    })
    assert _unreached(refs, ["cli.main"]) == {"engine.only_tests"}
