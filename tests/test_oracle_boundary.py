"""What production reaches, and what it may not.

``eag.orbits`` holds the test oracles alone: the subspace and kernel BFS
counts, the canonical-form counts, their subspace enumerator
``_subspace_blocks``, ``batch_rref`` and the box of the kernel oracles.  No
other module of the package imports it, in any spelling, at module level or
in a function body, so an oracle cannot become a production path unnoticed.
The orbit engine they share with production is ``fp.orbit_components``.

A walk by name over the definitions of ``src/eag``, module-level ones and
methods alike, from ``cli.main``, finds every definition the CLI can
reach, imports in function bodies included.  What it does not reach must
be reached from ``KEPT``: the oracles, the matrix closure that the tests
check them by, the smoothness sampler, and the paper's API that the
acceptance criteria call.
A definition or a method that only tests call fails the walk.
"""

import ast
import builtins
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eag"

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
    # the canonical pure count's array of zero-sum multisets, which the
    # tests check on its own
    "orbits._zero_sum_multisets",
    # the generic matrix closure, which no oracle calls: Sp(2 rho, p) and
    # GL(k, p) are listed by their definitions, and the tests check both
    # against the closure of their generators; perfbench/tracing.py reads
    # it by key
    "fp.group_closure",
    # the benchmark's reference answers filter specs by it
    "surfaces.genus_is_admissible",
    # the genus of any signature, which acceptance criteria 07 and 11 call;
    # ea_genus is the closed form of the C_p^n case
    "surfaces.riemann_hurwitz_genus",
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


def _orbits_imports(tree):
    """The lines of every import of ``eag.orbits``: relative or absolute, or
    by a module name in a string, as ``importlib.import_module`` takes it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in ("eag.orbits", ".orbits"):
            names = ["eag.orbits"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = ("eag." * (node.level == 1) + (node.module or "")).rstrip(".")
            names = [package] + [f"{package}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "eag.orbits" or name.startswith("eag.orbits.") for name in names):
            yield node.lineno


def test_production_modules_use_no_orbit_oracle():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py")) if path.name != "orbits.py"
             for line in _orbits_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_import_walk_sees_every_spelling():
    spellings = ["from .orbits import batch_rref", "from . import fp, orbits",
                 "from . import orbits as o", "import eag.orbits",
                 "from eag import orbits", "from eag.orbits import batch_rref",
                 "def f():\n    from .orbits import batch_rref",
                 "importlib.import_module('.orbits', 'eag')"]
    for source in spellings:
        assert list(_orbits_imports(ast.parse(source))), source
    assert not list(_orbits_imports(ast.parse(
        "from .fp import orbit_components\nfrom . import genvec\nimport eag.orbitsx\n")))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module or "") + "." + alias.name for alias in node.names)


def test_the_witness_search_imports_neither_numpy_nor_orbits():
    # at module level or in a function body: the search runs on Python ints
    tree = ast.parse((SRC / "maximality.py").read_text(encoding="utf-8"))
    names = list(_imported_names(tree))
    assert names and not [name for name in names
                          if name.partition(".")[0] == "numpy" or "orbits" in name.split(".")]


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
    method called ``name``, unless ``x`` is a module from outside the
    package (``json.dumps`` names no ``dumps`` of the package).  A class names
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
                    owner = sub.value.id if isinstance(sub.value, ast.Name) else None
                    if owner in modules:
                        out.add(f"{modules[owner]}.{sub.attr}")
                    if owner not in foreign:
                        out |= methods.get(sub.attr, set())
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


def test_the_reachability_walk_reads_foreign_module_attributes_as_theirs():
    refs = _definitions({
        "cli": "import itertools\nimport json\nimport numpy as np\nfrom .table import Table\n"
               "def main():\n"
               "    t = Table.loads('1')\n"
               "    return json.dumps([itertools.product(), np.sort(t.rows)])\n",
        "table": "class Table:\n"
                 "    @staticmethod\n    def loads(text):\n        return Table()\n"
                 "    def dumps(self):\n        return ''\n"
                 "    def product(self):\n        return 0\n"
                 "    def sort(self):\n        return self\n",
    })
    # json.dumps, itertools.product and np.sort are no calls of the package's
    # methods of those names; Table.loads is
    assert _unreached(refs, ["cli.main"]) == {
        "table.Table.dumps", "table.Table.product", "table.Table.sort"}
