"""One table of caps, and one check that raises past them.

Every size cap of the CLI is an entry of ``eag.errors.CAPS``, and
``errors.require_within`` is the one check that raises CapExceededError
past it.  Besides it, only ``cli._render`` raises one, as the last resort
for a payload it cannot print; the test oracles of ``eag.orbits`` and the
smoothness sampler keep caps of their own.  The README's cap table lists
every entry with its value.
"""

import ast
from pathlib import Path

import pytest

from eag.errors import CAPS, CapExceededError, require_within

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eag"

#: the functions outside eag.orbits that may raise CapExceededError themselves
RAISERS = {"errors.require_within", "cli._render", "hyperfermat.sample_and_check_smoothness"}


def _scoped(source, module):
    """(the enclosing "module.function", node) for every node of the source."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            yield from visit(child, f"{module}.{child.name}"
                             if isinstance(child, ast.FunctionDef) else scope)

    yield from visit(ast.parse(source), module)


def _calls(node, name):
    """Whether the node calls ``name``, as a bare name or an attribute."""
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None))


def _cap_raises(source, module):
    """The enclosing function of every ``raise CapExceededError(...)``."""
    return [scope for scope, node in _scoped(source, module)
            if isinstance(node, ast.Raise) and _calls(node.exc, "CapExceededError")]


def _production_sources():
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py")) if path.name != "orbits.py"}


def test_only_the_one_check_raises_past_a_cap():
    found = {scope for module, source in _production_sources().items()
             for scope in _cap_raises(source, module)}
    assert found == RAISERS


def test_the_raise_walk_sees_every_spelling():
    source = ("def f():\n    raise CapExceededError('x')\n"
              "def g():\n    def h():\n        raise errors.CapExceededError('y') from None\n"
              "def k():\n    return CapExceededError('not raised')\n")
    assert _cap_raises(source, "m") == ["m.f", "m.h"]


def test_every_check_names_a_cap_of_the_table_and_every_cap_is_checked():
    named, outside = set(), set()
    for module, source in _production_sources().items():
        checks = ((scope, node) for scope, node in _scoped(source, module)
                  if _calls(node, "require_within"))
        for scope, call in checks:
            cap = call.args[0]
            assert isinstance(cap, ast.Constant), f"{scope} names its cap by a literal"
            named.add(cap.value)
            if call.keywords or len(call.args) != 3:
                outside.add(scope)
    assert named == set(CAPS)
    # every check reads its value from the table: none passes a value of its own
    assert outside == set()


def test_a_cap_admits_its_value_and_names_itself_past_it():
    cap = CAPS["group order"]
    require_within("group order", cap, "the order")
    with pytest.raises(CapExceededError) as info:
        require_within("group order", cap + 1, "the order")
    assert str(info.value) == f"the order: {cap + 1}, above the group order cap of {cap}"
    # a size of more digits than Python prints is shown by a power of ten below it
    with pytest.raises(CapExceededError, match=r"x: at least 10\^4999, above the digits cap"):
        require_within("digits", 10 ** 5000 + 1, "x")


def _readme_caps():
    """{name: value} of the rows of the README's cap table."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| cap | value | what it bounds | subcommands | checked |")
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, value = (cell.strip() for cell in line.split(" | ")[:2])
        rows[name.lstrip("| ").strip("`")] = value
    return rows


def test_the_readme_lists_every_cap_with_its_value():
    assert _readme_caps() == {name: f"{value:,}" for name, value in CAPS.items()}
