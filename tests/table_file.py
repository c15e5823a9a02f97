"""The table files that ``GroupTable.loads`` and ``eag orbits --table`` read."""


def dumps(g) -> str:
    """The text of ``g``'s table file: the order, then one row of indices per line."""
    lines = [str(g.order)] + [" ".join(map(str, row)) for row in g.array.tolist()]
    return "\n".join(lines) + "\n"
