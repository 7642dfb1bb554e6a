"""Lattice constructions the tests build fixtures with; nlk3 itself needs
neither."""

from nlk3.lattice import IntegralLattice


def to_text(l: IntegralLattice) -> str:
    """The lattice in the text format that `from_text` and `--file` read."""
    rows = [f"rank {l.rank}", *(" ".join(map(str, row)) for row in l.gram), " ".join(l.labels)]
    return "\n".join(rows) + "\n"


def direct_sum(a: IntegralLattice, b: IntegralLattice) -> IntegralLattice:
    """The orthogonal sum, a's basis first."""
    gram = [list(row) + [0] * b.rank for row in a.gram] + [[0] * a.rank + list(row) for row in b.gram]
    return IntegralLattice(gram, a.labels + b.labels)
