"""Lattice constructions and references the tests build fixtures and
checks with; nlk3 itself needs none of them."""

from nlk3.lattice import IntegralLattice, smith_normal_form


def to_text(l: IntegralLattice) -> str:
    """The lattice in the text format that `from_text` and `--file` read."""
    rows = [f"rank {l.rank}", *(" ".join(map(str, row)) for row in l.gram), " ".join(l.labels)]
    return "\n".join(rows) + "\n"


def direct_sum(a: IntegralLattice, b: IntegralLattice) -> IntegralLattice:
    """The orthogonal sum, a's basis first."""
    gram = [list(row) + [0] * b.rank for row in a.gram] + [[0] * a.rank + list(row) for row in b.gram]
    return IntegralLattice(gram, a.labels + b.labels)


def snf_u_rows(l: IntegralLattice) -> list[tuple[int, ...]]:
    """The rows of u in the Smith normal form u*G*v = d of the Gram at the
    invariant factors above 1: row i applied to G.y gives the i-th residue
    of the dual vector y."""
    d, u, _ = smith_normal_form(l.gram)
    return [row for i, row in enumerate(u) if d[i][i] > 1]
