"""Lattice constructions and references the tests build fixtures and
checks with; nlk3 itself needs none of them."""

from fractions import Fraction

from nlk3.lattice import IntegralLattice, build_standard, smith_normal_form


def to_text(l: IntegralLattice) -> str:
    """The lattice in the text format that `from_text` and `--file` read."""
    rows = [f"rank {l.rank}", *(" ".join(map(str, row)) for row in l.gram), " ".join(l.labels)]
    return "\n".join(rows) + "\n"


def direct_sum(a: IntegralLattice, b: IntegralLattice) -> IntegralLattice:
    """The orthogonal sum, a's basis first."""
    gram = [list(row) + [0] * b.rank for row in a.gram] + [[0] * a.rank + list(row) for row in b.gram]
    return IntegralLattice(gram, a.labels + b.labels)


def noncyclic_lattice() -> IntegralLattice:
    """U^2 + <-4> + <-6>: discriminant group Z/2 x Z/12, not cyclic."""
    u = build_standard("U")
    return direct_sum(direct_sum(u, u), IntegralLattice([[-4, 0], [0, -6]], ("a", "b")))


def full_snf_group(l: IntegralLattice):
    """(factors, lifts, generator Gram over N, u-rows) straight from the Smith
    normal form u*G*v = d of the whole Gram matrix, at the d_i > 1: lift i is
    column i of v over d_i, and u-row i applied to G.y gives the i-th residue
    of the dual vector y."""
    d, u, v = smith_normal_form(l.gram)
    positions = [i for i in range(l.rank) if d[i][i] > 1]
    factors = tuple(d[i][i] for i in positions)
    cols = [[v[r][i] for r in range(l.rank)] for i in positions]
    lifts = tuple(tuple(Fraction(c, f) for c in col) for col, f in zip(cols, factors))
    big = factors[-1] ** 2 if factors else 1
    gram = tuple(
        tuple(l.pairing(ci, cj) * big // (fi * fj) for cj, fj in zip(cols, factors)) for ci, fi in zip(cols, factors)
    )
    return factors, lifts, gram, [u[i] for i in positions]
