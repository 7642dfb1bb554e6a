"""Noether-Lefschetz divisor bookkeeping for genus-g K3 moduli.

A key (g, d, n) records a Picard class beta with beta.L = d, beta^2 = n on a
quasi-polarized K3 of genus g.  The reduced locus only depends on the lattice
<L, beta>, i.e. on the discriminant Delta = (2g-2)n - d^2 and on d mod 2g-2;
an irreducible such locus with Delta < 0 is cut out by a vector of half-norm
Delta/(4g-4).  General (non-primitive) loci decompose into primitive ones
with multiplicities mu in {0, 1, 2}, counting the ways alpha = x*beta + y*L.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from ._inputs import Record, exact_int


class NLKey(Record):
    """Locus key: genus g, intersection d = beta.L, self-intersection n = beta^2."""

    _fields = ("g", "d", "n")

    def __init__(self, g, d, n):
        g, d, n = exact_int(g), exact_int(d), exact_int(n)
        if g < 2:
            raise ValueError("genus must be at least 2")
        vars(self).update(g=g, d=d, n=n)


class NLVectorData(Record):
    """Vector-side data of an irreducible locus: half-norm of the cutting
    vector, its discriminant class as a multiple of the standard generator,
    and whether the orbit carries the v ~ -v identification."""

    _fields = ("half_norm", "disc_class", "multiplicity_two")

    def __init__(self, half_norm: Fraction, disc_class: int, multiplicity_two: bool):
        vars(self).update(half_norm=half_norm, disc_class=disc_class, multiplicity_two=multiplicity_two)


def delta(key: NLKey) -> int:
    """Lattice discriminant (2g-2) n - d^2 of the key."""
    return (2 * key.g - 2) * key.n - key.d * key.d


def nl_vector_data(key: NLKey) -> NLVectorData:
    """Half-norm, disc class d*pi, and the 2-torsion flag; requires Delta < 0."""
    dlt = delta(key)
    if dlt >= 0:
        raise ValueError(f"key {key} has Delta = {dlt} >= 0: no reduced locus")
    m = 2 * key.g - 2
    return NLVectorData(
        half_norm=Fraction(dlt, 2 * m),
        disc_class=key.d % m,
        multiplicity_two=(2 * key.d) % m == 0,
    )


def mu_coefficient(target: NLKey, rep: NLKey) -> int:
    """Multiplicity of the primitive locus of rep inside the locus of target.

    Counts the integer pairs (x, y) with alpha = x beta + y L: x = +-s for
    s^2 = Delta(target)/Delta(rep), and (2g-2) y = target.d - x*rep.d.  So
    mu is 0, 1 or 2.
    """
    if target.g != rep.g:
        raise ValueError("keys of different genus")
    # -Delta = d^2 - 2n(g-1) is multiplicative under alpha = x beta + y L
    ti = -delta(rep)
    if ti <= 0:
        raise ValueError(f"representative {rep} has d^2 - 2n(g-1) = {ti} <= 0")
    t = -delta(target)
    if t % ti != 0 or t < 0:
        return 0
    ratio = t // ti
    s = isqrt(ratio)
    if s * s != ratio:
        return 0
    m = 2 * target.g - 2
    return sum(1 for x in {s, -s} if (target.d - x * rep.d) % m == 0)


# the largest trial divisor _square_divisors tries: every |Delta| < 10^18
# is answered, and so is a larger one whose cofactor falls below p^3 first
TRIAL_DIVISION_MAX = 10**6
# the most residues d_i triangular_decomposition scans for one key, summed
# over its square divisors x (gcd(x, 2g-2) each); about 65 ms of scanning
# (Python 3.11, 2 vCPUs)
RESIDUE_SCAN_MAX = 10**6


def _square_divisors(t: int) -> list[int]:
    """The x >= 1 with x^2 | t = |Delta|, ascending, for t >= 1.

    Trial division runs while p^3 <= the cofactor r; after it, every prime
    factor of r is at least p and r < p^3, so r has at most two prime
    factors and holds a square factor only when r is itself a prime square.
    The cost is O(t^(1/3)), not O(t^(1/2)); a p past TRIAL_DIVISION_MAX
    raises ValueError instead.
    """
    roots = [1]
    r = t
    p = 2
    while p * p * p <= r:
        if p > TRIAL_DIVISION_MAX:
            raise ValueError(f"Delta = {-t}: its square divisors need trial division past {TRIAL_DIVISION_MAX}")
        e = 0
        while r % p == 0:
            r //= p
            e += 1
        # for e < 2 the update multiplies by p^0 only, so this guard is for
        # speed: it skips a list rebuild for every p that does not divide r,
        # and without it the prime t = 999999999999999989 takes about four
        # times as long (0.26 -> 1.14 s, Python 3.11 on 2 vCPUs)
        if e > 1:
            roots = [x * p**a for x in roots for a in range(e // 2 + 1)]
        p += 1
    s = isqrt(r)
    if s > 1 and s * s == r:
        roots += [x * s for x in roots]
    return sorted(roots)


def triangular_decomposition(key: NLKey):
    """Decompose the locus of key into primitive loci with multiplicities.

    Returns ((rep, mu), ...) over canonical representatives: rep.d in
    [0, 2g-3], rep.n even (self-intersections in an even lattice), mu > 0.
    Sorted by |Delta| of the representative ascending, then rep.d ascending.
    Requires Delta(key) < 0.  Raises ValueError before the scan when its
    residues, gcd(x, 2g-2) for each square divisor x, pass RESIDUE_SCAN_MAX.
    """
    dlt = delta(key)
    if dlt >= 0:
        raise ValueError(f"key {key} has Delta = {dlt} >= 0: nothing to decompose")
    g = key.g
    m = 2 * g - 2
    t = -dlt
    # the x for which x*di = d (mod m) has solutions
    roots = [x for x in _square_divisors(t) if key.d % gcd(x, m) == 0]
    residues = sum(gcd(x, m) for x in roots)
    if residues > RESIDUE_SCAN_MAX:
        raise ValueError(f"Delta = {dlt}: its decomposition scans {residues} residues, past {RESIDUE_SCAN_MAX}")
    out = []
    for x in roots:
        h = gcd(x, m)
        ti = t // (x * x)
        # the solutions of x*di = d (mod m) in [0, m): one residue mod m/h
        step = m // h
        d0 = key.d // h * pow(x // h, -1, step) % step
        for di in range(d0, m, step):
            num = di * di - ti
            if num % m != 0:
                continue
            ni = num // m
            if ni % 2 != 0:
                continue
            # s = x and x*di = d (mod 2g-2), so mu counts x = +s: mu >= 1
            rep = NLKey(g, di, ni)
            out.append((rep, mu_coefficient(key, rep)))
    out.sort(key=lambda pair: (abs(delta(pair[0])), pair[0].d))
    return tuple(out)
