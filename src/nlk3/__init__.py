"""Noether-Lefschetz numbers for low-degree K3 families, computed two ways.

The package carries out an exact-arithmetic reproduction of the count of
singular members in two explicit families of K3 surfaces (a net of conics
and the unigonal family) and independently recovers the same numbers from
the Fourier coefficients of a fitted weight-10 genus-2 Siegel modular form.
The lattice layer underneath (even lattices, discriminant forms, orbit
enumeration for special divisors) is exposed on its own.

Everything runs over exact integers and rationals; no floats anywhere.
"""

from types import ModuleType as _ModuleType

from nlk3.chern import (
    P2Class,
    SurfaceChernData,
    UnigonalTable,
    default_unigonal_table,
    loads_unigonal,
    net_counts,
    net_invariants,
    unigonal_counts,
)
from nlk3.lattice import (
    DiscElement,
    DiscriminantGroup,
    IntegralLattice,
    LatticeVector,
    STANDARD_NAMES,
    build_standard,
    det,
    discriminant_group,
    divisibility,
    dual_class,
    from_text,
    is_primitive,
    orthogonal_complement,
    smith_normal_form,
)
from nlk3.nldiv import (
    NLKey,
    NLVectorData,
    delta,
    mu_coefficient,
    nl_vector_data,
    triangular_decomposition,
)
from nlk3.orbits import (
    Component,
    LOCI,
    OrbitCandidate,
    eichler_candidates,
    find_witness,
    locus_lattice,
    nl_component_count,
)
from nlk3.siegel import (
    GenusTwoSeries,
    HYPERELLIPTIC_NL,
    HalfIntegralTable,
    PREDICTIONS,
    Weight10Basis,
    Weight10Fit,
    binomial_pow,
    chi10,
    default_chi10_exponents,
    default_trunc_l,
    e4_series,
    e4e6,
    e6_series,
    fit_weight10,
    independence_check,
    loads_coeff_table,
    loads_half_integral,
    predict_nl,
    series_mul,
    series_one,
    series_truncate,
)

__version__ = "1.0.0"

# the public API: every name imported above, in import order, and the version
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
