"""Exact-arithmetic lattice computations for involutions of blowup forms."""

from .errors import InputError, UnsupportedError
from .lattice import (
    Isometry,
    Lattice,
    LatticeVector,
    Sublattice,
    blowup_quadric_lattice,
    del_pezzo_lattice,
    fixed_and_antifixed,
    full_sublattice,
    identity_isometry,
    inner,
    is_even,
    orthogonal_complement,
    quadric_lattice,
    signature,
    span,
)
from .weyl import (
    GeneratorSet,
    RootSystem,
    canonical_class,
    coxeter_diagram,
    enumerate_roots,
    orbit,
    product_of_reflections,
    reflection,
    wall_generators,
    weyl_generators,
    weyl_order,
)
from .involutions import (
    InvolutionClass,
    InvolutionInvariant,
    OrthogonalRootSet,
    ZGInvariant,
    are_conjugate,
    classify_involutions,
    find_class,
    invariant_of,
    minus_root_key,
    orthogonal_root_set,
    zg_invariant,
)
from .irreducibility import (
    IRREDUCIBLE,
    REDUCIBLE,
    UNKNOWN,
    Decomposition,
    DecompositionLeaf,
    ReducibilityCertificate,
    SplitStep,
    Verdict,
    check_reducible,
    decompose,
    negation_twist,
)
from .models import (
    BasisChange,
    NamedInvolution,
    bertini,
    bertini_roots,
    de_jonquieres,
    de_jonquieres_model,
    defect_sum,
    geiser,
    geiser_roots,
    quadric_basis_change,
    quotient_signature,
)

__version__ = "0.1.0"
