"""Exact-arithmetic workbench for odd hyperbolic unitary groups over finite rings.

Construction of the groups and their presentations, exhaustive verification
of the defining relations and commutator identities, normal forms in the
unipotent subgroups, and the central-extension splitting construction on
concrete product extensions.
"""

from .forms import (
    ExplicitParameter,
    MaxParameter,
    MinParameter,
    OddQuadraticSpace,
    span_form_parameter,
    verify_antihermitian,
    verify_form_parameter,
    zero_space,
)
from .generators import Xi, Xij, format_word, parse_word
from .hyperbolic import (
    GroupClosure,
    HyperbolicSpace,
    commutator_closure,
    enumerate_eu,
    equiv_mod_param,
    eu_generators,
    is_isometry,
    make_hyperbolic,
    subgroup_closure,
    unitary_member,
)
from .matrices import Mat
from .report import CapExceeded, CheckResult, NotInvertible, Report, WorkbenchError
from .rings import make_ring, verify_pseudo_involution, verify_ring_axioms
from .steinberg import (
    U1NormalForm,
    eval_word,
    perfect_witness,
    relation_instance,
    u1_decompose,
    verify_relations,
)
from .extensions import (
    ProductExtension,
    build_section,
    check_dagger,
    comm_preimages,
    product_extension,
    section_entry,
    verify_section,
)
from .freewords import comm, conj, reduce_word, verify_identities, verify_identity

__version__ = "0.1.0"
