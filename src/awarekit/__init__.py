"""awarekit: a verification workbench for epistemic logics with awareness.

Three model classes (Kripke lattice, space lattice, awareness structure),
three-valued guarded semantics for the explicit-knowledge language L and its
extension LKA, the four satisfaction-preserving transforms between the
classes, and a harness that checks equivalences, axiom suites, and structural
properties by bounded enumeration.
"""

from .fh import (
    AtomGenerated,
    Explicit,
    FHEvaluator,
    FHModel,
    check_ka,
    check_pp,
    validate_fh,
)
from .formula import (
    And,
    Atom,
    Aware,
    ExplicitKnow,
    Formula,
    Know,
    Lang,
    Not,
    ParseError,
    TOP,
    Top,
    atoms_of,
    agents_of,
    depth_of,
    enumerate_formulas,
    expand_defined,
    fold,
    iff,
    implies,
    in_language,
    lor,
    parse,
    to_text,
)
from .hms import (
    DenotationEvaluator,
    Event,
    FrameDefect,
    HMSModel,
    UnawarenessFrame,
    defined_atoms,
    denotation,
    validate_frame,
    validate_model,
)
from .klm import (
    Evaluator,
    KripkeLatticeModel,
    PropertyReport,
    canonicalize,
    check_awareness_properties,
    eval_L,
    eval_LKA,
    induced_pointwise,
    lattice_cap,
    random_klm,
    random_klm_eq,
    subsets,
    validate_klm,
)
from .kripke import (
    KripkeModel,
    RestrictedModel,
    WorldId,
    parse_world_id,
    relation_properties,
    restrict,
    validate_kripke,
)
from .modelio import fixture_path, load_fixture, load_model, store_model
from .transforms import (
    StateCorrespondence,
    TransformReport,
    fh_transform,
    h_transform,
    k_transform,
    l_transform,
    transform,
)
from .truth import Truth, truth_of
from .verify import (
    AxiomSuite,
    EquivalenceReport,
    SCHEMA_5,
    Schema,
    ValidityChecker,
    check_axiom_suite,
    check_equiv_fh_klm,
    check_L_equiv_hms_klm,
    check_L_equiv_klm_hms,
    hms_suite,
    lga_suite,
    valid_over,
)

__version__ = "0.1.0"
