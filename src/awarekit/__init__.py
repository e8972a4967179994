"""awarekit: a verification workbench for epistemic logics with awareness.

Three model classes (Kripke lattice, space lattice, awareness structure),
three-valued guarded semantics for the explicit-knowledge language L and its
extension LKA, the four satisfaction-preserving transforms between the
classes, and a harness that checks equivalences, axiom suites, and structural
properties by bounded enumeration.

The names below are imported from their modules on first use, so that
`import awarekit` loads no submodule and a command loads only what it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "fh": ("AtomGenerated", "Explicit", "FHEvaluator", "FHModel", "check_ka", "check_pp",
           "validate_fh"),
    "formula": ("And", "Atom", "Aware", "ExplicitKnow", "Formula", "Know", "Lang", "Not",
                "ParseError", "TOP", "Top", "atoms_of", "agents_of", "depth_of",
                "enumerate_formulas", "expand_defined", "fold", "iff", "implies",
                "in_language", "lor", "parse", "to_text"),
    "hms": ("DenotationEvaluator", "Event", "FrameDefect", "HMSModel", "UnawarenessFrame",
            "defined_atoms", "denotation", "validate_frame", "validate_model"),
    "klm": ("Evaluator", "KripkeLatticeModel", "canonicalize", "check_awareness_properties",
            "eval_L", "eval_LKA", "induced_pointwise", "lattice_cap", "random_klm",
            "random_klm_eq", "subsets", "validate_klm"),
    "kripke": ("KripkeModel", "PropertyReport", "RestrictedModel", "WorldId",
               "parse_world_id", "relation_properties", "restrict", "validate_kripke"),
    "modelio": ("fixture_path", "load_fixture", "load_model", "store_model"),
    "transforms": ("StateCorrespondence", "TransformReport", "fh_transform", "h_transform",
                   "k_transform", "l_transform", "transform"),
    "truth": ("Truth", "truth_of"),
    "verify": ("AxiomSuite", "EquivalenceReport", "SCHEMA_5", "Schema", "ValidityChecker",
               "check_axiom_suite", "check_equiv_fh_klm", "check_L_equiv_hms_klm",
               "check_L_equiv_klm_hms", "hms_suite", "lga_suite", "valid_over"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    """A submodule, or an exported name imported from its module, on first
    use (PEP 562)."""
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    for module, names in _EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
