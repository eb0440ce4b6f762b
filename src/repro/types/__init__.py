"""The TyCO polymorphic type system (paper sections 2 and 7).

Damas-Milner inference with row-polymorphic method-record channel
types, equi-recursive unification, per-``def`` generalisation, and the
combined static/dynamic checking scheme for remote interactions.
"""

from .._lazy import exports

# Eager: the name is also a submodule's (see repro._lazy).
from .unify import unify

__getattr__, __dir__, __all__ = exports(__name__, {
    "display": "format_env format_type",
    "infer": "DYNAMIC_SCHEME ClassArityError CyclicImportError Inferencer "
             "Signature TycoTypeError UnboundClassVarError check_network "
             "infer_program infer_site_signature",
    "typeterms": "BOOL DYN FLOAT INT STRING Basic ChanType Dyn Row RowEmpty "
                 "RowEntry RowVar Scheme TVar Type free_type_vars make_row "
                 "prune prune_row row_entries",
    "unify": "MethodArityError MissingMethodError UnifyError unify unify_rows",
})
