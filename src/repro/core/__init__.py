"""The TyCO / DiTyCO calculus: terms, semantics, distribution, mobility.

This subpackage is the *formal* layer of the reproduction (paper
sections 2-4): the process syntax, the base-calculus reduction engine,
networks of located processes, the ``sigma_rs`` translation, the
SHIPM/SHIPO/FETCH mobility rules, and the export/import programming
constructs.  The executable runtime (compiler + virtual machine +
daemons, paper section 5) lives in :mod:`repro.compiler`,
:mod:`repro.vm` and :mod:`repro.runtime`.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "congruence": "alpha_equal congruent normalize_par",
    "evalexpr": "EvalError evaluate truth",
    "names": "VAL ClassVar Label LocatedClassVar LocatedName Name Site "
             "located",
    "network": "ExportDef ExportNew ExportedInterface ImportClass ImportName "
               "LocatedProcess NetDef NetNew NetNil NetPar Network "
               "UnresolvedImportError elaborate_network "
               "elaborate_site_program flatten_network net_par "
               "networks_congruent normalize_network",
    "network_reduction": "NetworkEngine Packet UnknownSiteError run_network",
    "reduction": "BuiltinProtocolError ChannelState LocalEngine "
                 "PendingMessage PendingObject RemoteIdentifierError "
                 "TycoRuntimeError UnboundClassError run_process",
    "subst": "ArityError SubstitutionError free_classvars "
             "free_located_classvars free_located_names free_names "
             "instantiate_method rename_everywhere substitute",
    "terms": "BinOp Def Definitions Expr If Instance Lit Message Method New "
             "Nil Object Par Process UnOp Value flatten_par msg obj par "
             "single_def val_msg val_obj",
    "translate": "sigma_classvar sigma_definitions sigma_name sigma_process "
                 "sigma_value",
})
