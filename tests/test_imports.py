"""A process imports what it runs.

Every package under `repro` resolves the names it re-exports on first
use (`repro._lazy`), so a simulator run loads no socket transport,
process cluster, type checker or calculus reference engine.  These
tests hold both halves: what the sim path leaves unloaded, and that
every name a package exported while its ``__init__`` imported
everything eagerly still resolves, to the same object.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules the simulator never runs; loading one is paid by every
#: `python -m repro` command and every benchmark child.
NOT_ON_SIM_PATH = (
    "asyncio", "ssl", "subprocess", "socketserver",
    "repro.runtime.cluster", "repro.runtime.nsnet", "repro.transport.socket",
    "repro.types", "repro.core.reduction", "repro.testkit.proxy",
    "repro.obs.slo",
)

#: package -> submodule -> the names the package re-exports from it:
#: the API the eager ``__init__`` files had, recorded (less the names
#: of modules deleted since).
EXPORTS = {
    "repro.compiler": {
        "assembly": "ClassGroup CodeBlock Instr ObjectCode Op Program "
                    "validate_program",
        "asmparser": "AsmParseError parse_assembly",
        "codegen": "CompileError Compiler compile_source compile_term",
        "linker": "BundleManifest CodeBundle LinkError LinkResult "
                  "extract_bundle link_bundle",
    },
    "repro.core": {
        "congruence": "alpha_equal congruent normalize_par",
        "evalexpr": "EvalError evaluate truth",
        "names": "VAL ClassVar Label LocatedClassVar LocatedName Name Site "
                 "located",
        "network": "ExportDef ExportNew ExportedInterface ImportClass "
                   "ImportName LocatedProcess NetDef NetNew NetNil NetPar "
                   "Network UnresolvedImportError elaborate_network "
                   "elaborate_site_program flatten_network net_par "
                   "networks_congruent normalize_network",
        "network_reduction": "NetworkEngine Packet UnknownSiteError "
                             "run_network",
        "reduction": "BuiltinProtocolError ChannelState LocalEngine "
                     "PendingMessage PendingObject RemoteIdentifierError "
                     "TycoRuntimeError UnboundClassError run_process",
        "subst": "ArityError SubstitutionError free_classvars "
                 "free_located_classvars free_located_names free_names "
                 "instantiate_method rename_everywhere substitute",
        "terms": "BinOp Def Definitions Expr If Instance Lit Message Method "
                 "New Nil Object Par Process UnOp Value flatten_par msg obj "
                 "par single_def val_msg val_obj",
        "translate": "sigma_classvar sigma_definitions sigma_name "
                     "sigma_process sigma_value",
    },
    "repro.lang": {
        "lexer": "KEYWORDS LexError Lexer Token TokenKind",
        "parser": "ParseError ParsedProgram Parser parse_process "
                  "parse_program",
        "pretty": "is_printable_source pretty pretty_expr",
    },
    "repro.mobility": {
        "balancer": "BalanceDecision LoadBalancer ThresholdPolicy",
        "checkpoint": "CheckpointCorruptError CheckpointError "
                      "CheckpointVersionError SiteCheckpoint capture_site "
                      "digest_bytes pack_checkpoint read_checkpoint "
                      "restore_site write_checkpoint",
        "journal": "FileJournal MemoryJournal checkpoint_node restore_node",
        "migrate": "MobilityConfig MobilityManager MobilityStats",
    },
    "repro.obs": {
        "bus": "EventBus",
        "chrome": "TraceCollector chrome_trace chrome_trace_json",
        "cluster": "ClusterScraper event_from_dict event_to_dict "
                   "merge_metrics stitch_events stitch_trace_json top_table",
        "events": "CATEGORY_OF KNOWN_KINDS ObsEvent category_of",
        "flight": "FlightRecorder",
        "metrics": "Counter Gauge Histogram MetricsRegistry merge_snapshots "
                   "world_metrics",
        "profiler": "VMProfiler",
        "schema": "load_trace_schema validate_trace",
        "slo": "SLOBreach SLOError SLORule SLOSpec SLOWatchdog",
    },
    "repro.runtime": {
        "cluster": "DaemonWorld ProcessCluster",
        "daemon": "DaemonStats TyCOd TyCOi",
        "distgc": "DistGC GcConfig GcScheduler GcStats",
        "nsnet": "NameServiceClient NameServiceServer",
        "nameservice": "NameService NameServiceError NameServiceStats "
                       "SiteRecord UnknownSiteName",
        "network": "DiTyCONetwork",
        "node": "Node NodeStepReport",
        "shell": "ShellError TycoShell",
        "failure": "HeartbeatMonitor Suspicion",
        "site": "DeliveryError ReclaimedRefError Site SiteStats",
        "typecheck": "ProtocolError SiteSignatures WireSignature "
                     "chan_type_to_signature check_site_program type_to_tag",
        "wire": "KIND_CODE_NEED KIND_CODE_REPLY KIND_FETCH_REPLY "
                "KIND_FETCH_REQUEST KIND_MESSAGE KIND_OBJECT KIND_REF_DROP "
                "KIND_REF_LEASE KIND_REF_RENEW Packet WireError decode encode",
    },
    "repro.testkit": {
        "chaos": "ChaosConfig ChaosWorld CrashEvent FaultLog",
        "explore": "ChaosRun ExplorationReport explore run_scenario",
        "proxy": "ChaosProxy LinkReset",
        "invariants": "check_export_liveness check_message_accounting "
                      "check_nameservice_integrity check_no_dangling_imports "
                      "check_no_premature_reclaim settle_distgc",
    },
    "repro.transport": {
        "base": "TransportStats World",
        "clock": "monotime",
        "links": "FAST_ETHERNET LOOPBACK MYRINET ClusterModel LinkModel "
                 "fast_ethernet_cluster myrinet_cluster",
        "sim": "SimWorld",
        "socket": "SocketEndpoint SocketWorld StreamDecoder",
    },
    "repro.types": {
        "display": "format_env format_type",
        "infer": "DYNAMIC_SCHEME ClassArityError CyclicImportError Inferencer "
                 "Signature TycoTypeError UnboundClassVarError check_network "
                 "infer_program infer_site_signature",
        "typeterms": "BOOL DYN FLOAT INT STRING Basic ChanType Dyn Row "
                     "RowEmpty RowEntry RowVar Scheme TVar Type "
                     "free_type_vars make_row prune prune_row row_entries",
        "unify": "MethodArityError MissingMethodError UnifyError unify "
                 "unify_rows",
    },
    "repro.vm": {
        "heap": "Heap",
        "machine": "ImportPending NoPortError RemotePort TycoVM "
                   "VMRuntimeError VMStats",
        "scheduler": "RunQueue Thread",
        "values": "Channel ClassRef NetRef RemoteClassRef VMValue "
                  "is_channel_value value_repr",
    },
    "repro.workloads": {
        "spec": "DEFAULT_MIX WORKLOADS Arrival WorkloadError WorkloadSpec "
                "generate_trace trace_digest trace_json",
        "runner": "APPS LATENCY_BUCKETS WORLD_KINDS WorkloadReport "
                  "expected_outputs install_scenario run_workload",
    },
}

#: Reads every recorded name from its package and from its submodule;
#: prints the names whose two objects differ.  With "1", every
#: submodule is imported before any package attribute is read.
CHECK = """
import importlib, json, sys
exports = json.loads(sys.argv[1])
if sys.argv[2] == "1":
    for package, table in exports.items():
        for sub in table:
            importlib.import_module(f"{package}.{sub}")
wrong = []
for package, table in exports.items():
    pkg = importlib.import_module(package)
    for sub, names in table.items():
        for name in names.split():
            value = getattr(pkg, name)
            if value is not getattr(importlib.import_module(
                    f"{package}.{sub}"), name):
                wrong.append(f"{package}.{name}")
    if sorted(pkg.__all__) != sorted(" ".join(table.values()).split()):
        wrong.append(f"{package}.__all__")
print(json.dumps(wrong))
"""


def fresh(code: str, *args: str) -> str:
    """Run `code` in a new interpreter; its standard output."""
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True,
                          env={"PYTHONPATH": SRC}).stdout


def test_sim_path_loads_only_what_it_runs():
    loaded = json.loads(fresh(
        "import json, sys, repro.runtime.network, repro.workloads; "
        "print(json.dumps(sorted(sys.modules)))"))
    assert [m for m in NOT_ON_SIM_PATH if m in loaded] == []


@pytest.mark.parametrize("submodules_first", [False, True],
                         ids=["package_first", "submodules_first"])
def test_every_export_is_its_submodules_object(submodules_first):
    wrong = json.loads(fresh(CHECK, json.dumps(EXPORTS),
                             "1" if submodules_first else "0"))
    assert wrong == []


def test_unknown_name_is_an_attribute_error():
    import repro.runtime

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.runtime.Nope
    assert "DiTyCONetwork" in dir(repro.runtime)
