"""The DiTyCO distributed runtime (section 5).

Sites (extended TyCO VMs), nodes with the TyCOd/TyCOi daemons, the
TyCOsh shell, the network name service, the wire format, and the
future-work features (failure detection, dynamic checking of remote
interactions).
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "cluster": "DaemonWorld ProcessCluster",
    "daemon": "DaemonStats TyCOd TyCOi",
    "distgc": "DistGC GcConfig GcScheduler GcStats",
    "nsnet": "NameServiceClient NameServiceServer",
    "nameservice": "NameService NameServiceError NameServiceStats SiteRecord "
                   "UnknownSiteName",
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
})
