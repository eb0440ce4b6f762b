"""The DiTyCO distributed runtime (section 5).

Sites (extended TyCO VMs), nodes with the TyCOd/TyCOi daemons, the
TyCOsh shell, the network name service, the wire format, and the
future-work features (termination detection, failure detection,
dynamic checking of remote interactions).
"""

from .cluster import DaemonWorld, ProcessCluster
from .daemon import DaemonStats, TyCOd, TyCOi
from .distgc import DistGC, GcConfig, GcScheduler, GcStats
from .nsnet import NameServiceClient, NameServiceServer
from .nameservice import (
    NameService,
    NameServiceError,
    NameServiceStats,
    SiteRecord,
    UnknownSiteName,
)
from .network import DiTyCONetwork
from .node import Node, NodeStepReport
from .shell import ShellError, TycoShell
from .failure import HeartbeatMonitor, Suspicion
from .site import DeliveryError, ReclaimedRefError, Site, SiteStats
from .termination import (
    SafraDetector,
    TerminationReport,
    run_with_termination_detection,
)
from .typecheck import (
    ProtocolError,
    SiteSignatures,
    WireSignature,
    chan_type_to_signature,
    check_site_program,
    type_to_tag,
)
from .wire import (
    KIND_CODE_NEED,
    KIND_CODE_REPLY,
    KIND_FETCH_REPLY,
    KIND_FETCH_REQUEST,
    KIND_MESSAGE,
    KIND_OBJECT,
    KIND_REF_DROP,
    KIND_REF_LEASE,
    KIND_REF_RENEW,
    Packet,
    WireError,
    decode,
    encode,
)

__all__ = [name for name in dir() if not name.startswith("_")]
