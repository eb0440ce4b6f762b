"""Cluster substrates: link models, simulated world, socket world.

Substitute for the paper's physical Myrinet cluster (see DESIGN.md,
substitution table): the simulated world reproduces the interconnect's
latency/bandwidth behaviour on a virtual clock; the socket world
reproduces the process/thread deployment architecture over real TCP.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "base": "TransportStats World",
    "clock": "monotime",
    "links": "FAST_ETHERNET LOOPBACK MYRINET ClusterModel LinkModel "
             "fast_ethernet_cluster myrinet_cluster",
    "sim": "SimWorld",
    "socket": "SocketEndpoint SocketWorld StreamDecoder TokenBucket",
})
