"""Cluster substrates: link models, simulated world, socket world.

Substitute for the paper's physical Myrinet cluster (see DESIGN.md,
substitution table): the simulated world reproduces the interconnect's
latency/bandwidth behaviour on a virtual clock; the socket world
reproduces the process/thread deployment architecture over real TCP.
"""

from .base import TransportStats, World
from .clock import monotime
from .links import (
    FAST_ETHERNET,
    LOOPBACK,
    MYRINET,
    ClusterModel,
    LinkModel,
    fast_ethernet_cluster,
    myrinet_cluster,
)
from .sim import SimWorld
from .socket import SocketEndpoint, SocketWorld, StreamDecoder, TokenBucket

__all__ = [name for name in dir() if not name.startswith("_")]
