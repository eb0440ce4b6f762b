"""repro -- a reproduction of DiTyCO (Lopes et al., IEEE CLUSTER 2000).

*A Concurrent Programming Environment with Support for Distributed
Computations and Code Mobility.*

The package is layered exactly like the system in the paper:

``repro.core``
    The TyCO process calculus and its distributed extension --
    terms, reduction, networks, the ``sigma_rs`` translation, and the
    SHIPM / SHIPO / FETCH mobility rules (sections 2-4).
``repro.types``
    The Damas-Milner polymorphic type system with method-record types
    and the static half of the remote-interaction checking (section 7).
``repro.lang``
    The DiTyCO source language: lexer, parser, desugaring of the
    paper's abbreviations, pretty printer.
``repro.compiler``
    Source -> virtual-machine assembly -> hardware-independent
    bytecode, preserving the nested block structure that makes code
    movable (section 5).
``repro.vm``
    The TyCO virtual machine: program area, heap, run-queue,
    local-variable table and builtin-expression stack (section 5).
``repro.runtime``
    The distributed runtime: sites (extended VMs), nodes with the
    TyCOd / TyCOi daemons and TyCOsh shell, the network name service,
    export tables and network references, plus the future-work
    feature of failure detection.
``repro.transport``
    The cluster substrate: a deterministic simulated network with
    Myrinet / Fast-Ethernet link models and a real TCP transport
    (one process, or one process per node).
"""

__version__ = "0.1.0"
