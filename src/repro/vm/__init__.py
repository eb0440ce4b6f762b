"""The TyCO virtual machine (section 5).

Program area, heap, run-queue, local-variable frames and the builtin
expression stack; communication (``trmsg``/``trobj``), instantiation
(``instof``) and the distribution instructions re-implemented for
DiTyCO are executed here, with network effects delegated to a
:class:`~repro.vm.machine.RemotePort`.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "heap": "Heap",
    "machine": "ImportPending NoPortError RemotePort TycoVM VMRuntimeError "
               "VMStats",
    "scheduler": "RunQueue Thread",
    "values": "Channel ClassRef NetRef RemoteClassRef VMValue "
              "is_channel_value value_repr",
})
