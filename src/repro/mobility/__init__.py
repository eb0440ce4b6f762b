"""Site checkpointing, live migration and load balancing.

Three layers over the runtime of the paper (which only moves *code*
between fixed sites):

* :mod:`repro.mobility.checkpoint` -- serialize a quiesced site's
  complete state (heap, queues, run-queue frames, program area,
  pending protocol continuations) into a versioned, content-digested
  blob, and rebuild a running site from one.
* :mod:`repro.mobility.journal` -- append-only checkpoint stores
  (in-memory and file backends) for crash-restart of whole nodes.
* :mod:`repro.mobility.migrate` -- the FREEZE / CKPT_SHIP / forward /
  rebind / RESUME protocol moving a live site between nodes with
  at-most-once cutover under the chaos fault model.
* :mod:`repro.mobility.balancer` -- a metrics-driven load balancer
  migrating hot sites off overloaded nodes.

See docs/MIGRATION.md for the format, the protocol state machine and
the failure matrix.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "balancer": "BalanceDecision LoadBalancer ThresholdPolicy",
    "checkpoint": "CheckpointCorruptError CheckpointError "
                  "CheckpointVersionError SiteCheckpoint capture_site "
                  "digest_bytes pack_checkpoint read_checkpoint restore_site "
                  "write_checkpoint",
    "journal": "FileJournal MemoryJournal checkpoint_node restore_node",
    "migrate": "MobilityConfig MobilityManager MobilityStats",
})
