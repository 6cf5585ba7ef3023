"""Multi-worker sweep orchestration (the fleet).

The sweep engine (:mod:`repro.sim.sweep`) runs cache misses one after
another in its own process; this package is the only way to run points
in parallel.  It shards a sweep's *pending* (cache-missing) points
across worker processes — on this machine or over ssh — and merges the
results back into the same content-addressed ``results/points/`` store,
which is already safe for concurrent writers via atomic renames:

* :mod:`repro.fleet.manifest` — the shared work manifest: a pull queue
  of point files claimed by atomic rename, so two workers can never
  both own a point, plus the straggler-release pass that returns a dead
  worker's claim to the queue after a retry timeout.
* :mod:`repro.fleet.worker` — the single worker entry point
  (``python -m repro.fleet.worker``), shared by every backend.  Each
  worker runs its points one after another in its own process.
* :mod:`repro.fleet.spec` — the fleet description (backend, hosts,
  worker counts, retry policy) parsed from TOML or JSON.
* :mod:`repro.fleet.backends` — the :class:`~repro.fleet.backends.
  WorkerBackend` protocol with two implementations: ``local``
  (worker processes pulling from the shared queue) and ``ssh`` (the
  same worker entry point dispatched over ``ssh``/``rsync`` with
  per-host point shards).
* :mod:`repro.fleet.coordinator` — rounds of dispatch + straggler
  re-dispatch + the merge step that verifies every claimed point landed
  as a valid point under the expected ``config_hash``.

``repro-bench`` reaches all of this: it sends every pending point
through :func:`run_fleet` (``--fleet <spec>``, default ``local``: one
worker per core).
"""

from .coordinator import FleetReport, plan_shards, run_fleet
from .manifest import FleetError, Manifest, WorkItem
from .spec import FleetHost, FleetSpec

__all__ = [
    "FleetError",
    "FleetHost",
    "FleetReport",
    "FleetSpec",
    "Manifest",
    "WorkItem",
    "plan_shards",
    "run_fleet",
]
