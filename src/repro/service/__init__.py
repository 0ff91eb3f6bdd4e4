"""The concurrent query service (admission, shedding, governance).

Public surface of :mod:`repro.service`:

* :class:`~repro.service.service.QueryService` -- the bounded worker
  pool serving plan runs over one shared, lock-protected runtime.
* :class:`~repro.service.request.QueryRequest` /
  :class:`~repro.service.request.QueryResponse` /
  :class:`~repro.service.request.Ticket` -- one serving's input,
  explicitly marked outcome, and thread-safe future.
* :class:`~repro.service.admission.AdmissionQueue` -- bounded
  priority-aware admission with load shedding and preemption.
* The priority classes ``PRIORITY_HIGH`` / ``PRIORITY_NORMAL`` /
  ``PRIORITY_BEST_EFFORT``.
* :func:`~repro.service.runtime.run_request` over a
  :class:`~repro.service.runtime.Runtime` -- the one function that
  executes a request, whichever tier runs it.
* :class:`~repro.service.workers.WorkerPool` and its
  :class:`~repro.service.workers.ProcessWorkerPool` /
  :class:`~repro.service.workers.ThreadWorkerPool` implementations --
  the execution tiers: worker processes fed plan IR (not pickles) to
  scale CPU-bound serving past the GIL, or a thread pool over the
  service's own runtime.
* :class:`~repro.service.method_health.MethodHealthRegistry` -- the
  dead-method ledger behind health-aware degraded planning, and
  :class:`~repro.service.workers.LatencyTracker` -- the EWMA/P95
  estimator behind adaptive hedged dispatch.
"""

from repro.service.admission import AdmissionQueue
from repro.service.method_health import MethodHealthRegistry
from repro.service.request import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_CLASSES,
    PRIORITY_HIGH,
    PRIORITY_NAMES,
    PRIORITY_NORMAL,
    QueryRequest,
    QueryResponse,
    Ticket,
)
from repro.service.runtime import Runtime, run_request
from repro.service.service import QueryService, ServiceHealth
from repro.service.workers import (
    LatencyTracker,
    ProcessWorkerPool,
    SourceSpecError,
    ThreadWorkerPool,
    WorkerPool,
    source_to_spec,
    spec_to_source,
)

__all__ = [
    "AdmissionQueue",
    "LatencyTracker",
    "MethodHealthRegistry",
    "ProcessWorkerPool",
    "PRIORITY_BEST_EFFORT",
    "PRIORITY_CLASSES",
    "PRIORITY_HIGH",
    "PRIORITY_NAMES",
    "PRIORITY_NORMAL",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "Runtime",
    "ServiceHealth",
    "SourceSpecError",
    "ThreadWorkerPool",
    "Ticket",
    "WorkerPool",
    "run_request",
    "source_to_spec",
    "spec_to_source",
]
