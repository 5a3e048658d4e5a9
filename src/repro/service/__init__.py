"""Long-lived analysis service: registry, coalescing scheduler, tiered cache.

One-shot CLI runs re-parse the spec, re-explore the state space and re-price
their own s-grid on every invocation.  This subsystem amortises all three
across queries, the way the paper's master caches ``L(s)`` values in memory
and on disk:

* :class:`ModelRegistry` — content-addresses DNAmaca specs and caches the
  reachability graph, SMP kernel and a shared ``UEvaluator`` per model;
* :class:`CoalescingScheduler` — merges overlapping s-points of concurrent
  in-flight queries into single batched evaluations (each point computed at
  most once);
* :class:`TieredResultCache` — in-memory LRU of transform values per measure
  digest over the on-disk :class:`~repro.distributed.CheckpointStore`;
* :class:`AnalysisService` + :func:`create_server` / :class:`ServiceClient`
  — the transport-agnostic facade and its stdlib HTTP JSON API
  (``semimarkov serve`` / ``semimarkov query`` on the command line).

The names are imported on first access, each from its own module: the api
engines and the solver shims use the scheduler and the cache without loading
the HTTP server (``http.server``), the job store (``sqlite3``) or the facade.
"""
from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "server": ["AnalysisHTTPServer", "create_server"],
    "service": [
        "AnalysisService",
        "ModelNotFound",
        "QueryError",
        "ServiceError",
        "ServiceUnavailable",
        "ValidationError",
    ],
    "cache": ["CacheLookup", "TieredResultCache"],
    "scheduler": ["CoalescingScheduler", "QueryStatistics"],
    "registry": ["ModelEntry", "ModelRegistry", "spec_digest"],
    "client": ["ServiceClient", "ServiceClientError"],
})
