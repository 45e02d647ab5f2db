"""Result caching at base stations (the [29] line of related work).

Elbamby et al. [29] cut MEC latency by proactively caching the results of
popular computation tasks at the edge.  This extension adds that mechanism
to the data-shared model: repeated queries (a Zipf-popular stream, as in
content-caching practice) hit their base station's result cache and skip
computation and data collection entirely — only the result travels the last
hop.  The evaluator quantifies the energy/latency the cache saves over the
paper's cache-less pipeline.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "cache": ("CacheStats", "LFUCache", "LRUCache", "ResultCache"),
        "evaluator": ("CachingReport", "simulate_with_cache"),
        "lp_cache": ("LPSolveCache", "fingerprint_problem"),
        "workload": ("QueryCatalog", "zipf_query_stream"),
    },
)
