"""Hardware prefetcher models.

These reproduce the behavioural essentials the paper leans on:

* stream/next-line prefetchers cover sequential code extremely well but
  over-fetch at stream ends and need a warm-up window, so short streams
  (small memcpys, Figure 14) get poor coverage and high waste;
* stride prefetchers train per-PC and handle regular strides;
* on irregular (pointer-chasing) code, all of them either stay quiet or
  fetch garbage, and the garbage costs bandwidth that inflates everyone's
  DRAM latency.

Each prefetcher is a pure observer: it watches the demand access stream and
returns line addresses to fetch. The hierarchy issues those fetches and
charges them to DRAM bandwidth.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("HardwarePrefetcher",),
    "nextline": ("AdjacentLinePrefetcher", "NextLinePrefetcher"),
    "stride": ("StridePrefetcher",),
    "stream": ("StreamPrefetcher",),
    "bank": ("PrefetcherBank", "default_prefetcher_bank"),
})
