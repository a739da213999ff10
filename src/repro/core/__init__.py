"""The function proxy: the paper's primary contribution.

Components mirror the architecture of the paper's Figure 4:

* :class:`~repro.core.proxy.FunctionProxy` — the servlet: request
  parsing, query processing, response assembly;
* :class:`~repro.templates.manager.TemplateManager` — registered
  function templates, query templates, and info files;
* :class:`~repro.core.cache.CacheManager` — cached query results plus
  the *cache description* (an array or an R-tree over cached regions);
* :mod:`repro.core.schemes` — the caching schemes compared in the
  evaluation: no cache, passive cache, and the three active schemes
  (full semantic caching; containment + region containment; pure
  containment);
* :mod:`repro.core.evaluation` / :mod:`repro.core.remainder` — local
  evaluation of subsumed queries over cached results, and remainder
  query construction for cache-intersecting queries.
"""

from repro.core.cache import CacheEntry, CacheManager
from repro.core.costs import ProxyCostModel
from repro.core.description import (
    ArrayDescription,
    CacheDescription,
    RTreeDescription,
)
from repro.core.proxy import FunctionProxy, ProxyResponse
from repro.core.rtree import RTree
from repro.core.schemes import CachingScheme, SchemePolicy
from repro.core.stats import QueryRecord, TraceStats

__all__ = [
    "ArrayDescription",
    "CacheDescription",
    "CacheEntry",
    "CacheManager",
    "CachingScheme",
    "FunctionProxy",
    "ProxyCostModel",
    "ProxyResponse",
    "QueryRecord",
    "RTree",
    "RTreeDescription",
    "SchemePolicy",
    "TraceStats",
]
