"""The sharded on-disk result cache shared by studies.

A campaign — many workloads over many spaces and widths — is N
:class:`~repro.study.engine.Study` runs sharing one :class:`ResultCache`:
every evaluated point is persisted as it completes, so an interrupted
campaign resumes at the first un-cached point and a re-run is near-free.
"""

from repro.campaign.cache import (
    CacheStats,
    ResultCache,
    cache_key,
    default_cache_dir,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
]
