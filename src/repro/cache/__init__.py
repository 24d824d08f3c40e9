"""SSD cache framework: set-associative space, metadata log, baseline policies."""

from .admission import (
    AdmissionPolicy,
    AlwaysAdmit,
    CountAdmission,
    LarcAdmission,
    make_admission,
)
from .base import CacheConfig, CachePolicy, Outcome, TrafficCounters
from .common import SetAssocPolicy
from .partition import PartitionedCache, PartitionPlan, ReallocationStats
from .dedup import ContentModel, DedupWriteThrough
from .leavo import LeavO
from .mlog import MetadataLog
from .nocache import Nossd
from .raidcache import MirroredWriteBack
from .sets import CacheLine, CacheSets
from .wbpolicies import JournaledWriteBack, OrderedWriteBack
from .wec import WecWriteThrough
from .writearound import WriteAround
from .writeback import WriteBack
from .writethrough import WriteThrough

__all__ = [
    "AdmissionPolicy",
    "AlwaysAdmit",
    "CountAdmission",
    "LarcAdmission",
    "make_admission",
    "CacheConfig",
    "CachePolicy",
    "Outcome",
    "TrafficCounters",
    "CacheLine",
    "CacheSets",
    "MetadataLog",
    "PartitionPlan",
    "PartitionedCache",
    "ReallocationStats",
    "SetAssocPolicy",
    "Nossd",
    "WriteThrough",
    "WriteAround",
    "WriteBack",
    "LeavO",
    "ContentModel",
    "DedupWriteThrough",
    "MirroredWriteBack",
    "JournaledWriteBack",
    "OrderedWriteBack",
    "WecWriteThrough",
]
