"""TLB structures: set-associative LRU TLBs, MSHR files, and the per-GPM
translation hierarchy (L1 vector TLB -> L2 TLB -> cuckoo filter -> last-level
TLB -> GMMU), per Table I and Figure 1(b)."""

from repro.tlb.hierarchy import LocalProbeResult, TranslationHierarchy
from repro.tlb.mshr import MSHRFile
from repro.tlb.tlb import SetAssociativeTLB

__all__ = [
    "LocalProbeResult",
    "MSHRFile",
    "SetAssociativeTLB",
    "TranslationHierarchy",
]
