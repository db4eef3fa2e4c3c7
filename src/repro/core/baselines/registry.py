"""SOTA baseline names and the system configurations they run under.

Each baseline is modelled by the mechanism this paper attributes to it:

* **Trans-FW** [19] (HPCA'23) forwards a walk's memory accesses to the
  GPU that holds the page-table pages.  Remote requests still converge
  at the IOMMU ("remote address translation requests still burden the
  IOMMU", §V-B), and with a centralized global page table only the leaf
  fetch can be forwarded to the page's home GPM.  So Trans-FW is the
  baseline with the IOMMU walk shortened by one level's memory access
  (500 -> 450 cycles).  Under the saturated IOMMU this yields the modest
  ~1.1x the paper attributes to Trans-FW at wafer scale.  The shared
  baseline already includes Trans-FW's cuckoo-filter bypass, which the
  paper adopts as its baseline.
* **Valkyrie** [7] (PACT'20) exploits inter-TLB locality: a missing GPM
  probes the L2 TLB of its nearest neighbour before going remote
  (:class:`~repro.core.policy.ValkyriePolicy`).
* **Barre (Barre Chord)** [14] (ISCA'24) finds reuse inside the IOMMU's
  PW-queue: when a walk completes, identical queued requests are answered
  without their own walks.  That is the PW-queue revisit HDPAT also
  incorporates (§IV-F), so Barre is the baseline with ``pw_queue_revisit``
  on and nothing else; its benefit is bounded by the PW-queue size.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.hdpat import HDPATConfig, PeerCachingScheme
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError

SOTA_NAMES = ("transfw", "valkyrie", "barre")


def sota_system_config(name: str, base: SystemConfig) -> SystemConfig:
    """The system configuration a SOTA baseline runs under."""
    if name == "transfw":
        return replace(
            base,
            hdpat=HDPATConfig(),
            iommu=replace(base.iommu, walk_latency=450),
        )
    if name == "valkyrie":
        return base.with_hdpat(
            HDPATConfig(peer_caching=PeerCachingScheme.VALKYRIE)
        )
    if name == "barre":
        return base.with_hdpat(HDPATConfig(pw_queue_revisit=True))
    raise ConfigurationError(f"unknown SOTA baseline {name!r}")
