"""HDPAT mechanism configuration.

Each mechanism from §IV is independently switchable so the ablation study
(Fig. 15) can evaluate every combination the paper does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError


class PeerCachingScheme(enum.Enum):
    """Which peer-caching strategy handles remote translations before the
    IOMMU (§IV-B through §IV-E, plus the §V-A comparison points)."""

    NONE = "none"
    ROUTE = "route"  # §IV-B: cache along the XY route to the CPU
    CONCENTRIC = "concentric"  # §IV-C: one attempt per concentric layer
    DISTRIBUTED = "distributed"  # §V-A baseline: two symmetric groups
    CLUSTER_ROTATION = "cluster_rotation"  # §IV-D/E: full HDPAT placement
    VALKYRIE = "valkyrie"  # §V-A SOTA: probe the nearest neighbour's L2 TLB


@dataclass(frozen=True)
class HDPATConfig:
    """Mechanism switches plus the tunables from the design sections."""

    peer_caching: PeerCachingScheme = PeerCachingScheme.NONE
    use_redirection: bool = False
    #: Contiguous PTEs delivered per walk, counting the demand PTE
    #: (Fig. 18 sweeps 1 / 4 / 8; 1 disables prefetching).
    prefetch_degree: int = 1
    #: Concentric caching layers C (§IV-C; default 2).
    num_layers: int = 2
    #: Minimum IOMMU access count before a PTE is pushed to a peer (§IV-F).
    push_threshold: int = 2
    #: Rotate layer numbering 180 degrees between layers (§IV-E).
    use_rotation: bool = True
    #: Revisit the PW-queue for identical pending requests after each walk.
    pw_queue_revisit: bool = False

    def __post_init__(self) -> None:
        if self.prefetch_degree < 1:
            raise ConfigurationError("prefetch_degree counts the demand PTE; >= 1")
        if self.num_layers < 0:
            raise ConfigurationError("num_layers (C) cannot be negative")
        if self.push_threshold < 1:
            raise ConfigurationError("push_threshold must be >= 1")

    @property
    def prefetch_extra(self) -> int:
        """Extra sequential PTEs walked beyond the demand one."""
        return self.prefetch_degree - 1

    @property
    def peer_caching_enabled(self) -> bool:
        return self.peer_caching is not PeerCachingScheme.NONE

    # ------------------------------------------------------------------
    # Named configurations used throughout the evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def baseline() -> "HDPATConfig":
        """Naive centralized translation: everything at the IOMMU."""
        return HDPATConfig()

    @staticmethod
    def full(prefetch_degree: int = 4) -> "HDPATConfig":
        """All HDPAT mechanisms on (the paper's headline configuration)."""
        return HDPATConfig(
            peer_caching=PeerCachingScheme.CLUSTER_ROTATION,
            use_redirection=True,
            prefetch_degree=prefetch_degree,
            pw_queue_revisit=True,
        )

    @staticmethod
    def ablation(name: str) -> "HDPATConfig":
        """The named ablation points of Figure 15."""
        table = {
            "baseline": HDPATConfig(),
            "route": HDPATConfig(peer_caching=PeerCachingScheme.ROUTE),
            "concentric": HDPATConfig(peer_caching=PeerCachingScheme.CONCENTRIC),
            "distributed": HDPATConfig(peer_caching=PeerCachingScheme.DISTRIBUTED),
            # The §IV-D base design pushes every walked PTE to its holders;
            # the selective threshold is §IV-F's refinement and is applied
            # in the redirection/prefetch/full configurations.
            "cluster_rotation": HDPATConfig(
                peer_caching=PeerCachingScheme.CLUSTER_ROTATION,
                push_threshold=1,
            ),
            "redirection": HDPATConfig(
                peer_caching=PeerCachingScheme.CLUSTER_ROTATION,
                use_redirection=True,
                pw_queue_revisit=True,
            ),
            "prefetch": HDPATConfig(
                peer_caching=PeerCachingScheme.CLUSTER_ROTATION,
                prefetch_degree=4,
            ),
            "hdpat": HDPATConfig.full(),
        }
        try:
            return table[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown ablation {name!r}; choose from {sorted(table)}"
            ) from None
