"""State-of-the-art comparison points (§V-A / Figure 14).

Every baseline is a :class:`~repro.config.SystemConfig` value, built by
:func:`~repro.core.baselines.registry.sota_system_config`; the config
alone decides how a run behaves.
"""

from repro.core.baselines.registry import SOTA_NAMES, sota_system_config

__all__ = ["SOTA_NAMES", "sota_system_config"]
