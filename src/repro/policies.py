"""Names of the planning and recovery policies.

Kept apart from the machinery that implements them so the CLI can offer
them as argparse choices without importing the online scheduler, the DES
replay or the fault model (see docs/architecture.md, "Import boundaries").
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["ONLINE_POLICIES", "RECOVERY_POLICIES"]

#: Planning policies of :func:`repro.online.scheduler.simulate_online` —
#: registry lookups: lower-cased display names ("lp-hta", "hgos", "game")
#: or registered aliases ("cloud" → AllToC).
ONLINE_POLICIES: Tuple[str, ...] = ("lp-hta", "hgos", "game", "cloud")

#: Recovery policies of :func:`repro.faults.recovery.apply_recovery`, in
#: documentation order.
RECOVERY_POLICIES: Tuple[str, ...] = ("none", "retry", "degrade", "reassign")
