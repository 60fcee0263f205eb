"""Per-check verification records shared by the certificate modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """One sign-condition or bound check: what was evaluated, on which domain,
    how badly the claimed sign/bound was violated, and the verdict."""

    name: str
    domain: dict
    worst_signed_residual: float
    verdict: str
    closed_form_mismatch: float = math.nan
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"
