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

    def text_block(self) -> str:
        lines = [f"[{self.verdict.upper()}] {self.name}"]
        for key, val in self.domain.items():
            lines.append(f"    domain {key}: {val}")
        lines.append(f"    worst signed residual: {self.worst_signed_residual:.6e}")
        if not math.isnan(self.closed_form_mismatch):
            lines.append(f"    closed-form vs FD mismatch: {self.closed_form_mismatch:.3e}")
        for key, val in self.details.items():
            lines.append(f"    {key}: {val}")
        return "\n".join(lines)


def _kv_cell(mapping: dict) -> str:
    # detail values may be tuples; keep the cell comma-free for the flat CSV
    return ";".join(f"{k}={str(v).replace(',', ' ')}" for k, v in mapping.items())


def reports_to_csv(reports: list[VerificationReport], path) -> None:
    from .io import write_csv

    rows = []
    for r in reports:
        rows.append(
            (
                r.name,
                r.verdict,
                r.worst_signed_residual,
                r.closed_form_mismatch,
                _kv_cell(r.domain),
                _kv_cell(r.details),
            )
        )
    write_csv(
        path,
        ("check", "verdict", "worst_signed_residual", "closed_form_mismatch", "domain", "details"),
        rows,
    )
