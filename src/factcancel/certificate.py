"""The per-k exact denominator certificate shared by all certifying modules."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import mpmath

from .arith import DEFAULT_DIGITS


@dataclass(frozen=True)
class CancellationCertificate:
    """Exact divisibility verdict for one cutoff k.

    psi_k is the measured least common denominator; bound_k the proved
    divisor (None when no bound applies, e.g. non-commuting Fuchsian
    systems, where only the measurement is reported); divides is the exact
    verdict psi_k | bound_k.  log_ratio_per_k = ln(psi_k)/k and
    asymptotic_constant are informational reals, computed at `digits`
    decimal digits.  The JSON form carries "digits" only when it is not the
    default 50, so default-precision output keeps its established shape.
    """

    k: int
    psi_k: int
    bound_k: Optional[int]
    divides: Optional[bool]
    log_ratio_per_k: float
    asymptotic_constant: Optional[float]
    digits: int = DEFAULT_DIGITS

    def to_dict(self) -> dict:
        d = {
            "k": self.k,
            "psi_k": str(self.psi_k),
            "bound_k": None if self.bound_k is None else str(self.bound_k),
            "divides": self.divides,
            "log_ratio_per_k": self.log_ratio_per_k,
            "asymptotic_constant": self.asymptotic_constant,
        }
        if self.digits != DEFAULT_DIGITS:
            d["digits"] = self.digits
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "CancellationCertificate":
        return CancellationCertificate(
            k=d["k"],
            psi_k=int(d["psi_k"]),
            bound_k=None if d["bound_k"] is None else int(d["bound_k"]),
            divides=d["divides"],
            log_ratio_per_k=d["log_ratio_per_k"],
            asymptotic_constant=d["asymptotic_constant"],
            digits=d.get("digits", DEFAULT_DIGITS),
        )

    @staticmethod
    def from_json(s: str) -> "CancellationCertificate":
        return CancellationCertificate.from_dict(json.loads(s))


def make_certificate(
    k: int,
    psi_k: int,
    bound_k: Optional[int],
    asymptotic_constant=None,
    digits: int = DEFAULT_DIGITS,
) -> CancellationCertificate:
    """Assemble a certificate; the divisibility verdict is recomputed here."""
    divides = None if bound_k is None else (bound_k % psi_k == 0)
    with mpmath.workdps(digits):
        log_ratio = float(mpmath.log(psi_k) / k) if k > 0 else 0.0
    const = None if asymptotic_constant is None else float(asymptotic_constant)
    return CancellationCertificate(
        k=k,
        psi_k=psi_k,
        bound_k=bound_k,
        divides=divides,
        log_ratio_per_k=log_ratio,
        asymptotic_constant=const,
        digits=digits,
    )
