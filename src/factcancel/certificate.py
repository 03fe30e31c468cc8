"""The per-k exact certificate, and its bound and constant, shared by all families."""

from __future__ import annotations

import decimal
import json
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterator, Optional

from . import arith

#: the one decimal context of the certificate reals: 50 digits, far past the
#: double that each real is rounded to
_DEC = decimal.Context(prec=arith.DEFAULT_DIGITS)


@dataclass(frozen=True)
class CancellationCertificate:
    """Exact divisibility verdict for one cutoff k.

    psi_k is the measured least common denominator; bound_k the proved
    divisor (None when no bound applies, e.g. non-commuting Fuchsian
    systems, where only the measurement is reported); divides is the exact
    verdict psi_k | bound_k.  log_ratio_per_k = ln(psi_k)/k and
    asymptotic_constant are informational reals, computed with the standard
    library's correctly rounded decimal arithmetic at 50 digits and then
    rounded to float.
    """

    k: int
    psi_k: int
    bound_k: Optional[int]
    divides: Optional[bool]
    log_ratio_per_k: float
    asymptotic_constant: Optional[float]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "psi_k": str(self.psi_k),
            "bound_k": None if self.bound_k is None else str(self.bound_k),
            "divides": self.divides,
            "log_ratio_per_k": self.log_ratio_per_k,
            "asymptotic_constant": self.asymptotic_constant,
        }

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
        )

    @staticmethod
    def from_json(s: str) -> "CancellationCertificate":
        return CancellationCertificate.from_dict(json.loads(s))


def make_certificate(
    k: int,
    psi_k: int,
    bound_k: Optional[int],
    asymptotic_constant=None,
) -> CancellationCertificate:
    """Assemble a certificate; the divisibility verdict is recomputed here."""
    divides = None if bound_k is None else (bound_k % psi_k == 0)
    log_ratio = float(_DEC.divide(_DEC.ln(psi_k), k)) if k > 0 else 0.0
    const = None if asymptotic_constant is None else float(asymptotic_constant)
    return CancellationCertificate(
        k=k,
        psi_k=psi_k,
        bound_k=bound_k,
        divides=divides,
        log_ratio_per_k=log_ratio,
        asymptotic_constant=const,
    )


def growth_constant(scale: int, b: int, shift: int) -> float:
    """scale * b * e^(chi(b) + shift), chi(b) = sum over primes p | b of
    ln(p)/(p-1): the asymptotic constant of every family's certificate,
    computed at 50 decimal digits (arith.chi is the mpmath oracle)."""
    chi = decimal.Decimal(0)
    for p in arith.prime_factors(b):
        chi = _DEC.add(chi, _DEC.divide(_DEC.ln(p), p - 1))
    return float(_DEC.multiply(scale * b, _DEC.exp(_DEC.add(chi, shift))))


def bound_steps(b: int, k_max: int, base: int = 1, d_exp: int = 0) -> Iterator[int]:
    """(base b)^k d_k^d_exp prod_{p|b} p^{tau_p(k)} for k = 1..k_max: the
    divisor shape behind every family's bound_k, built incrementally.

    prod_{p|b} p^{tau_p(k)} is the product over n <= k of the b-part of n,
    peeled off n by repeated gcds, so b is never factored.
    """
    step = base * b
    out = d_k = 1
    for n in range(1, k_max + 1):
        out *= step * (n // gcd(d_k, n)) ** d_exp
        d_k = lcm(d_k, n)
        g = gcd(n, b)
        while g > 1:
            out *= g
            n //= g
            g = gcd(n, g)
        yield out
