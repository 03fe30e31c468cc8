"""The per-k exact certificate, and its bound and constant, shared by all families."""

from __future__ import annotations

import decimal
import json
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterator, Optional

from . import arith
from .arith import DEFAULT_DIGITS


@dataclass(frozen=True)
class CancellationCertificate:
    """Exact divisibility verdict for one cutoff k.

    psi_k is the measured least common denominator; bound_k the proved
    divisor (None when no bound applies, e.g. non-commuting Fuchsian
    systems, where only the measurement is reported); divides is the exact
    verdict psi_k | bound_k.  log_ratio_per_k = ln(psi_k)/k and
    asymptotic_constant are informational reals, computed with the standard
    library's correctly rounded decimal arithmetic at `digits` decimal
    digits and then rounded to float.  The JSON form carries "digits" only
    when it is not the default 50, so default-precision output keeps its
    established shape.
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
    c = decimal.Context(prec=digits)
    log_ratio = float(c.divide(c.ln(psi_k), k)) if k > 0 else 0.0
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


def growth_constant(scale: int, b: int, shift: int, digits: int) -> float:
    """scale * b * e^(chi(b) + shift), chi(b) = sum over primes p | b of
    ln(p)/(p-1): the asymptotic constant of every family's certificate,
    computed at `digits` decimal digits (arith.chi is the mpmath oracle)."""
    c = decimal.Context(prec=digits)
    chi = decimal.Decimal(0)
    for p in arith.prime_factors(b):
        chi = c.add(chi, c.divide(c.ln(p), p - 1))
    return float(c.multiply(scale * b, c.exp(c.add(chi, shift))))


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
