"""The per-k exact certificate, and the one pass that assembles it for every
family from a spec: a stream of denominators D_n, b, the bound's base and
d_k exponent, a scale and the constant's shift."""

from __future__ import annotations

import decimal
import json
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Iterator, Optional

from . import arith

#: the one decimal context of the certificate reals: 50 digits, far past the
#: double that each real is rounded to
_DEC = decimal.Context(prec=arith.DEFAULT_DIGITS)


def _digits(n: int) -> str:
    """The decimal digits of n.  They go through decimal, which has no
    4,300-digit limit like str(int): a k = 3000 bound has more."""
    return str(decimal.Decimal(n))


def _from_digits(text) -> int:
    """The inverse of _digits, also without a length limit; text that is
    not an integer in decimal digits raises ValueError."""
    try:
        d = decimal.Decimal(text)
    except (decimal.InvalidOperation, TypeError):
        d = None
    if d is None or d.as_tuple().exponent != 0:  # also nan and inf
        raise ValueError(f"not an integer: {text!r}")
    return int(d)


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
            "psi_k": _digits(self.psi_k),
            "bound_k": None if self.bound_k is None else _digits(self.bound_k),
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
            psi_k=_from_digits(d["psi_k"]),
            bound_k=None if d["bound_k"] is None else _from_digits(d["bound_k"]),
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


def certificate_steps(
    dens: Iterable[int], b: int, k_max: int, base: int = 1, d_exp: int = 0
) -> Iterator[tuple[int, int]]:
    """(psi_k, bound_k) for k = 1..k_max: psi_k is the running lcm of the
    denominators dens yields for n = 0..k, bound_k the bound_steps value."""
    dens = iter(dens)
    psi = next(dens)
    for bound, D in zip(bound_steps(b, k_max, base, d_exp), dens):
        psi = lcm(psi, D)
        yield psi, bound


def certify(
    k: int, dens: Iterable[int], b: int, base=1, d_exp=0, scale=1, shift=0
) -> CancellationCertificate:
    """The certificate at k >= 1: psi_k against scale bound_k, with the
    constant growth_constant(base, b, shift), whose scale is always the
    bound's per-k base."""
    for psi, bound in certificate_steps(dens, b, k, base, d_exp):
        pass
    return make_certificate(k, psi, scale * bound, growth_constant(base, b, shift))
