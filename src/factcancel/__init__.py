"""Exact per-k denominator certificates for falling-factorial calculus,
Fuchsian derivative matrices, hypergeometric systems, and polynomial-ring
differential operators.

The public names below are resolved on first access (PEP 562), so
``import factcancel`` loads no submodule and each CLI subcommand pays only
for the modules of the family it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "CancellationCertificate",
    "make_certificate",
    "MatQ",
    "FuchsianSystem",
    "HyperParams",
    "__version__",
]

#: public name -> the submodule that defines it
_LAZY = {
    "CancellationCertificate": "certificate",
    "make_certificate": "certificate",
    "MatQ": "matfun",
    "FuchsianSystem": "fuchs",
    "HyperParams": "hyper",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
