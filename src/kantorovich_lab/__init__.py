"""Kantorovich-type seminorms and convergence experiments for signed measures.

``import kantorovich_lab`` loads ``measures`` and ``transport``; the
experiment modules load on first access.
"""

import importlib

from .measures import (
    PseudometricSpace,
    QuotientMap,
    SignedMeasure,
    pushforward,
    quotient,
    total_variation,
)
from .transport import (
    Coupling,
    LipschitzWitness,
    brute_force_dual,
    k_norm,
    kq_norm,
    kr_norm,
    wasserstein_q,
)
from .transport._simplex import kernel_backend

__version__ = "0.1.0"

__all__ = [
    "PseudometricSpace",
    "SignedMeasure",
    "QuotientMap",
    "Coupling",
    "LipschitzWitness",
    "total_variation",
    "quotient",
    "pushforward",
    "kr_norm",
    "k_norm",
    "kq_norm",
    "wasserstein_q",
    "brute_force_dual",
    "kernel_backend",
    "__version__",
]

#: The experiment modules, which ``import kantorovich_lab`` does not load.
_EXPERIMENTS = ("convergence", "counterexamples", "logconcave", "stable")


def __getattr__(name):
    """Load an experiment module on first access (PEP 562)."""
    if name not in _EXPERIMENTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")


def __dir__():
    return sorted({*globals(), *_EXPERIMENTS})
