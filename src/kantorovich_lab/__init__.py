"""Kantorovich-type seminorms and convergence experiments for signed measures.

``import kantorovich_lab`` loads ``measures``, ``reports`` and ``transport``;
the experiment modules load on first access.
"""

import importlib
import sys

from .measures import (
    PseudometricSpace,
    QuotientMap,
    SignedMeasure,
    barycenter,
    jordan_decompose,
    load_measure,
    pushforward,
    quotient,
    save_measure,
    total_variation,
)
from .transport import (
    Coupling,
    LipschitzWitness,
    brute_force_dual,
    k_norm,
    kernel_backend,
    kq_norm,
    kr_norm,
    wasserstein_q,
)

__version__ = "0.1.0"

__all__ = [
    "PseudometricSpace",
    "SignedMeasure",
    "QuotientMap",
    "Coupling",
    "LipschitzWitness",
    "jordan_decompose",
    "total_variation",
    "quotient",
    "pushforward",
    "barycenter",
    "kr_norm",
    "k_norm",
    "kq_norm",
    "wasserstein_q",
    "brute_force_dual",
    "kernel_backend",
    "load_measure",
    "save_measure",
    "__version__",
]

#: The experiment modules, which ``import kantorovich_lab`` does not load.
_EXPERIMENTS = ("convergence", "counterexamples", "logconcave", "stable")


def __getattr__(name):
    """Load an experiment module on first access (PEP 562)."""
    if name not in _EXPERIMENTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{name}")
    cli = sys.modules.get(f"{__name__}.cli")
    if cli is not None:
        # before anyone can patch the module: see the note above cli._bind
        cli._bind(name)
    return module


def __dir__():
    return sorted({*globals(), *_EXPERIMENTS})
