"""Two stubs that the benchmark still binds by name, and nothing else.

No route of the package solves through a dense simplex any more: every
optimum comes from the transportation simplex (``_transportation``).
``perfbench/tracer.py`` still binds ``simplex_max`` by name, and
``perfbench/run.py`` records ``kernel_backend()`` in its metadata, so both
names stay, like ``cli.thread_limit``, until ROADMAP item 1a retargets the
benchmark and deletes this module.
"""


def kernel_backend() -> str:
    """Always ``"python"``.  Kept only because the benchmark's metadata
    records it; it goes with this module in ROADMAP item 1a."""
    return "python"


def simplex_max(*args, **kwargs):
    """Raises: no dense simplex is left.  Kept only because the benchmark's
    tracer binds it by name; it goes with this module in ROADMAP item 1a."""
    raise RuntimeError("the dense simplex is gone: every optimum comes from the transportation simplex")
