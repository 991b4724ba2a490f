"""The per-element kernel of the theorem sweep.

There is one kernel, the pure-Python ``_fallback.theorem_kernel``.  Each
``get_kernel()`` call returns a fresh kernel holding its own store of the
statistics of every distinct multitableau it has met, and the last
permutation it was called with and that permutation's inv(sigma).  So one
sweep, which calls ``get_kernel()`` once, shares one store, and no state
carries from one sweep to the next.  ``BACKEND``, ``BACKENDS`` and
``get_kernel(name)`` stay because the ``perfbench`` harness reads them: it records ``BACKEND``
in a run's environment and times a kernel of every name in ``BACKENDS``.
"""

from ._fallback import theorem_kernel

BACKEND = "python"
BACKENDS = {BACKEND: theorem_kernel}


def get_kernel(backend=None):
    """A fresh kernel, of the backend named by ``backend`` (None picks the
    default)."""
    if backend is None:
        return theorem_kernel()
    try:
        return BACKENDS[backend]()
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}; have {sorted(BACKENDS)}")
