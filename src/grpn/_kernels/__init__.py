"""The per-element kernel of the theorem sweep.

There is one kernel, the pure-Python ``_fallback.theorem_stats``;
``signs.verify_theorem`` reads it through ``get_kernel()``.  ``BACKEND``,
``BACKENDS`` and ``get_kernel(name)`` stay because the ``perfbench`` harness
reads them: it records ``BACKEND`` in a run's environment and times every
kernel in ``BACKENDS``.
"""

from ._fallback import theorem_stats

BACKEND = "python"
BACKENDS = {BACKEND: theorem_stats}


def get_kernel(backend=None):
    """The kernel, or the one named by ``backend`` (None picks the default)."""
    if backend is None:
        return theorem_stats
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}; have {sorted(BACKENDS)}")
