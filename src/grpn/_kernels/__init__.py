"""The per-leaf kernel of the theorem and admissible sweeps, which each
get it once per sweep and call it on every leaf of the shape blocks they
walk (``signs._blocks``).

There is one kernel, the pure-Python ``_fallback.theorem_stats``: it gives
one leaf's (inv(sigma), on a bit mask, and color sum) and keeps no state,
so ``get_kernel()`` returns the same function every time.  The package
stays, with ``BACKEND``, ``BACKENDS`` and ``get_kernel(name)``, because the
``perfbench`` harness reads them: it records ``BACKEND`` in a run's
environment, times a kernel of every name in ``BACKENDS``, and counts the
sweeps' kernel calls by wrapping ``signs.get_kernel``.  They go once the
benchmark declares its per-layer metrics by stage rather than by function.
"""

from ._fallback import theorem_stats

BACKEND = "python"
BACKENDS = {BACKEND: theorem_stats}


def get_kernel(backend=None):
    """The kernel of the backend named by ``backend`` (None picks the
    default)."""
    try:
        return BACKENDS[BACKEND if backend is None else backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}; have {sorted(BACKENDS)}")
