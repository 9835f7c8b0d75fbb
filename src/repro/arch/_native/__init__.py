"""Optional self-built native (C) sweep kernel — the ``[native]`` extra.

``_sweep`` is a small CPython extension (``_sweepmodule.c``) compiled at
install time by ``setup.py`` (``Extension(..., optional=True)``): when no C
compiler is available the build step is skipped with a warning, the import
below fails, and :data:`HAVE_NATIVE` stays ``False`` — kernel resolution
(:func:`repro.arch.kernels.resolve_kernel`) then falls back to the
pure-Python sweep.  The kernel is a speed knob only, never a correctness
or identity dependency.

For an in-place development build (after which ``HAVE_NATIVE`` is True on
the next interpreter start)::

    python setup.py build_ext --inplace
"""

try:
    from repro.arch._native import _sweep
    HAVE_NATIVE = True
except ImportError:  # pragma: no cover - depends on the build environment
    _sweep = None
    HAVE_NATIVE = False

__all__ = ["HAVE_NATIVE", "_sweep"]
