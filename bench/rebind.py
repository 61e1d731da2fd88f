"""Temporarily replace a public name of the library with a wrapper around it.

Callers inside the library look these names up at call time (module globals
and class attributes), so rebinding them times or counts the calls from
outside without editing the library.
"""

from __future__ import annotations

import contextlib


@contextlib.contextmanager
def rebound(targets):
    """Rebind each ``(owner, attribute, factory)`` to ``factory(original)``.

    ``owner`` is a module or a class.  A classmethod is unwrapped for the
    factory and wrapped again, so ``Model.build(cfg)`` keeps working.  The
    originals are restored on exit, in reverse order, even on error.
    """
    saved = []
    try:
        for owner, attr, factory in targets:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(factory(raw.__func__))
            else:
                replacement = factory(raw)
            setattr(owner, attr, replacement)
            saved.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
