"""Lightweight structured logging for experiments.

The library does not configure the root logger; it only creates namespaced
loggers under ``repro.*`` so applications embedding the library keep control
of handlers and levels.  :func:`get_logger` adds a ``NullHandler`` the first
time a name is requested to avoid "no handler" warnings when used as a
library.
"""

from __future__ import annotations

import logging
from typing import Optional


def get_logger(name: str, *, level: Optional[int] = None) -> logging.Logger:
    """Return a namespaced logger under the ``repro`` hierarchy.

    Parameters
    ----------
    name:
        Dotted suffix, e.g. ``"core.dynamics"``; prefixed with ``repro.`` if
        not already.
    level:
        Optional explicit level to set on the logger (does not touch handlers).
    """
    if not name.startswith("repro"):
        name = f"repro.{name}"
    logger = logging.getLogger(name)
    # Keyed off the logger's own handlers, not a module-global name set: the
    # logging manager owns logger lifetimes, so a side table desyncs the
    # moment the manager is reset (test harnesses do) and then either leaks
    # or double-adds handlers.
    if not any(isinstance(h, logging.NullHandler) for h in logger.handlers):
        logger.addHandler(logging.NullHandler())
    if level is not None:
        logger.setLevel(level)
    return logger
