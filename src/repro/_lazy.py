"""Lazy package exports (PEP 562), shared by the package ``__init__`` modules.

A package names the submodule behind each of its public names, and a
submodule is imported when one of its names is first read.  ``import
repro.cli`` therefore loads only the modules a command runs, not every
module a package re-exports.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``exports`` maps each submodule, relative to ``package``, to the public
    names it defines.  A name is resolved once and then cached in the
    package's namespace.
    """
    sources = {
        name: f"{package}.{submodule}"
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        source = sources.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # __import__, unlike importlib.import_module, shows in -X importtime.
        __import__(source)
        value = getattr(sys.modules[source], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *sources})

    return __getattr__, __dir__, list(sources)
