"""Lazy public names for the packages that import no submodule up front.

``repro.experiments``, ``repro.algorithms`` and ``repro.substrate`` list
their public names in a name -> submodule table and resolve each name
on first access (PEP 562), importing only the submodule that defines
it, so a campaign process loads the code its cells run and no more.
"""

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Optional, Tuple


def lazy_exports(
    package: str,
    submodule_of: Mapping[str, str],
    aliases: Optional[Mapping[str, str]] = None,
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` for ``package``.

    ``submodule_of`` maps each public name to the submodule that defines
    it; ``aliases`` maps a public name to the name its submodule gives
    it, where the two differ.  A resolved name is cached in the
    package's namespace, so ``__getattr__`` runs once per name.
    """
    namespace: Dict[str, object] = vars(sys.modules[package])
    aliases = aliases or {}

    def __getattr__(name: str) -> object:
        try:
            module = submodule_of[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f".{module}", package),
                        aliases.get(name, name))
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(submodule_of))

    return __getattr__, __dir__
