"""Package namespaces that run their heavier modules on first use.

A command-line child without a bytecode cache compiles every module it
executes from source, so a package should execute only the modules its
caller touches.  lazy_exports gives a package two things:

* Each module named in `lazy` is created through importlib's LazyLoader and
  registered at once in sys.modules and on the package, unexecuted.  Anything
  that looks modules up there, or binds them with `from . import name`, finds
  them; the first attribute read (`name.X`, vars(), getattr) executes it.
* The package's public names are served by a PEP 562 __getattr__ that reads
  each one from its home module and caches it in the package's globals, so
  `from package import X` executes only X's home module.

On CPython 3.11 `import package.name` and `from .name import X` read the
module's __spec__ and so execute it: code that must leave a lazy module
unexecuted binds the module and reads `name.X` at call time.
"""
from __future__ import annotations

import importlib.util
import sys


def lazy_exports(namespace: dict, homes: dict[str, tuple[str, ...]], lazy: tuple[str, ...]):
    """Register the package's `lazy` submodules unexecuted, and serve its public names.

    namespace is the package's globals(), and homes maps each submodule to
    the public names it defines; every submodule named there is either in
    `lazy` or imported by the package itself.  Returns the package's
    __all__, __getattr__ and __dir__.
    """
    package = namespace["__name__"]
    for module_name in lazy:
        spec = importlib.util.find_spec(f"{package}.{module_name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = namespace[module_name] = module
        spec.loader.exec_module(module)
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(namespace[home_of[name]], name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home_of})

    return sorted(home_of), __getattr__, __dir__
