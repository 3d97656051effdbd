"""BGG-complex combinatorics for the isotropic 2-Grassmannian iGr(2,2n).

Weyl-group and root machinery for type C_n, parabolic Hasse diagrams,
regular and singular orbit diagrams, Penrose-transform spectral pages,
assembly of the singular BGG complexes, exact verification of the
corresponding maximal vectors in generalized Verma modules, and the
big-cell geometry of the twistor double fibration.

The layers load lazily: `import bgg` imports none of them, and
`bgg.<layer>` (or `from bgg import <layer>`) imports that layer, and the
layers it uses, on first access.
"""

import importlib

__all__ = ["weyl", "parabolic", "orbits", "penrose", "verma", "geometry", "render"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
