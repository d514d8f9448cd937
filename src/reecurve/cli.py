"""The whole package in one import, with the command-line entry point.

A command run by ``python -m reecurve`` or the ``reecurve`` script loads
only its own modules (see reecurve.commands).  Importing this module loads
every module of the package first, for code that patches them from
outside; its main is the same function.
"""

from . import gf, hasse, identities, orders, params  # noqa: F401
from . import ring, series, support, weierstrass  # noqa: F401
from .commands import build_parser, main

__all__ = ["build_parser", "main"]

if __name__ == "__main__":
    raise SystemExit(main())
