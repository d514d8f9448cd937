"""Exact Hasse-derivative calculus on Ree curves in characteristic three.

The names in __all__ load their modules on first use (PEP 562), so that
importing the package, as every command does, costs no module it does
not run.
"""

from importlib import import_module

# exported name -> the module that defines it
_HOMES = {
    "FrobeniusOrders": "orders",
    "OrderSequence": "orders",
    "order_sequence": "orders",
    "ReeParams": "params",
    "SymbolicIndex": "params",
    "ree_params": "params",
    "VanishingProfile": "weierstrass",
    "divisor_degree_audit": "weierstrass",
    "vanishing_orders": "weierstrass",
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
