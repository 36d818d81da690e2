"""Filter-then-verify query processing methods (the paper's base methods)."""

from __future__ import annotations

from ..isomorphism.verifier import Verifier
from .base import QueryResult, SubgraphQueryMethod
from .ctindex import CTIndexMethod
from .ggsx import GGSXMethod
from .grapes import GrapesMethod
from .naive import ScanMethod

__all__ = [
    "QueryResult",
    "SubgraphQueryMethod",
    "CTIndexMethod",
    "GGSXMethod",
    "GrapesMethod",
    "ScanMethod",
    "available_methods",
    "create_method",
]

#: Method names accepted by :func:`create_method`, mirroring the paper's
#: algorithm line-up (GGSX, Grapes, CT-Index; the paper's Grapes(6) is Grapes
#: under ``BatchConfig(num_workers=6)``) plus the scan baseline used in tests.
_FACTORY = {
    "scan": lambda **kwargs: ScanMethod(**kwargs),
    "ggsx": lambda **kwargs: GGSXMethod(**kwargs),
    "grapes": lambda **kwargs: GrapesMethod(**kwargs),
    "ctindex": lambda **kwargs: CTIndexMethod(**kwargs),
}


def available_methods() -> list[str]:
    """Names of the base methods that :func:`create_method` can build."""
    return sorted(_FACTORY)


def create_method(name: str, verifier: Verifier | None = None, **kwargs) -> SubgraphQueryMethod:
    """Instantiate a base method by name.

    Parameters
    ----------
    name:
        One of :func:`available_methods` (``"ggsx"``, ``"grapes"``,
        ``"ctindex"``, ``"scan"``).
    verifier:
        Optional shared :class:`~repro.isomorphism.verifier.Verifier`.
    kwargs:
        Method-specific options (e.g. ``max_path_length`` for GGSX/Grapes,
        ``tree_max_size`` / ``cycle_max_length`` / ``bitmap_bits`` for
        CT-Index).
    """
    try:
        factory = _FACTORY[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; expected one of {available_methods()}"
        ) from None
    return factory(verifier=verifier, **kwargs)
