"""JSON fixtures of every market kind.

A fixture is one JSON object: ``schema_version``, ``kind`` (the market's class
name) and every dataclass field of the market by name. Arrays are nested lists
in the market's own layout, and a market held in a field (``NestedMarket.base``)
is an object of the same form without ``schema_version``. The loader checks the
version, the kind and the keys; the market constructors check every value.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

import numpy as np

from .accel import checked_object
from .dynamic import DurableMarket
from .rcnl import NestedMarket
from .static_rcl import StaticMarket

SCHEMA_VERSION = 2

_KINDS = {cls.__name__: cls for cls in (StaticMarket, NestedMarket, DurableMarket)}


def _doc(mkt) -> dict:
    kind = type(mkt).__name__
    if _KINDS.get(kind) is not type(mkt):
        raise ValueError(f"{kind} is not a market kind; known: {list(_KINDS)}")
    doc = {"kind": kind}
    for f in fields(mkt):
        value = getattr(mkt, f.name)
        doc[f.name] = (_doc(value) if is_dataclass(value)
                       else value.tolist() if isinstance(value, np.ndarray) else value)
    return doc


def market_to_json(mkt) -> str:
    """The fixture of a StaticMarket, NestedMarket or DurableMarket."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **_doc(mkt)})


def _market(doc: dict, name: str):
    kind = doc.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"{name} kind {kind!r} is not one of {list(_KINDS)}")
    keys = [f.name for f in fields(cls)]
    checked_object(name, doc, ("kind", *keys), keys)
    return cls(**{k: _market(doc[k], f"{name} {k}") if isinstance(doc[k], dict) else doc[k]
                  for k in keys})


def market_from_json(text: str):
    """The market of a fixture, of the kind it names. ValueError for another
    schema_version, an unknown kind, or missing or unknown keys at any level."""
    doc = json.loads(text)
    version = doc.pop("schema_version", None) if isinstance(doc, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"fixture schema_version {version!r} is not {SCHEMA_VERSION}")
    return _market(doc, "fixture")
