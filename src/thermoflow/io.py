"""JSON serialization for models and potentials.

Schemas
-------
SFT:       { "symbols": ["name", ...], "transitions": [[0|1, ...], ...] }
           (symbol names are presentation-only; indices are canonical)
Roof:      { "roof": [r_0, ..., r_{n-1}] }
Graph:     { "vertices": n, "edges": [{"from": i, "to": j, "length": q}] }
           Roof values and lengths follow one rule (`parse_length`): a
           string such as "1/3" or "0.1" is parsed exactly, a number is
           kept as read (a float is the binary fraction it stores).  A
           value that is not a binary fraction must be a string for
           closed-orbit sums
Potential: { "type": "cylinder", "width": w, "table": {"word": value} }
"""

from __future__ import annotations

import json
from fractions import Fraction

from .sft import Sft
from .suspension import Roof
from .thermo import CylinderPotential, zero_potential

__all__ = [
    "load_sft",
    "load_roof",
    "load_graph",
    "load_potential",
    "parse_length",
]


def load_sft(obj) -> tuple:
    """(Sft, symbol names) from the schema dict."""
    trans = obj["transitions"]
    sft = Sft(trans)
    names = obj.get("symbols") or [str(i) for i in range(sft.n_symbols)]
    if len(names) != sft.n_symbols:
        raise ValueError("symbols length does not match transitions")
    return sft, list(names)


def load_roof(obj) -> Roof:
    return Roof([parse_length(v) for v in obj["roof"]])


def parse_length(q):
    """A roof value or edge length: a string is parsed exactly as a
    Fraction, a number is returned as read."""
    return Fraction(q) if isinstance(q, str) else q


def load_graph(obj):
    from .graph import MetricGraph
    edges = [(e["from"], e["to"], parse_length(e["length"]))
             for e in obj["edges"]]
    return MetricGraph(int(obj["vertices"]), edges)


def load_potential(obj):
    kind = obj.get("type", "cylinder")
    if kind == "cylinder":
        table = {}
        for key, val in obj["table"].items():
            word = tuple(int(c) for c in key.split(",")) \
                if "," in key else tuple(int(c) for c in key)
            table[word] = float(val)
        if not table and int(obj.get("width", 1)) == 1:
            return zero_potential()
        return CylinderPotential(int(obj["width"]), table)
    if kind == "zero":
        return zero_potential()
    raise ValueError(f"unknown potential type {kind!r}")


def read_json(path):
    with open(path) as f:
        return json.load(f)
