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
           A word is its symbol indices separated by commas, a trailing
           comma allowed ("10," is the one-symbol word 10, "1,0" two
           symbols), or without a comma one digit per symbol ("10" is
           the word 1, 0).  Every word has w symbols.  An empty table of
           width 1 (the default width) is phi = 0.
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
        width = int(obj.get("width", 1))
        table = {}
        for key, val in obj["table"].items():
            word = _word(key)
            if len(word) != width:
                raise ValueError(
                    f"potential key {key!r} reads as the word {word} of "
                    f"length {len(word)}, not the width {width} (a key "
                    f"without a comma has one symbol per digit)")
            table[word] = float(val)
        if not table and width == 1:
            return zero_potential()
        return CylinderPotential(width, table)
    if kind == "zero":
        return zero_potential()
    raise ValueError(f"unknown potential type {kind!r}")


def _word(key: str) -> tuple:
    """A potential table key as a word of symbol indices: comma-separated,
    with an optional trailing comma, or one digit per symbol when the key
    has no comma."""
    parts = key.split(",") if "," in key else list(key)
    if len(parts) > 1 and parts[-1] == "":
        parts.pop()
    try:
        return tuple(int(c) for c in parts)
    except ValueError:
        raise ValueError(f"potential key {key!r} is not a word of symbol "
                         f"indices") from None


def read_json(path):
    with open(path) as f:
        return json.load(f)
