"""JSON serialization of market specs and reduction plans.

Every input and output artifact of the command line is a JSON document;
numbers are IEEE-754 doubles in decimal text.  Driver and Brownian
indices are 0-based everywhere.
"""

from __future__ import annotations

import json

from .densities import Density
from .model import ContinuousJumpSpec, DiscreteJumpSpec, MarketSpec
from .reduction import ContinuousPlan, DiscretePlan
from .timefns import TimeFunction

__all__ = [
    "market_to_json",
    "market_from_json",
    "plan_from_json",
    "dump_json",
    "load_json",
]


def _fn_doc(fn: TimeFunction):
    if fn.kind == "const":
        return fn.constant_value
    return fn.to_json()


def market_to_json(spec: MarketSpec) -> dict:
    doc = {
        "horizon": spec.horizon,
        "rate": _fn_doc(spec.rate),
        "brownians": spec.n_brownians,
        "stocks": [
            {
                "s0": spec.s0[i],
                "alpha": _fn_doc(spec.alpha[i]),
                "sigma": [_fn_doc(fn) for fn in spec.sigma[i]],
            }
            for i in range(spec.n)
        ],
        "jumps": None,
    }
    jumps = spec.jumps
    if isinstance(jumps, DiscreteJumpSpec) and jumps.n_drivers:  # else null
        doc["jumps"] = {
            "type": "discrete",
            "intensities": [_fn_doc(fn) for fn in jumps.intensities],
            "loadings": [[_fn_doc(fn) for fn in row] for row in jumps.loadings],
        }
        if jumps.marks is not None:
            doc["jumps"]["marks"] = list(jumps.marks)
    elif isinstance(jumps, ContinuousJumpSpec):
        doc["jumps"] = {
            "type": "density",
            **jumps.density.to_json(),
            "total_intensity": _fn_doc(jumps.total_intensity),
        }
    return doc


def market_from_json(doc: dict) -> MarketSpec:
    """The market a document describes; the spec types coerce its numbers
    and time-function documents."""
    stocks = doc["stocks"]
    jumps_doc = doc.get("jumps")
    jumps = None
    if jumps_doc:
        if jumps_doc["type"] == "discrete":
            jumps = DiscreteJumpSpec(
                intensities=jumps_doc["intensities"],
                loadings=jumps_doc["loadings"],
                marks=jumps_doc.get("marks"),
            )
        elif jumps_doc["type"] == "density":
            jumps = ContinuousJumpSpec(
                density=Density.from_json(jumps_doc),
                total_intensity=jumps_doc["total_intensity"],
            )
        else:
            raise ValueError(f"unknown jumps type {jumps_doc['type']!r}")
    n_brownians = int(doc.get("brownians", len(stocks[0].get("sigma", []))))
    spec = MarketSpec(
        horizon=float(doc["horizon"]),
        s0=[s["s0"] for s in stocks],
        alpha=[s["alpha"] for s in stocks],
        rate=doc["rate"],
        sigma=[s.get("sigma", []) for s in stocks],
        jumps=jumps,
    )
    if spec.n_brownians != n_brownians:
        raise ValueError(
            f"stocks carry {spec.n_brownians} sigma columns but the document "
            f"declares {n_brownians} Brownian drivers"
        )
    return spec


def plan_from_json(doc: dict):
    """The plan a document describes; the plan types coerce its lists."""
    keep = doc.get("keep_brownians")
    if "cells" in doc:
        return ContinuousPlan(
            cells=doc["cells"],
            neglect_remainder=bool(doc.get("neglect_remainder", False)),
            keep_brownians=keep,
        )
    return DiscretePlan(
        retain=doc.get("retain", ()),
        batches=doc.get("batches", ()),
        neglect=doc.get("neglect", ()),
        keep_brownians=keep,
    )


def dump_json(doc, path=None, pretty: bool = True) -> str:
    """Canonical JSON text: sorted keys, no whitespace variance, and strict:
    a non-finite float is written as the string "Infinity", "-Infinity" or
    "NaN"."""
    indent = 2 if pretty else None
    try:
        text = json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError:  # read back, each non-finite constant becomes its name
        doc = json.loads(json.dumps(doc), parse_constant=str)
        text = json.dumps(doc, sort_keys=True, indent=indent)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)
