"""JSON file formats for chains, flows and bound reports.

Chain file:   {"name": str, "states": [str, ...], "P": [[float, ...], ...]}
Flow file:    {"base": str, "target": str,
               "paths": [{"path": [int, ...], "mass": float}, ...]}

Probabilities are written with Python's shortest round-trip float
representation (17 significant digits when needed), so a save/load cycle
reproduces the matrix bit for bit.  An optional "meta" object (for instance
the seed of a random generator) is preserved on read but ignored otherwise.
"""

from __future__ import annotations

import json

from .chains import Chain, build_chain
from .errors import DimensionMismatch, MixboundsError, _real
from .flows import Flow, FlowPath


def chain_to_dict(chain: Chain, meta: dict | None = None) -> dict:
    out = {
        "name": chain.name,
        "states": list(chain.labels),
        "P": chain.P.tolist(),
    }
    if meta:
        out["meta"] = meta
    return out


def chain_from_dict(data: dict) -> Chain:
    try:
        states = data["states"]
        P = data["P"]
    except (KeyError, TypeError):
        raise MixboundsError("chain JSON needs 'states' and 'P' fields") from None
    return build_chain(states, P, name=data.get("name"))


def save_chain(chain: Chain, path, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(chain_to_dict(chain, meta), fh, indent=2)
        fh.write("\n")


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad syntax, bytes that are not UTF-8, an over-long integer
            raise MixboundsError(f"{path}: not valid JSON ({exc})") from None


def load_chain(path) -> Chain:
    return chain_from_dict(_read_json(path))


def flow_to_dict(flow: Flow) -> dict:
    return {
        "base": flow.base.name,
        "target": flow.target.name,
        "paths": [{"path": list(p.states), "mass": float(p.mass)} for p in flow.paths],
    }


def flow_from_dict(data: dict, base: Chain, target: Chain) -> Flow:
    """Attach a stored path list to its chains; names must match when present."""
    if not isinstance(data, dict) or not isinstance(data.get("paths", []), list):
        raise MixboundsError("flow JSON must be an object with a 'paths' list")
    for key, chain in (("base", base), ("target", target)):
        stored = data.get(key)
        if stored is not None and stored != chain.name:
            raise MixboundsError(f"flow file {key} is {stored!r}, got chain {chain.name!r}")
    paths = []
    for item in data.get("paths", []):
        try:
            states, mass = tuple(item["path"]), item["mass"]
            if any(type(s) is not int for s in states) or type(mass) not in (int, float):
                raise TypeError  # JSON integers and numbers only: no bools or strings
        except (KeyError, TypeError):
            raise MixboundsError(
                f"flow path {item!r} needs a 'path' of state indices and a numeric 'mass'"
            ) from None
        if any(not 0 <= s < base.n for s in states):
            raise DimensionMismatch(f"path {states} leaves the state space")
        paths.append(FlowPath(states, _real(mass, f"mass of flow path {list(states)}", MixboundsError)))
    return Flow(base, target, paths)


def save_flow(flow: Flow, path) -> None:
    with open(path, "w") as fh:
        json.dump(flow_to_dict(flow), fh, indent=2)
        fh.write("\n")


def load_flow(path, base: Chain, target: Chain) -> Flow:
    return flow_from_dict(_read_json(path), base, target)
