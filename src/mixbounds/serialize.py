"""JSON file formats for chains, flows and bound reports.

Chain file:   {"name": str, "states": [str, ...], "P": [[float, ...], ...]}
Flow file:    {"base": str, "target": str,
               "paths": [{"path": [int, ...], "mass": float}, ...]}

Probabilities are written with Python's shortest round-trip float
representation (17 significant digits when needed), so a save/load cycle
reproduces P bit for bit.  pi is not stored but solved again from P, so a
chain that ``lazy``, ``multiply``, ``time_reversal`` or ``lazy_of`` built in
memory (each keeps its input's pi) can differ from its reload in pi's last
bits, and a flow built on one is refused against the other.  An optional
"meta" object (for instance the seed of a random generator) is preserved on
read but ignored otherwise.

This module reads only a document's structure.  Its contents are parsed by
the library's own constructors, ``build_chain`` and ``Flow``, and a flow is
validated on load and on save as ``validate_flow`` does, so a bad matrix or
path raises the same error however it arrived.  Both formats are written by
``_write_json``, which encodes before it opens the file.
"""

from __future__ import annotations

import json

from .chains import Chain, build_chain
from .errors import BadParams, MixboundsError
from .flows import Flow, FlowPath, _loads, _read


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
    _write_json(chain_to_dict(chain, meta), path)


def _write_json(data: dict, path) -> None:
    """Writes ``data`` as JSON indented by 2, and a newline.  The text is
    encoded before the file is opened, so a value JSON cannot encode, or one
    nested too deep for the encoder, raises BadParams and leaves the file on
    disk as it was."""
    try:
        text = json.dumps(data, indent=2)
    except (TypeError, ValueError, RecursionError) as exc:  # no JSON type, a circular reference, too deep
        raise BadParams(f"{path}: not writable as JSON ({exc})") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _read_json(path):
    """The document in the file; MixboundsError if it is no JSON, or nested
    too deep for the decoder."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax, bytes not UTF-8, an over-long integer, too deep
            raise MixboundsError(f"{path}: not valid JSON ({exc})") from None


def load_chain(path) -> Chain:
    return chain_from_dict(_read_json(path))


def flow_to_dict(flow: Flow) -> dict:
    """The document of a valid flow, read from its arrays a block at a time,
    so its states are JSON integers and its masses floats (a caller's may be
    numpy integers, or ints); no ``FlowPath`` is made, and a flow the library
    built is left without its ``paths``.  An invalid flow raises InvalidFlow,
    as it would at load, so no file holds a flow that would not load; a flow
    the library built already holds its validation."""
    _loads(flow)
    return {
        "base": flow.base.name,
        "target": flow.target.name,
        "paths": [{"path": list(states), "mass": mass}
                  for states, mass in _read(flow._states, flow._sizes, flow._mass)],
    }


def flow_from_dict(data: dict, base: Chain, target: Chain) -> Flow:
    """Attach a stored path list to its chains; names must match when present.
    Only the document's structure is checked here, and a fault in it names
    the item.  ``Flow`` parses each path's states and mass, and the flow is
    validated at once: a path or demand that breaks a rule raises InvalidFlow
    with ``validate_flow``'s first five violations, which the flow keeps."""
    if not isinstance(data, dict) or not isinstance(data.get("paths", []), list):
        raise MixboundsError("flow JSON must be an object with a 'paths' list")
    for key, chain in (("base", base), ("target", target)):
        stored = data.get(key)
        if stored is not None and stored != chain.name:
            raise MixboundsError(f"flow file {key} is {stored!r}, got chain {chain.name!r}")
    paths = []
    for item in data.get("paths", []):
        try:
            paths.append(FlowPath(tuple(item["path"]), item["mass"]))
        except (KeyError, TypeError):
            raise MixboundsError(f"flow path {item!r} needs a 'path' sequence and a 'mass'") from None
    flow = Flow(base, target, paths)
    _loads(flow)
    return flow


def save_flow(flow: Flow, path) -> None:
    _write_json(flow_to_dict(flow), path)


def load_flow(path, base: Chain, target: Chain) -> Flow:
    return flow_from_dict(_read_json(path), base, target)
