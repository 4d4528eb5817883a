"""File formats: instance JSON, arrival-order JSON, trace text.

An instance file is a UTF-8 JSON document ``{"n": int, "edges": [{"u": int,
"v": int, "predicted": "num/den", "actual": "num/den"}, ...]}`` where edge
order defines the edge ids.  Serialization is canonical (two-space indent,
fixed key order, ``num/den`` weights, trailing newline), so regenerating a
file yields identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .engine import ArrivalOrder, RunTrace
from .exceptions import InstanceError
from .graphs import WmstInstance, validate_instance
from .rationals import format_fraction


def instance_to_payload(instance: WmstInstance) -> dict:
    return {
        "n": instance.n,
        "edges": [
            {
                "u": edge.u,
                "v": edge.v,
                "predicted": format_fraction(instance.predicted[edge.id]),
                "actual": format_fraction(instance.actual[edge.id]),
            }
            for edge in instance.graph.edges
        ],
    }


def dumps_instance(instance: WmstInstance) -> str:
    """``json.dumps(instance_to_payload(instance), indent=2)`` and a newline, written
    directly, as ``json`` indents with its pure-Python encoder.  Weights are
    digits and ``/``, which need no escaping, and a graph has at least one edge."""
    predicted, actual = instance.predicted, instance.actual
    edges = ",\n".join(
        f'    {{\n      "u": {edge.u},\n      "v": {edge.v},\n'
        f'      "predicted": "{format_fraction(predicted[edge.id])}",\n'
        f'      "actual": "{format_fraction(actual[edge.id])}"\n    }}'
        for edge in instance.graph.edges
    )
    return f'{{\n  "n": {instance.n},\n  "edges": [\n{edges}\n  ]\n}}\n'


def save_instance(instance: WmstInstance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(instance), encoding="utf-8")


def _read_json(path: str | Path):
    """Parse a UTF-8 JSON file; any decoding failure is an ``InstanceError``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError: malformed JSON, bytes that are not UTF-8, or an over-long integer
    except (ValueError, RecursionError) as exc:
        raise InstanceError(f"{path}: not valid JSON ({exc})") from exc


def load_instance(path: str | Path) -> WmstInstance:
    return validate_instance(_read_json(path))


def dumps_order(order: ArrivalOrder) -> str:
    return json.dumps({"order": list(order.edge_ids)}) + "\n"


def save_order(order: ArrivalOrder, path: str | Path) -> None:
    Path(path).write_text(dumps_order(order), encoding="utf-8")


def load_order(path: str | Path) -> ArrivalOrder:
    payload = _read_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("order"), list):
        raise InstanceError(f"{path}: expected an object with an 'order' list")
    return ArrivalOrder(tuple(payload["order"]))


def save_trace(trace: RunTrace, path: str | Path) -> None:
    Path(path).write_text(trace.to_text(), encoding="utf-8")
