"""JSON (de)serialization of constraint graphs, libraries and results.

The on-disk format is deliberately plain — dicts of primitives — so
instances can be produced by other tools (floorplanners, traffic
profilers) without importing this package.  ``math.inf`` link lengths
serialize as the string ``"inf"``.

Loading is hardened against malformed documents: every missing key,
wrong type or out-of-vocabulary value raises
:class:`~repro.core.exceptions.InstanceFormatError` naming the dotted
path of the offending field (``constraint_graph.arcs[3].bandwidth``)
instead of leaking a ``KeyError``/``TypeError`` traceback.  The CLI
maps that family to exit code 5 with a one-line diagnostic.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Tuple, Union

from ..core.constraint_graph import ConstraintGraph
from ..core.exceptions import InstanceFormatError
from ..core.geometry import Point, norm_by_name
from ..core.library import CommunicationLibrary, Link, NodeKind, NodeSpec
from ..obs import metrics_dict
from .atomic import atomic_write

if TYPE_CHECKING:  # the synthesis layer imports this package
    from ..core.synthesis import SynthesisResult

__all__ = [
    "constraint_graph_to_dict",
    "constraint_graph_from_dict",
    "library_to_dict",
    "library_from_dict",
    "synthesis_result_to_dict",
    "save_instance",
    "load_instance",
]


# ----------------------------------------------------------------------
# field-path navigation: every accessor failure names the dotted path of
# the offending field so a fuzzer (or a typo) gets a diagnostic, not a
# traceback.
# ----------------------------------------------------------------------


def _join(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


def _as_object(value: Any, path: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise InstanceFormatError(
            f"{path or 'document'}: expected a JSON object, got {type(value).__name__}",
            field=path,
        )
    return value


def _as_array(value: Any, path: str) -> List[Any]:
    if not isinstance(value, list):
        raise InstanceFormatError(
            f"{path}: expected a JSON array, got {type(value).__name__}", field=path
        )
    return value


def _field(data: Any, key: str, path: str) -> Any:
    obj = _as_object(data, path)
    if key not in obj:
        raise InstanceFormatError(
            f"{_join(path, key)}: missing required field", field=_join(path, key)
        )
    return obj[key]


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise InstanceFormatError(
            f"{path}: expected a string, got {type(value).__name__}", field=path
        )
    return value


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(
            f"{path}: expected a number, got {type(value).__name__}", field=path
        )
    return float(value)


def _opt_number(value: Any, path: str) -> Union[float, None]:
    return None if value is None else _number(value, path)


def constraint_graph_to_dict(graph: ConstraintGraph) -> Dict[str, Any]:
    """Plain-dict form of a constraint graph."""
    return {
        "name": graph.name,
        "norm": graph.norm.name,
        "ports": [
            {"name": p.name, "x": p.position.x, "y": p.position.y, "module": p.module}
            for p in graph.ports
        ],
        "arcs": [
            {
                "name": a.name,
                "source": a.source.name,
                "target": a.target.name,
                "bandwidth": a.bandwidth,
                "distance": a.distance,
            }
            for a in graph.arcs
        ],
    }


def constraint_graph_from_dict(data: Dict[str, Any], path: str = "") -> ConstraintGraph:
    """Inverse of :func:`constraint_graph_to_dict` (lengths re-checked).

    ``path`` prefixes field paths in :class:`InstanceFormatError`
    diagnostics (:func:`load_instance` passes ``"constraint_graph"``).
    """
    norm_name = _string(_field(data, "norm", path), _join(path, "norm"))
    try:
        norm = norm_by_name(norm_name)
    except (KeyError, ValueError) as exc:
        raise InstanceFormatError(
            f"{_join(path, 'norm')}: unknown norm {norm_name!r}", field=_join(path, "norm")
        ) from exc
    graph = ConstraintGraph(norm=norm, name=data.get("name", "graph"))
    for i, p in enumerate(_as_array(_field(data, "ports", path), _join(path, "ports"))):
        p_path = f"{_join(path, 'ports')}[{i}]"
        graph.add_port(
            _string(_field(p, "name", p_path), _join(p_path, "name")),
            Point(
                _number(_field(p, "x", p_path), _join(p_path, "x")),
                _number(_field(p, "y", p_path), _join(p_path, "y")),
            ),
            module=p.get("module"),
        )
    for i, a in enumerate(_as_array(_field(data, "arcs", path), _join(path, "arcs"))):
        a_path = f"{_join(path, 'arcs')}[{i}]"
        graph.add_channel(
            _string(_field(a, "name", a_path), _join(a_path, "name")),
            _string(_field(a, "source", a_path), _join(a_path, "source")),
            _string(_field(a, "target", a_path), _join(a_path, "target")),
            bandwidth=_number(_field(a, "bandwidth", a_path), _join(a_path, "bandwidth")),
            distance=_opt_number(a.get("distance"), _join(a_path, "distance")),
        )
    return graph


def _encode_length(value: float) -> Union[float, str]:
    return "inf" if math.isinf(value) else value


def library_to_dict(library: CommunicationLibrary) -> Dict[str, Any]:
    """Plain-dict form of a communication library."""
    return {
        "name": library.name,
        "links": [
            {
                "name": l.name,
                "bandwidth": l.bandwidth,
                "max_length": _encode_length(l.max_length),
                "cost_fixed": l.cost_fixed,
                "cost_per_unit": l.cost_per_unit,
            }
            for l in library.links
        ],
        "nodes": [
            {
                "name": n.name,
                "kind": n.kind.value,
                "cost": n.cost,
                "max_degree": n.max_degree,
            }
            for n in library.nodes
        ],
    }


def _length(value: Any, path: str) -> float:
    if value == "inf":
        return math.inf
    return _number(value, path)


def library_from_dict(data: Dict[str, Any], path: str = "") -> CommunicationLibrary:
    """Inverse of :func:`library_to_dict`.

    ``path`` prefixes field paths in :class:`InstanceFormatError`
    diagnostics (:func:`load_instance` passes ``"library"``).
    """
    name = data.get("name", "library") if isinstance(data, dict) else ""
    lib = CommunicationLibrary(name)
    for i, l in enumerate(_as_array(_field(data, "links", path), _join(path, "links"))):
        l_path = f"{_join(path, 'links')}[{i}]"
        lib.add_link(
            Link(
                name=_string(_field(l, "name", l_path), _join(l_path, "name")),
                bandwidth=_number(_field(l, "bandwidth", l_path), _join(l_path, "bandwidth")),
                max_length=_length(
                    _field(l, "max_length", l_path), _join(l_path, "max_length")
                ),
                cost_fixed=_number(l.get("cost_fixed", 0.0), _join(l_path, "cost_fixed")),
                cost_per_unit=_number(
                    l.get("cost_per_unit", 0.0), _join(l_path, "cost_per_unit")
                ),
            )
        )
    for i, n in enumerate(_as_array(_field(data, "nodes", path), _join(path, "nodes"))):
        n_path = f"{_join(path, 'nodes')}[{i}]"
        kind_value = _string(_field(n, "kind", n_path), _join(n_path, "kind"))
        try:
            kind = NodeKind(kind_value)
        except ValueError as exc:
            raise InstanceFormatError(
                f"{_join(n_path, 'kind')}: unknown node kind {kind_value!r} "
                f"(choose from {[k.value for k in NodeKind]})",
                field=_join(n_path, "kind"),
            ) from exc
        lib.add_node(
            NodeSpec(
                name=_string(_field(n, "name", n_path), _join(n_path, "name")),
                kind=kind,
                cost=_number(n.get("cost", 0.0), _join(n_path, "cost")),
                max_degree=n.get("max_degree"),
            )
        )
    return lib


def synthesis_result_to_dict(result: SynthesisResult) -> Dict[str, Any]:
    """A JSON-safe summary of a synthesis run (no graph objects)."""
    impl = result.implementation
    return {
        "total_cost": result.total_cost,
        "point_to_point_cost": result.point_to_point_cost,
        "savings_ratio": result.savings_ratio,
        "selected": [
            {"arcs": list(c.arc_names), "cost": c.cost, "merging": c.is_merging}
            for c in result.selected
        ],
        "candidate_counts": dict(result.candidates.stats.survivors_by_k),
        "pruning_survivor_counts": dict(result.candidates.stats.pruning_survivors_by_k),
        "communication_vertices": len(impl.communication_vertices),
        "link_instances": len(impl.arcs),
        "elapsed_seconds": result.elapsed_seconds,
        "degradation": result.degradation.to_dict() if result.degradation else None,
        "decomposition": result.decomposition.to_dict() if result.decomposition else None,
        "metrics": metrics_dict(result.trace) if result.trace is not None else None,
    }


def save_instance(
    path: Union[str, Path], graph: ConstraintGraph, library: CommunicationLibrary
) -> None:
    """Write a (graph, library) instance to one JSON file."""
    payload = {
        "constraint_graph": constraint_graph_to_dict(graph),
        "library": library_to_dict(library),
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True))


def load_instance(path: Union[str, Path]) -> Tuple[ConstraintGraph, CommunicationLibrary]:
    """Read a (graph, library) instance written by :func:`save_instance`.

    Raises :class:`~repro.core.exceptions.InstanceFormatError` — never a
    raw ``KeyError``/``TypeError``/``JSONDecodeError`` — on malformed
    documents, naming the offending field path.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not a UTF-8 text file: {exc}") from exc
    return (
        constraint_graph_from_dict(
            _field(payload, "constraint_graph", ""), "constraint_graph"
        ),
        library_from_dict(_field(payload, "library", ""), "library"),
    )
