"""JSON (de)serialization of models, ground truths and irregularities.

Estimation is expensive (the paper spends a section minimizing its cost),
so estimated models are worth persisting: estimate once at cluster-bringup,
reload at application start.

The format (schema version 2) is one unified envelope::

    {"model": "ExtendedLMOModel", "schema_version": 2, "params": {...}}

where ``params`` is exactly what the type's own ``to_dict`` produces and
``from_dict`` consumes — the envelope carries no knowledge of any type's
internals.  Documents without a ``schema_version`` (the retired
version-1 ``{"format": "repro-model", "version": 1, ...}`` layout
included) are rejected.

Example
-------
>>> from repro.cluster import GroundTruth
>>> from repro.models import ExtendedLMOModel
>>> from repro.io import dumps, loads
>>> model = ExtendedLMOModel.from_ground_truth(GroundTruth.random(3))
>>> loads(dumps(model)).p2p_time(0, 1, 1024) == model.p2p_time(0, 1, 1024)
True
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

from repro.cluster.params import GroundTruth
from repro.cluster.spec import ClusterSpec
from repro.models.hockney import HeterogeneousHockneyModel, HockneyModel
from repro.models.loggp import LogGPModel
from repro.models.logp import LogPModel
from repro.models.lmo import LMOModel
from repro.models.lmo_extended import ExtendedLMOModel, GatherIrregularity
from repro.models.plogp import PiecewiseLinear, PLogPModel

__all__ = [
    "atomic_write_text",
    "dumps",
    "loads",
    "save",
    "load",
    "SCHEMA_VERSION",
]

#: Envelope version, always written and required on read.
SCHEMA_VERSION = 2

#: Every serializable type, keyed by the name stored in the envelope.
_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ClusterSpec,
        GroundTruth,
        ExtendedLMOModel,
        LMOModel,
        GatherIrregularity,
        HeterogeneousHockneyModel,
        HockneyModel,
        LogGPModel,
        LogPModel,
        PLogPModel,
        PiecewiseLinear,
    )
}


# -- public API -----------------------------------------------------------------
def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize a model / ground truth / irregularity to a JSON string."""
    name = type(obj).__name__
    if name not in _TYPES or not isinstance(obj, _TYPES[name]):
        raise TypeError(f"cannot serialize {name}")
    return json.dumps(
        {"model": name, "schema_version": SCHEMA_VERSION, "params": obj.to_dict()},
        indent=indent,
    )


def loads(text: str) -> Any:
    """Inverse of :func:`dumps` (validates the schema-v2 envelope)."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("not a repro-model document")
    version = doc.get("schema_version")
    if version is None:
        raise ValueError("not a schema-v2 repro-model document")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    name = doc.get("model")
    cls = _TYPES.get(name)
    if cls is None:
        raise ValueError(f"unknown document type {name!r}")
    params = doc.get("params")
    if not isinstance(params, dict):
        raise ValueError("schema-v2 document has no params object")
    return cls.from_dict(params)


def save(obj: Any, path: str) -> None:
    """Serialize to a file."""
    with open(path, "w") as handle:
        handle.write(dumps(obj))


def load(path: str) -> Any:
    """Deserialize from a file."""
    with open(path) as handle:
        return loads(handle.read())


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via write-temp-fsync-rename.

    A crash at any point leaves either the old file or the complete new
    one, never a torn write — the discipline the campaign journal uses
    for its header and the service uses for its registry snapshot.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
