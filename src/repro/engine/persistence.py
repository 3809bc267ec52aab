"""Saving and loading database images.

The schema (catalog) is code — it is defined programmatically or through
the DDL — so the image format stores **instances only**: objects, their
local attribute values, complex-object containment, relationships and
inheritance links.  Loading requires a database whose catalog already
contains every referenced type under the same name; this mirrors the
paper's setting where the schema is part of the application, not the data.

The format is one plain, compact JSON document (``separators=(",", ":")``,
no indentation).  Structured values are tagged so they survive the
round-trip: records as ``{"__record__": {...}}``, sets as
``{"__set__": [...]}``, surrogates as ``{"__surrogate__": [value, space]}``;
attribute values are re-validated against their domains on load.

Only each object's local (stored) cells are written; inherited values are
rebuilt from the restored links on load.  The image is therefore a flat
stream of small records — a head, one record per object in surrogate
order, then the classes — and :func:`save` encodes and writes it a batch
of records at a time with the C JSON encoder, never holding the whole
image or the whole file in memory.  :func:`dump_image` assembles the same
records into one dict, and ``save`` writes exactly
``json.dumps(dump_image(db), separators=(",", ":"))``.

Durability: ``save`` writes a temp file in the target's directory, flushes
and fsyncs it, renames it over ``path`` with :func:`os.replace` and fsyncs
the directory (skipped where a directory cannot be opened).  A crash
during ``save`` leaves the previous image in place; the new image gets the
mode ``open(path, "w")`` would give it, and a symlinked ``path`` is followed
as ``open`` would follow it.  ``load`` raises
:class:`PersistenceError` on a truncated image — no proper prefix of a
JSON object parses — and on one of the wrong shape.  The image carries no
checksum: it stays a plain JSON document that any JSON reader can load,
and a header would make it something else.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Tuple

from ..core.domains import RecordValue
from ..core.objects import DBObject, InheritanceLink, RelationshipObject
from ..core.surrogate import Surrogate
from ..errors import PersistenceError, UnknownTypeError
from .database import Database

__all__ = ["save", "load", "dump_image", "load_image"]

_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# value encoding
# ---------------------------------------------------------------------------

def _encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Surrogate):
        return {"__surrogate__": [value.value, value.space]}
    if isinstance(value, RecordValue):
        return {"__record__": {k: _encode_value(v) for k, v in value._fields.items()}}
    if isinstance(value, frozenset):
        return {"__set__": [_encode_value(v) for v in sorted(value, key=repr)]}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(v) for v in value]}
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        return {"__dict__": {k: _encode_value(v) for k, v in value.items()}}
    raise PersistenceError(f"cannot serialise value {value!r}")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__surrogate__" in value:
            raw, space = value["__surrogate__"]
            return Surrogate(raw, space)
        if "__record__" in value:
            return {k: _decode_value(v) for k, v in value["__record__"].items()}
        if "__set__" in value:
            return [_decode_value(v) for v in value["__set__"]]
        if "__tuple__" in value:
            return [_decode_value(v) for v in value["__tuple__"]]
        if "__dict__" in value:
            return {k: _decode_value(v) for k, v in value["__dict__"].items()}
        raise PersistenceError(f"unknown tagged value {sorted(value)!r}")
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# dumping
# ---------------------------------------------------------------------------

def _container_ref(obj: DBObject) -> Any:
    if obj._container is not None:
        return [obj._container.owner.surrogate.value, obj._container.name]
    return None


def _dump_object(obj: DBObject) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "surrogate": obj.surrogate.value,
        "type": obj.object_type.name,
        "attrs": {k: _encode_value(v) for k, v in obj.local_attributes().items()},
        "container": _container_ref(obj),
    }
    if isinstance(obj, InheritanceLink):
        record["kind"] = "link"
        record["transmitter"] = obj.transmitter.surrogate.value
        record["inheritor"] = obj.inheritor.surrogate.value
    elif isinstance(obj, RelationshipObject):
        record["kind"] = "relationship"
        participants: Dict[str, Any] = {}
        for role, value in obj._participants.items():
            if isinstance(value, tuple):
                participants[role] = [p.surrogate.value for p in value]
            else:
                participants[role] = value.surrogate.value
        record["participants"] = participants
        if obj._container_rel is not None:
            record["rel_container"] = [
                obj._container_rel.owner.surrogate.value,
                obj._container_rel.name,
            ]
    else:
        record["kind"] = "object"
    return record


def _image_records(db: Database) -> Iterator[Dict[str, Any]]:
    """The image in file order: its head, one record per object in
    surrogate order, then the classes.  :func:`dump_image` and :func:`save`
    both read this one traversal."""
    yield {
        "format": _FORMAT_VERSION,
        "name": db.name,
        "last_surrogate": db.surrogates.last_issued,
    }
    for obj in sorted(db.objects(), key=lambda o: o.surrogate.value):
        yield _dump_object(obj)
    yield {
        name: {
            "type": extent.object_type.name,
            "members": [obj.surrogate.value for obj in extent],
        }
        for name, extent in db.classes().items()
    }


def _note_dump(obs: Any, objects: int) -> None:
    obs.metrics.counter("persistence.dumps").inc()
    obs.metrics.counter("persistence.objects_dumped").inc(objects)


def dump_image(db: Database) -> Dict[str, Any]:
    """Build the JSON-ready image dictionary of a database's instances."""
    obs = getattr(db, "obs", None)
    if obs is None:
        return _dump_image(db)
    with obs.tracer.span("persistence.dump", objects=db.count()):
        image = _dump_image(db)
    _note_dump(obs, len(image["objects"]))
    return image


def _dump_image(db: Database) -> Dict[str, Any]:
    image, *objects, classes = _image_records(db)
    image["objects"] = objects
    image["classes"] = classes
    return image


_encode = json.JSONEncoder(separators=(",", ":")).encode

#: Object records encoded per encoder call: one call per record would
#: spend more time setting the C encoder up than encoding.
_BATCH = 256


def _write_records(db: Database, out: Any) -> int:
    """Encode the image batch by batch onto ``out``; the object count."""
    records = _image_records(db)
    # The head's closing brace gives way to the objects array.
    out.write(_encode(next(records))[:-1] + ',"objects":[')
    count, sep, batch = 0, "", []
    for record in records:
        if len(batch) == _BATCH:
            out.write(sep + _encode(batch)[1:-1])
            count, sep, batch = count + _BATCH, ",", []
        batch.append(record)
    classes = batch.pop()  # the stream's last record
    if batch:
        out.write(sep + _encode(batch)[1:-1])
    out.write('],"classes":' + _encode(classes) + "}")
    return count + len(batch)


def save(db: Database, path: str) -> None:
    """Write the database's instance image to ``path``, crash-safely: the
    previous image stays in place until the new one is complete on disk."""
    obs = getattr(db, "obs", None)
    if obs is None:
        _save(db, path)
        return
    with obs.tracer.span("persistence.dump", objects=db.count()) as span:
        objects, size = _save(db, path)
        span.set(bytes=size)
    _note_dump(obs, objects)


def _save(db: Database, path: str) -> Tuple[int, int]:
    """Stream the image into a temp file beside ``path``, make it durable
    and rename it over ``path``; the object count and the image's bytes.
    A symlinked ``path`` is followed, so the link's target gets the image."""
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    try:
        mode = os.stat(path).st_mode & 0o7777
    except OSError:
        mode = None
    tmp, fd = _create_temp(path)
    try:
        if mode is not None:
            os.chmod(tmp, mode)
        with os.fdopen(fd, "w", encoding="ascii") as out:
            try:
                objects = _write_records(db, out)
            except (TypeError, ValueError) as exc:
                raise PersistenceError(f"cannot serialise image: {exc}") from exc
            out.flush()
            os.fsync(out.fileno())
            size = os.fstat(out.fileno()).st_size
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(directory)
    return objects, size


def _create_temp(path: str) -> Tuple[str, int]:
    """Create a fresh file beside ``path`` the way ``open(path, "w")``
    would (mode ``0o666`` less the umask, unlike :func:`tempfile.mkstemp`'s
    ``0o600``); its name and descriptor."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    attempt = 0
    while True:
        tmp = f"{path}.{os.getpid()}-{attempt}.tmp"
        try:
            return tmp, os.open(tmp, flags, 0o666)
        except FileExistsError:
            attempt += 1


def _fsync_directory(directory: str) -> None:
    """Make the rename durable; skipped where a directory cannot be
    opened (Windows)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _restore_attrs(obj: DBObject, attrs: Dict[str, Any]) -> None:
    for name, encoded in attrs.items():
        decoded = _decode_value(encoded)
        spec = obj.object_type.effective_attribute(name)
        # Freshly loaded objects: no reader has memoised anything yet, so
        # the epoch can stay at its initial value.
        obj._write_cell(name, spec.validate(decoded) if spec is not None else decoded)  # lint: allow(REP601)


def _restore_container(obj: DBObject, ref, by_surrogate) -> None:
    owner = by_surrogate[ref[0]]
    container = owner.subclass(ref[1])
    obj.parent = owner
    obj._container = container
    container._members[obj.surrogate] = obj


def load_image(image: Dict[str, Any], db: Database) -> Database:
    """Materialise an image into ``db`` (schema must already be loaded)."""
    _check_shape(image)
    obs = getattr(db, "obs", None)
    if obs is None:
        return _load_image(image, db)
    with obs.tracer.span("persistence.load", objects=len(image["objects"])):
        result = _load_image(image, db)
    obs.metrics.counter("persistence.loads").inc()
    obs.metrics.counter("persistence.objects_loaded").inc(db.count())
    return result


def _check_shape(image: Any) -> None:
    """Reject an image whose top level, ``objects``, object records or
    ``classes`` is not the JSON type the loader walks, before any object
    is created."""
    if not isinstance(image, dict):
        raise PersistenceError(
            f"image must be a JSON object, not {type(image).__name__}")
    if image.get("format") != _FORMAT_VERSION:
        raise PersistenceError(f"unsupported image format {image.get('format')!r}")
    objects, classes = image.get("objects"), image.get("classes", {})
    if not isinstance(objects, list):
        raise PersistenceError(
            f"image 'objects' must be a JSON array, not {type(objects).__name__}")
    if not isinstance(classes, dict):
        raise PersistenceError(
            f"image 'classes' must be a JSON object, not {type(classes).__name__}")
    for record in objects:
        if not isinstance(record, dict) or not isinstance(record.get("attrs"), dict):
            raise PersistenceError(
                f"image object records must be JSON objects with an 'attrs' "
                f"object, not {record!r:.60}")


def _load_image(image: Dict[str, Any], db: Database) -> Database:
    if db.count():
        raise PersistenceError("target database already contains objects")
    space = db.surrogates.space
    records = sorted(image["objects"], key=lambda r: r["surrogate"])
    by_surrogate: Dict[int, DBObject] = {}

    # Pass 1: plain objects, so relationships can resolve participants.
    # An object's container owner may itself be a relationship (a steel
    # Screwing carries its Bolt/Nut in local subclasses), and those only
    # materialise in pass 2 — defer such containers until then.
    deferred_containers: List[Tuple[DBObject, Any]] = []
    for record in records:
        if record["kind"] != "object":
            continue
        object_type = db.catalog.type(record["type"])
        obj = DBObject(object_type, Surrogate(record["surrogate"], space), database=db)
        by_surrogate[record["surrogate"]] = obj
    for record in records:
        if record["kind"] != "object":
            continue
        obj = by_surrogate[record["surrogate"]]
        _restore_attrs(obj, record["attrs"])
        ref = record["container"]
        if ref is not None:
            if ref[0] in by_surrogate:
                _restore_container(obj, ref, by_surrogate)
            else:
                deferred_containers.append((obj, ref))

    # Pass 2: relationships and links, in surrogate (creation) order.
    for record in records:
        kind = record["kind"]
        if kind == "object":
            continue
        rel_type = db.catalog.relationship_type(record["type"])
        surrogate = Surrogate(record["surrogate"], space)
        if kind == "link":
            from ..core.inheritance import InheritanceRelationshipType

            if not isinstance(rel_type, InheritanceRelationshipType):
                raise PersistenceError(
                    f"type {rel_type.name!r} is not an inheritance relationship"
                )
            transmitter = by_surrogate[record["transmitter"]]
            inheritor = by_surrogate[record["inheritor"]]
            link = InheritanceLink(
                rel_type, transmitter, inheritor, surrogate, database=db
            )
            inheritor._links_as_inheritor[rel_type.name] = link
            transmitter._links_as_transmitter.append(link)
            inheritor._bump_binding_epoch()
            transmitter._binding_epoch += 1
            _restore_attrs(link, record["attrs"])
            by_surrogate[record["surrogate"]] = link
        else:
            participants: Dict[str, Any] = {}
            for role, value in record["participants"].items():
                if isinstance(value, list):
                    participants[role] = [by_surrogate[v] for v in value]
                else:
                    participants[role] = by_surrogate[value]
            rel = RelationshipObject(rel_type, participants, surrogate, database=db)
            _restore_attrs(rel, record["attrs"])
            ref = record.get("rel_container")
            if ref is not None:
                owner = by_surrogate[ref[0]]
                container = owner.subrel(ref[1])
                rel.parent = owner
                rel._container_rel = container
                container._members[rel.surrogate] = rel
            by_surrogate[record["surrogate"]] = rel

    for obj, ref in deferred_containers:
        _restore_container(obj, ref, by_surrogate)

    # Classes.
    for name, class_record in image.get("classes", {}).items():
        object_type = db.catalog.type(class_record["type"])
        extent = db._classes.get(name)
        if extent is None:
            extent = db.create_class(name, object_type)
        for value in class_record["members"]:
            extent.add(by_surrogate[value])

    db.surrogates.advance_past(image.get("last_surrogate", 0))
    return db


def load(path: str, db: Database) -> Database:
    """Load a JSON image from ``path`` into ``db``."""
    try:
        with open(path) as f:
            image = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot read image {path!r}: {exc}") from exc
    try:
        return load_image(image, db)
    except (KeyError, TypeError, AttributeError, UnknownTypeError) as exc:
        raise PersistenceError(f"image {path!r} is inconsistent: {exc}") from exc
