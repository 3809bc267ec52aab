"""Tests for save/load round-trips (repro.engine.persistence)."""

import json
import os
import random
import signal
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.domains import ANY, RecordValue
from repro.engine import Database, dump_image, load, load_image, save
from repro.engine import persistence
from repro.errors import PersistenceError
from repro.workloads import gate_database, generate_library
from tests.conftest import add_pins, build_gate_database


def populated_db():
    db = build_gate_database("persist")
    iface = db.create_object("GateInterface", class_name="Interfaces", Length=40, Width=20)
    add_pins(iface)
    impl = db.create_object(
        "GateImplementation",
        class_name="Implementations",
        transmitter=iface,
        Function=[[True, False]],
    )
    sub = impl.subclass("SubGates").create(Function="AND", GatePosition=(1, 2))
    add_pins(sub)
    pins = iface.subclass("Pins").members()
    impl.subrel("Wires").create(
        {"Pin1": pins[0], "Pin2": sub.subclass("Pins").members()[0]},
        Corners=[(0, 0), (5, 5)],
    )
    return db, iface, impl, sub


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path):
        db, iface, impl, sub = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)

        fresh = build_gate_database("persist")
        load(path, fresh)
        assert fresh.count() == db.count()

        iface2 = fresh.get(iface.surrogate)
        impl2 = fresh.get(impl.surrogate)
        assert iface2["Length"] == 40
        assert len(iface2["Pins"]) == 3
        # Value inheritance survives the round trip.
        assert impl2["Length"] == 40
        assert {p.surrogate for p in impl2["Pins"]} == {
            p.surrogate for p in iface2["Pins"]
        }
        # Structured attribute values are restored to normalised form.
        assert impl2["Function"] == ((True, False),)
        sub2 = fresh.get(sub.surrogate)
        assert sub2["GatePosition"].X == 1
        # Local relationships restored with participants.
        wires = impl2.subrel("Wires").members()
        assert len(wires) == 1 and len(wires[0]["Corners"]) == 2

    def test_classes_restored(self, tmp_path):
        db, iface, impl, _ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        fresh = build_gate_database("persist")
        load(path, fresh)
        assert fresh.get(iface.surrogate) in fresh.class_("Interfaces")
        assert fresh.get(impl.surrogate) in fresh.class_("Implementations")

    def test_surrogates_not_reused_after_load(self, tmp_path):
        db, *_ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        fresh = build_gate_database("persist")
        load(path, fresh)
        newcomer = fresh.create_object("GateInterface")
        assert newcomer.surrogate.value > db.surrogates.last_issued

    def test_inherited_readonly_after_load(self, tmp_path):
        from repro.errors import InheritanceError

        db, iface, impl, _ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        fresh = build_gate_database("persist")
        load(path, fresh)
        with pytest.raises(InheritanceError):
            fresh.get(impl.surrogate).set_attribute("Length", 1)

    def test_update_propagates_after_load(self, tmp_path):
        db, iface, impl, _ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        fresh = build_gate_database("persist")
        load(path, fresh)
        fresh.get(iface.surrogate).set_attribute("Length", 77)
        assert fresh.get(impl.surrogate)["Length"] == 77

    def test_object_contained_in_relationship_round_trips(self):
        """A plain object's container owner can be a *relationship* (a
        steel Screwing carries Bolt/Nut in local subclasses); the loader
        must defer such containers until relationships materialise."""
        from repro.workloads.steel import generate_structure, steel_database

        db = steel_database("steel-rt")
        structure, screwings = generate_structure(db)
        image = dump_image(db)

        fresh = steel_database("steel-rt")
        load_image(image, fresh)
        assert fresh.count() == db.count()
        structure2 = fresh.get(structure.surrogate)
        screwings2 = structure2.subrel("Screwings").members()
        assert len(screwings2) == len(screwings)
        for screwing in screwings2:
            bolt = screwing.subclass("Bolt").members()[0]
            nut = screwing.subclass("Nut").members()[0]
            # The restored slots still inherit the §5-consistent values.
            assert bolt["Diameter"] == nut["Diameter"]
            assert bolt.parent is screwing


class TestImageValidation:
    def test_load_into_nonempty_database_rejected(self, tmp_path):
        db, *_ = populated_db()
        image = dump_image(db)
        with pytest.raises(PersistenceError):
            load_image(image, db)

    def test_unsupported_format_rejected(self):
        fresh = build_gate_database()
        with pytest.raises(PersistenceError):
            load_image({"format": 999, "objects": []}, fresh)

    def test_missing_type_in_catalog(self, tmp_path):
        db, *_ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        bare = Database("persist")  # empty catalog
        with pytest.raises(PersistenceError):
            load(path, bare)

    def test_unreadable_path(self):
        fresh = build_gate_database()
        with pytest.raises(PersistenceError):
            load("/nonexistent/image.json", fresh)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        fresh = build_gate_database()
        with pytest.raises(PersistenceError):
            load(str(path), fresh)

    def test_image_is_plain_json(self, tmp_path):
        db, *_ = populated_db()
        path = str(tmp_path / "image.json")
        save(db, path)
        with open(path) as f:
            image = json.load(f)
        assert image["format"] == 1
        assert isinstance(image["objects"], list)

    @pytest.mark.parametrize("text", ["[]", "null", '{"format":1,"objects":[],"classes":[]}'])
    def test_wrong_shape_rejected(self, tmp_path, text):
        path = tmp_path / "shape.json"
        path.write_text(text)
        fresh = build_gate_database()
        with pytest.raises(PersistenceError, match="must be a JSON"):
            load(str(path), fresh)
        with pytest.raises(PersistenceError, match="must be a JSON"):
            load_image(json.loads(text), fresh)
        assert fresh.count() == 0

    @pytest.mark.parametrize("record", [1, None, {"surrogate": 1, "attrs": None}])
    def test_wrong_record_shape_rejected(self, tmp_path, record):
        db = build_gate_database()
        db.create_object("GateInterface", Length=4)
        image = dump_image(db)
        image["objects"].append(record)
        path = tmp_path / "records.json"
        path.write_text(json.dumps(image))
        fresh = build_gate_database()
        with pytest.raises(PersistenceError, match="records must be JSON objects"):
            load(str(path), fresh)
        assert fresh.count() == 0

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("object", "kind", None),
            ("object", "container", 7),
            ("object", "surrogate", [1]),
            ("relationship", "participants", None),
        ],
        ids=["missing-kind", "container-not-a-pair", "surrogate-not-an-int",
             "participants-not-an-object"],
    )
    def test_inconsistent_record_raises_persistence_error(
        self, tmp_path, kind, field, value
    ):
        """Well-shaped records whose fields the loader cannot follow: the
        KeyError, TypeError or AttributeError becomes PersistenceError."""
        db, *_ = populated_db()
        image = dump_image(db)
        record = next(r for r in image["objects"] if r["kind"] == kind)
        if field == "kind":
            del record[field]
        else:
            record[field] = value
        path = tmp_path / "inconsistent.json"
        path.write_text(json.dumps(image))
        with pytest.raises(PersistenceError, match="is inconsistent"):
            load(str(path), build_gate_database())


def compact(db):
    """The oracle for the bytes ``save`` writes."""
    return json.dumps(dump_image(db), separators=(",", ":")).encode()


def saved_bytes(db, path):
    save(db, str(path))
    return path.read_bytes()


def blob_database(name="blobs"):
    db = build_gate_database(name)
    db.catalog.define_object_type("Blob", attributes={"Value": ANY})
    return db


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.frozensets(scalars, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3).map(RecordValue)
    ),
    max_leaves=10,
)


class TestStreamedFormat:
    """``save`` streams exactly the compact encoding of ``dump_image``."""

    def test_gate_library(self, tmp_path):
        db = gate_database("lib")
        generate_library(db, 80, implementations_per_interface=2)
        assert db.count() > 2 * persistence._BATCH
        assert saved_bytes(db, tmp_path / "lib.json") == compact(db)

    def test_steel_structure(self, tmp_path):
        """Objects contained in relationships, and links."""
        from repro.workloads.steel import generate_structure, steel_database

        db = steel_database("steel-bytes")
        generate_structure(db)
        assert saved_bytes(db, tmp_path / "steel.json") == compact(db)

    def test_populated_gate_database(self, tmp_path):
        db, *_ = populated_db()
        assert saved_bytes(db, tmp_path / "gate.json") == compact(db)

    @pytest.mark.parametrize(
        "count",
        [0, 1, persistence._BATCH - 1, persistence._BATCH, persistence._BATCH + 1],
    )
    def test_batch_boundaries(self, tmp_path, count):
        db = blob_database()
        for i in range(count):
            db.create_object("Blob", Value=i)
        assert saved_bytes(db, tmp_path / "blobs.json") == compact(db)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(values, max_size=6))
    def test_structured_values(self, tmp_path, blob_values):
        db = blob_database()
        for value in blob_values:
            db.create_object("Blob", Value=value)
        assert saved_bytes(db, tmp_path / "values.json") == compact(db)

    def test_encoding_unchanged_for_subclasses(self):
        """Subclasses of the encoded types encode like their bases."""

        class Count(int):
            pass

        class Pair(tuple):
            pass

        class Point(RecordValue):
            __slots__ = ()

        encode = persistence._encode_value
        assert encode(Count(3)) == 3
        assert encode(True) is True
        assert encode(Pair((1, "a"))) == {"__tuple__": [1, "a"]}
        assert encode(Point({"X": 1})) == {"__record__": {"X": 1}}
        with pytest.raises(PersistenceError):
            encode(object())


def assert_never_loads(data, offsets, target, path):
    """Each prefix ``data[:cut]`` raises PersistenceError from ``load`` and
    leaves ``target`` empty."""
    for cut in offsets:
        path.write_bytes(data[:cut])
        with pytest.raises(PersistenceError):
            load(str(path), target)
        assert target.count() == 0, f"cut at byte {cut} added objects"


class TestTruncation:
    """No proper prefix of an image loads, and none adds objects."""

    def test_every_offset_of_a_small_image(self, tmp_path):
        db = build_gate_database("small")
        iface = db.create_object("GateInterface", class_name="Interfaces", Length=4)
        add_pins(iface)
        data = saved_bytes(db, tmp_path / "small.json")
        assert_never_loads(data, range(len(data)), build_gate_database("small"),
                           tmp_path / "cut.json")

    def test_sampled_offsets_of_a_larger_image(self, tmp_path):
        db = gate_database("large")
        generate_library(db, 30, implementations_per_interface=2)
        data = saved_bytes(db, tmp_path / "large.json")
        offsets = sorted(random.Random(17).sample(range(len(data)), 50))
        assert_never_loads(data, offsets, gate_database("large"), tmp_path / "cut.json")
        # The whole image still loads.
        fresh = gate_database("large")
        load(str(tmp_path / "large.json"), fresh)
        assert fresh.count() == db.count()


CRASHING_CHILD = textwrap.dedent("""
    import glob, os, signal, sys
    from repro.engine import persistence
    from repro.workloads import gate_database, generate_library

    path = sys.argv[1]
    db = gate_database("crash")
    interfaces, _ = generate_library(db, 120, implementations_per_interface=2)
    persistence.save(db, path)
    for iface in interfaces:
        iface.set_attribute("Length", 999)

    dump_object = persistence._dump_object

    def dump_then_die(obj):
        # Die once the new image's first written part reached the temp file.
        if any(os.path.getsize(tmp) for tmp in glob.glob(path + ".*.tmp")):
            os.kill(os.getpid(), signal.SIGKILL)
        return dump_object(obj)

    persistence._dump_object = dump_then_die
    persistence.save(db, path)
    sys.exit("save finished before the child was killed")
""")


class TestCrashSafety:
    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_killed_save_keeps_previous_image(self, tmp_path):
        path = tmp_path / "image.json"
        package = os.path.dirname(os.path.dirname(persistence.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        child = subprocess.run(
            [sys.executable, "-c", CRASHING_CHILD, str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        leftovers = list(tmp_path.glob("image.json.*.tmp"))
        assert len(leftovers) == 1 and leftovers[0].stat().st_size > 0

        # The previous image is whole and is the first save's dump.
        previous = json.loads(path.read_bytes())
        fresh = gate_database("crash")
        load(str(path), fresh)
        assert dump_image(fresh) == previous
        lengths = {obj["attrs"].get("Length") for obj in previous["objects"]
                   if obj["type"] == "GateInterface"}
        assert 999 not in lengths
        # The interrupted temp file is a proper prefix: it never loads.
        with pytest.raises(PersistenceError):
            load(str(leftovers[0]), gate_database("crash"))

    @pytest.mark.parametrize("bad", [object(), {("tuple", "key"): 1}])
    def test_unserialisable_value_keeps_previous_image(self, tmp_path, bad):
        db = blob_database()
        db.create_object("Blob", Value=1)
        path = tmp_path / "image.json"
        save(db, str(path))
        before = path.read_bytes()
        db.create_object("Blob", Value=bad)
        with pytest.raises(PersistenceError, match="cannot serialise"):
            save(db, str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["image.json"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    def test_new_image_gets_open_mode(self, tmp_path):
        db, *_ = populated_db()
        path = tmp_path / "image.json"
        old_mask = os.umask(0o027)
        try:
            save(db, str(path))
        finally:
            os.umask(old_mask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~0o027

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    def test_replaced_image_keeps_its_mode(self, tmp_path):
        db, *_ = populated_db()
        path = tmp_path / "image.json"
        save(db, str(path))
        os.chmod(path, 0o604)
        save(db, str(path))
        assert path.stat().st_mode & 0o777 == 0o604

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
    def test_symlinked_path_writes_through_the_link(self, tmp_path):
        db, *_ = populated_db()
        target = tmp_path / "images" / "image.json"
        target.parent.mkdir()
        target.write_text("old")
        link = tmp_path / "current.json"
        link.symlink_to(target)
        save(db, str(link))
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == compact(db)
        assert sorted(p.name for p in target.parent.iterdir()) == ["image.json"]

    def test_directory_fsync_skipped_where_directories_cannot_open(
        self, tmp_path, monkeypatch
    ):
        real_open = os.open

        def no_directories(name, flags, *args):
            if os.path.isdir(name):
                raise PermissionError(f"cannot open directory {name!r}")
            return real_open(name, flags, *args)

        monkeypatch.setattr(persistence.os, "open", no_directories)
        db, *_ = populated_db()
        path = tmp_path / "image.json"
        save(db, str(path))
        assert path.read_bytes() == compact(db)

    def test_dump_span_reports_bytes(self, tmp_path):
        db, *_ = populated_db()
        db.enable_observability()
        path = tmp_path / "image.json"
        save(db, str(path))
        (span,) = db.obs.tracer.find("persistence.dump")
        assert span.attributes["bytes"] == path.stat().st_size
        assert span.attributes["objects"] == db.count()
