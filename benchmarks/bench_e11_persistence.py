"""E11 — ablation: persistence scale.

Save/load round-trip cost over growing instance populations: both should
be linear in object count, and a loaded database must preserve the value-
inheritance read path (asserted).  ``save_load_file`` prices the durable
path end to end: a streamed, fsynced ``save`` to a temp file and a ``load``
back from it.
"""

import atexit
import os
import shutil
import tempfile

import pytest

from repro.engine import Database, dump_image, load, load_image, save
from repro.ddl.paper import load_gate_schema
from repro.workloads import gate_database, generate_library

LIBRARY_SIZES = [10, 50, 200]


def library_db(n_interfaces):
    db = gate_database("e11")
    generate_library(db, n_interfaces, implementations_per_interface=2)
    return db


def fresh_target():
    db = Database("e11")
    load_gate_schema(db.catalog)
    return db


class TestPersistenceScale:
    @pytest.mark.parametrize("n_interfaces", LIBRARY_SIZES)
    def test_dump_image(self, benchmark, n_interfaces):
        db = library_db(n_interfaces)
        image = benchmark(dump_image, db)
        assert len(image["objects"]) == db.count()

    @pytest.mark.parametrize("n_interfaces", LIBRARY_SIZES)
    def test_load_image(self, benchmark, n_interfaces):
        db = library_db(n_interfaces)
        image = dump_image(db)

        def setup():
            return (fresh_target(),), {}

        def run(target):
            load_image(image, target)
            return target

        benchmark.pedantic(run, setup=setup, rounds=5)

    @pytest.mark.parametrize("n_interfaces", LIBRARY_SIZES)
    def test_save_load_file(self, benchmark, n_interfaces, tmp_path):
        db = library_db(n_interfaces)
        run = save_load_file(db, str(tmp_path / "image.json"))
        target = benchmark.pedantic(run, rounds=5)
        assert target.count() == db.count()

    def test_loaded_inheritance_is_live(self):
        db = library_db(5)
        image = dump_image(db)
        target = fresh_target()
        load_image(image, target)
        impls = target.objects_of_type("GateImplementation", include_subtypes=False)
        assert impls
        impl = impls[0]
        iface = impl.inheritance_links[0].transmitter
        iface.set_attribute("Length", 499)
        assert impl["Length"] == 499


def save_load_file(db, path):
    """One durable round-trip of ``db`` through the image file at ``path``."""

    def run():
        save(db, path)
        return load(path, fresh_target())

    return run


def register(suite):
    """repro-bench adapter (see :mod:`repro.obs.bench`)."""
    n_interfaces = 10 if suite.quick else 50

    @suite.case(f"dump_image[{n_interfaces}]")
    def dump_case():
        db = library_db(n_interfaces)
        return lambda: dump_image(db)

    @suite.case(f"load_image[{n_interfaces}]")
    def load_case():
        image = dump_image(library_db(n_interfaces))

        def run():
            # The fresh target's schema load is part of the round-trip.
            load_image(image, fresh_target())

        return run

    @suite.case(f"save_load_file[{n_interfaces}]")
    def save_load_case():
        directory = tempfile.mkdtemp(prefix="e11-")
        atexit.register(shutil.rmtree, directory, True)
        return save_load_file(library_db(n_interfaces), os.path.join(directory, "image.json"))
