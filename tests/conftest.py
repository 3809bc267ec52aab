"""Shared fixtures: the paper's gate schema (§3–§4), built fresh per test.

Types are mutable (``inheritor-in`` declarations attach to them), so every
test gets its own copies.

Session-level switches (both off by default):

* ``HYPOTHESIS_SEED`` — registers and activates a derandomised hypothesis
  profile seeded from the value, so CI property runs are reproducible and
  a failing seed can be replayed locally
  (``HYPOTHESIS_SEED=20260808 pytest tests/``).
* ``REPRO_TSAN=1`` — enables the lockset race sanitizer for the whole
  session and fails it at exit if any candidate race was observed or the
  static lock-order analysis finds a cycle in the engine.
"""

import os
from types import SimpleNamespace

import pytest

_HYPOTHESIS_SEED = os.environ.get("HYPOTHESIS_SEED", "")
if _HYPOTHESIS_SEED:
    from hypothesis import settings as _hyp_settings

    _hyp_settings.register_profile(
        "repro-ci",
        derandomize=True,
        print_blob=True,
    )
    _hyp_settings.load_profile("repro-ci")


def pytest_sessionstart(session):
    from repro.obs import race

    if race.enabled_by_env():
        race.enable()


def pytest_sessionfinish(session, exitstatus):
    from repro.obs import race

    sanitizer = race.active()
    if sanitizer is None:
        return
    race.disable()
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    lines = [sanitizer.render()]
    failed = bool(sanitizer.reports)
    from repro.analysis import analyze_lock_order

    lock_report = analyze_lock_order()
    if lock_report.cycles:
        failed = True
        lines.append(
            f"lock-order analysis: {len(lock_report.cycles)} cycle(s) "
            "in the engine"
        )
    if reporter is not None:
        reporter.write_sep("=", "race sanitizer (REPRO_TSAN)")
        for line in lines:
            reporter.write_line(line)
    if failed and session.exitstatus == 0:
        session.exitstatus = 1

from repro.core import (
    BOOLEAN,
    INTEGER,
    IO,
    POINT,
    EnumDomain,
    InheritanceRelationshipType,
    ListOf,
    MatrixOf,
    ObjectType,
    RelationshipType,
)


def build_gate_schema():
    """The schema of §3 and §4: pins, wires, gates, interfaces."""
    pin_type = ObjectType(
        "PinType",
        attributes={"InOut": IO, "PinLocation": POINT},
        doc="External or internal connection pin of a gate.",
    )

    wire_type = RelationshipType(
        "WireType",
        relates={"Pin1": pin_type, "Pin2": pin_type},
        attributes={"Corners": ListOf(POINT)},
        doc="A wire between two pins, with its routing geometry.",
    )

    elementary_gate = ObjectType(
        "ElementaryGate",
        attributes={
            "Length": INTEGER,
            "Width": INTEGER,
            "Function": EnumDomain("GateFunction", ["AND", "OR", "NOR", "NAND"]),
            "GatePosition": POINT,
        },
        subclasses={"Pins": pin_type},
        constraints=[
            "count (Pins) = 2 where Pins.InOut = IN",
            "count (Pins) = 1 where Pins.InOut = OUT",
        ],
        doc="A basic AND/OR/NAND/NOR gate with pins as subobjects.",
    )

    gate = ObjectType(
        "Gate",
        attributes={
            "Length": INTEGER,
            "Width": INTEGER,
            "Function": MatrixOf(BOOLEAN),
        },
        subclasses={"Pins": pin_type, "SubGates": elementary_gate},
        subrels={
            "Wires": (
                wire_type,
                "(Wire.Pin1 in Pins or Wire.Pin1 in SubGates.Pins) and "
                "(Wire.Pin2 in Pins or Wire.Pin2 in SubGates.Pins)",
            )
        },
        doc="Figure 1: gates constructed from elementary gates and wires.",
    )

    gate_interface = ObjectType(
        "GateInterface",
        attributes={"Length": INTEGER, "Width": INTEGER},
        subclasses={"Pins": pin_type},
        doc="§4.2: the external image of a gate.",
    )

    all_of_gate_interface = InheritanceRelationshipType(
        "AllOf_GateInterface",
        transmitter_type=gate_interface,
        inheriting=["Length", "Width", "Pins"],
        doc="Enables objects to inherit all data of GateInterface objects.",
    )

    gate_implementation = ObjectType(
        "GateImplementation",
        attributes={"Function": MatrixOf(BOOLEAN)},
        subclasses={"SubGates": elementary_gate},
        subrels={
            "Wires": (
                wire_type,
                "(Wire.Pin1 in Pins or Wire.Pin1 in SubGates.Pins) and "
                "(Wire.Pin2 in Pins or Wire.Pin2 in SubGates.Pins)",
            )
        },
        doc="§4.2: a realization of a gate interface.",
    )
    gate_implementation.declare_inheritor_in(all_of_gate_interface)

    return SimpleNamespace(
        pin_type=pin_type,
        wire_type=wire_type,
        elementary_gate=elementary_gate,
        gate=gate,
        gate_interface=gate_interface,
        all_of_gate_interface=all_of_gate_interface,
        gate_implementation=gate_implementation,
    )


@pytest.fixture
def gates():
    return build_gate_schema()


def build_gate_database(name="gates"):
    """A Database whose catalog holds the gate schema, with stock classes."""
    from repro.engine import Database

    db = Database(name)
    schema = build_gate_schema()
    for type_ in (
        schema.pin_type,
        schema.wire_type,
        schema.elementary_gate,
        schema.gate,
        schema.gate_interface,
        schema.all_of_gate_interface,
        schema.gate_implementation,
    ):
        db.catalog.register(type_)
    db.create_class("Interfaces", schema.gate_interface)
    db.create_class("Implementations", schema.gate_implementation)
    db.create_class("Gates", schema.gate)
    db.schema = schema
    return db


@pytest.fixture
def gate_db():
    return build_gate_database()


def add_pins(owner, n_in=2, n_out=1, x0=0):
    """Populate an object's Pins subclass with n_in inputs and n_out outputs."""
    pins = []
    container = owner.subclass("Pins")
    for i in range(n_in):
        pins.append(
            container.create(InOut="IN", PinLocation={"X": x0, "Y": i})
        )
    for i in range(n_out):
        pins.append(
            container.create(InOut="OUT", PinLocation={"X": x0 + 10, "Y": i})
        )
    return pins
