"""Synthetic gate-design workloads.

The paper's evaluation substrate substitute: deterministic, parameterised
generators for the §3/§4 chip-design world, used by the examples and the
benchmark harness.  All structure matches the paper's figures — interfaces
with pins, implementations, composite gates built from interface
components, wires obeying the Figure 1 restriction.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..composition import add_component
from ..ddl.paper import load_gate_schema
from ..engine.database import Database

__all__ = [
    "gate_database",
    "make_interface",
    "make_implementation",
    "make_flipflop",
    "generate_library",
    "generate_composite",
    "generate_component_tree",
]


def gate_database(name: str = "gates") -> Database:
    """A fresh database with the paper's gate schema loaded."""
    db = Database(name)
    load_gate_schema(db.catalog)
    return db


def make_interface(
    db: Database, length: int = 10, width: int = 5, n_in: int = 2, n_out: int = 1
) -> "DBObject":
    """A GateInterface with the given expansion and pin counts."""
    iface = db.create_object("GateInterface", Length=length, Width=width)
    pins = iface.subclass("Pins")
    for i in range(n_in):
        pins.create(InOut="IN", PinLocation={"X": 0, "Y": i})
    for i in range(n_out):
        pins.create(InOut="OUT", PinLocation={"X": length, "Y": i})
    return iface


def make_implementation(db: Database, interface, time_behavior: int = 1):
    """A GateImplementation bound to ``interface``."""
    return db.create_object(
        "GateImplementation",
        transmitter=interface,
        TimeBehavior=time_behavior,
        Function=[[True, False], [False, True]],
    )


def make_flipflop(db: Database):
    """Figure 1: the complex object "Flip-Flop" — a Gate built from two
    cross-coupled NAND ElementaryGates with pins wired across nesting
    levels.  Returns (flipflop, subgates)."""
    ff = db.create_object("Gate", Length=40, Width=20, Function=[[True], [False]])
    ext_pins = ff.subclass("Pins")
    set_pin = ext_pins.create(InOut="IN", PinLocation={"X": 0, "Y": 0})
    reset_pin = ext_pins.create(InOut="IN", PinLocation={"X": 0, "Y": 10})
    q_pin = ext_pins.create(InOut="OUT", PinLocation={"X": 40, "Y": 0})
    qbar_pin = ext_pins.create(InOut="OUT", PinLocation={"X": 40, "Y": 10})

    subgates = []
    for index in range(2):
        nand = ff.subclass("SubGates").create(
            Length=10,
            Width=5,
            Function="NAND",
            GatePosition={"X": 15, "Y": index * 10},
        )
        nand.subclass("Pins").create(InOut="IN", PinLocation={"X": 0, "Y": 0})
        nand.subclass("Pins").create(InOut="IN", PinLocation={"X": 0, "Y": 2})
        nand.subclass("Pins").create(InOut="OUT", PinLocation={"X": 10, "Y": 1})
        subgates.append(nand)

    def pins_of(gate, direction):
        return [p for p in gate.subclass("Pins") if p["InOut"] == direction]

    wires = ff.subrel("Wires")
    top_in, bottom_in = pins_of(subgates[0], "IN"), pins_of(subgates[1], "IN")
    top_out, bottom_out = pins_of(subgates[0], "OUT")[0], pins_of(subgates[1], "OUT")[0]
    wires.create({"Pin1": set_pin, "Pin2": top_in[0]})
    wires.create({"Pin1": reset_pin, "Pin2": bottom_in[0]})
    # The cross coupling of an SR latch.
    wires.create({"Pin1": top_out, "Pin2": bottom_in[1]})
    wires.create({"Pin1": bottom_out, "Pin2": top_in[1]})
    wires.create({"Pin1": top_out, "Pin2": q_pin})
    wires.create({"Pin1": bottom_out, "Pin2": qbar_pin})
    return ff, subgates


def generate_library(
    db: Database,
    n_interfaces: int,
    implementations_per_interface: int = 2,
    seed: int = 7,
) -> Tuple[List, List]:
    """A gate library: interfaces plus implementations for each.

    Returns (interfaces, implementations), deterministic for a seed.
    """
    rng = random.Random(seed)
    interfaces = []
    implementations = []
    for i in range(n_interfaces):
        iface = make_interface(
            db,
            length=rng.randrange(10, 100),
            width=rng.randrange(5, 50),
            n_in=rng.randrange(1, 4),
        )
        interfaces.append(iface)
        for j in range(implementations_per_interface):
            implementations.append(
                make_implementation(db, iface, time_behavior=rng.randrange(1, 20))
            )
    return interfaces, implementations


def generate_composite(
    db: Database, component_interfaces, n_components: int, seed: int = 11
):
    """A composite GateImplementation using ``n_components`` components
    drawn from ``component_interfaces`` (with reuse)."""
    rng = random.Random(seed)
    own_if = make_interface(db, length=200, width=100, n_in=4)
    composite = make_implementation(db, own_if)
    for index in range(n_components):
        component = rng.choice(component_interfaces)
        add_component(
            composite,
            "SubGates",
            component,
            GateLocation={"X": index * 10, "Y": (index * 7) % 90},
        )
    return composite


def generate_component_tree(
    db: Database, depth: int, fanout: int = 2
) -> Tuple["DBObject", int]:
    """A composite hierarchy ``depth`` levels deep with ``fanout`` children
    per level.  Returns (top implementation, total components created)."""
    created = 0

    def build(level: int):
        nonlocal created
        iface = make_interface(db, length=10 + level, width=5)
        impl = make_implementation(db, iface)
        created += 1
        if level < depth:
            for index in range(fanout):
                child_iface, _ = build(level + 1)
                add_component(
                    impl, "SubGates", child_iface,
                    GateLocation={"X": index, "Y": level},
                )
        return iface, impl

    top_iface, top_impl = build(0)
    return top_impl, created
