"""Synthetic steel-construction workloads (§5 at scale).

Weight-carrying structures assembled from girders and plates by screwings;
all generated data satisfies the §5 constraints (bolt/nut diameters match,
bolt length = nut length + total bore length) so constraint-checking
benchmarks measure evaluation, not violation handling.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..ddl.paper import load_steel_schema
from ..engine.database import Database

__all__ = [
    "steel_database",
    "make_girder_interface",
    "make_plate_interface",
    "generate_structure",
]


def steel_database(name: str = "steel") -> Database:
    """A fresh database with the paper's steel schema loaded."""
    db = Database(name)
    load_steel_schema(db.catalog)
    return db


def make_girder_interface(db: Database, rng: random.Random, n_bores: int = 2):
    height = rng.randrange(5, 20)
    width = rng.randrange(5, 20)
    girder = db.create_object(
        "GirderInterface",
        Length=rng.randrange(10, 100 * height * width - 1),
        Height=height,
        Width=width,
    )
    for _ in range(n_bores):
        girder.subclass("Bores").create(
            Diameter=rng.randrange(10, 16),
            Length=rng.randrange(5, 15),
            Position={"X": rng.randrange(100), "Y": rng.randrange(100)},
        )
    return girder


def make_plate_interface(db: Database, rng: random.Random, n_bores: int = 2):
    plate = db.create_object(
        "PlateInterface",
        Thickness=rng.randrange(5, 30),
        Area={"Length": rng.randrange(20, 200), "Width": rng.randrange(20, 200)},
    )
    for _ in range(n_bores):
        plate.subclass("Bores").create(
            Diameter=rng.randrange(10, 16),
            Length=rng.randrange(5, 15),
            Position={"X": rng.randrange(100), "Y": rng.randrange(100)},
        )
    return plate


def generate_structure(
    db: Database,
    n_girders: int = 2,
    n_plates: int = 2,
    n_screwings: int = 2,
    seed: int = 13,
) -> Tuple["DBObject", List["DBObject"]]:
    """A WeightCarrying_Structure with valid screwings.

    Each screwing joins one girder bore with one plate bore and carries a
    bolt/nut pair satisfying the §5 constraints.  Returns
    (structure, screwings).
    """
    rng = random.Random(seed)
    girder_interfaces = [make_girder_interface(db, rng) for _ in range(n_girders)]
    plate_interfaces = [make_plate_interface(db, rng) for _ in range(n_plates)]

    structure = db.create_object(
        "WeightCarrying_Structure",
        Designer="generator",
        Description=f"synthetic structure seed={seed}",
    )
    girder_slots = [
        structure.subclass("Girders").create(transmitter=g)
        for g in girder_interfaces
    ]
    plate_slots = [
        structure.subclass("Plates").create(transmitter=p)
        for p in plate_interfaces
    ]

    screwings = []
    for index in range(n_screwings):
        girder = girder_interfaces[index % len(girder_interfaces)]
        plate = plate_interfaces[index % len(plate_interfaces)]
        g_bore = girder.subclass("Bores").members()[index % 2]
        p_bore = plate.subclass("Bores").members()[index % 2]
        diameter = min(g_bore["Diameter"], p_bore["Diameter"]) - 1
        nut_length = rng.randrange(5, 12)
        bolt = db.create_object(
            "BoltType",
            Diameter=diameter,
            Length=nut_length + g_bore["Length"] + p_bore["Length"],
        )
        nut = db.create_object("NutType", Diameter=diameter, Length=nut_length)
        screwing = structure.subrel("Screwings").create(
            {"Bores": [g_bore, p_bore]}, Strength=rng.randrange(1, 10)
        )
        screwing.subclass("Bolt").create(transmitter=bolt)
        screwing.subclass("Nut").create(transmitter=nut)
        screwings.append(screwing)
    return structure, screwings
