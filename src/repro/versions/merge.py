"""Three-way merge of parallel version alternatives.

§6: version management must "support the parallel development of
alternatives" — and parallel alternatives eventually converge.  The merge
implemented here is the classic three-way scheme over the structural diffs
of :mod:`repro.versions.diff`:

* start from a copy of the *left* alternative;
* apply every *right* change that does not collide with a left change;
* report collisions (both sides changed the same path to different values)
  and structural divergences (both sides resized the same subclass) as
  :class:`MergeConflict` records for the designer to resolve manually —
  the paper's position that adaptation "has to be done manually by a user"
  applies to merges just as much.

The merged object is registered in the version graph derived from the left
parent, with the right parent recorded as a merge parent
(:meth:`VersionGraph.merge_parents_of` exposes it for history display).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..composition.baselines import clone_object
from ..core.objects import DBObject
from ..errors import VersionError
from .diff import DiffEntry, diff_versions
from .graph import VersionGraph
from .states import VersionState

__all__ = ["MergeConflict", "MergeResult", "merge_versions"]

_SEGMENT = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?")


@dataclass(frozen=True)
class MergeConflict:
    """One place both alternatives changed incompatibly."""

    path: str
    kind: str  # 'attribute' | 'structure'
    base: Any
    left: Any
    right: Any

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{self.path}: base {self.base!r}, left {self.left!r}, "
            f"right {self.right!r}"
        )


@dataclass
class MergeResult:
    """Outcome of a merge: the new version plus unresolved conflicts."""

    merged: DBObject
    conflicts: List[MergeConflict]
    applied_from_right: List[DiffEntry]

    @property
    def clean(self) -> bool:
        return not self.conflicts


def _navigate(obj: DBObject, path: str) -> Tuple[Optional[DBObject], str]:
    """Resolve a diff path like ``Pins[1].PinLocation`` to (owner, attr)."""
    parts = path.split(".")
    current: Optional[DBObject] = obj
    for part in parts[:-1]:
        match = _SEGMENT.fullmatch(part)
        if match is None or current is None:
            return None, parts[-1]
        name, index = match.group(1), match.group(2)
        members = current.subclass(name).members()
        position = int(index) if index is not None else 0
        if position >= len(members):
            return None, parts[-1]
        current = members[position]
    return current, parts[-1]


def merge_versions(
    graph: VersionGraph,
    base: DBObject,
    left: DBObject,
    right: DBObject,
    database=None,
    state: str = VersionState.IN_DESIGN,
) -> MergeResult:
    """Merge two alternatives derived from a common base.

    All three versions must be members of ``graph`` and ``base`` must be an
    ancestor of both alternatives.  Returns the merged version (already in
    the graph) and the conflicts needing manual resolution — conflicted
    paths keep the *left* value in the merged object.
    """
    for version in (base, left, right):
        if version not in graph:
            raise VersionError(f"{version!r} is not a member of the graph")
    if not graph.is_ancestor(base, left) or not graph.is_ancestor(base, right):
        raise VersionError(f"{base!r} is not a common ancestor of both alternatives")

    left_diff: Dict[str, DiffEntry] = {
        entry.path: entry for entry in diff_versions(base, left)
    }
    right_diff: Dict[str, DiffEntry] = {
        entry.path: entry for entry in diff_versions(base, right)
    }

    merged = clone_object(left, database=database or left.database)
    conflicts: List[MergeConflict] = []
    applied: List[DiffEntry] = []

    for path, entry in right_diff.items():
        left_entry = left_diff.get(path)
        if left_entry is not None:
            if left_entry.new == entry.new:
                continue  # both sides agree
            conflicts.append(
                MergeConflict(
                    path,
                    "attribute" if entry.kind == "attribute" else "structure",
                    base=entry.old,
                    left=left_entry.new,
                    right=entry.new,
                )
            )
            continue
        if entry.kind == "size":
            # The right side restructured a subclass the left side left
            # alone; member identity across versions is not tracked, so
            # structural imports need a designer.
            conflicts.append(
                MergeConflict(path, "structure", entry.old, entry.old, entry.new)
            )
            continue
        owner, attribute = _navigate(merged, path)
        if owner is None:
            conflicts.append(
                MergeConflict(path, "structure", entry.old, None, entry.new)
            )
            continue
        # A raw restore, not set_attribute: the state guard would veto
        # set_attribute on released versions.
        owner._restore_attribute(attribute, entry.new)
        applied.append(entry)

    graph.derive(left, merged, state=state)
    graph.record_merge(merged, right)
    return MergeResult(merged, conflicts, applied)
