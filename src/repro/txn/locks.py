"""Lock manager with member-scoped locks.

§6 motivates two refinements over plain object locking:

* **lock inheritance** — "Accessing the data of a composite object which
  are inherited from a component requires to prevent the component also
  from being updated.  Thus, the parts of the component which are visible
  in the composite object have to be read-locked …";
* **partial locks** — "only these parts of the standard cells are locked
  in read-mode", so heavily shared standard objects stay usable.

Both need locks scoped to a *subset of members*, not whole objects.  A lock
here is ``(surrogate, mode, scope)`` where ``scope`` is a frozenset of
member names or ``None`` for the whole object.  Two locks conflict when
their modes conflict **and** their scopes overlap (``None`` overlaps
everything).

The manager supports two conflict policies:

* **non-blocking** (the default, ``wait=False``) — a conflicting request
  raises :class:`~repro.errors.LockConflictError` immediately, leaving
  retry/abort policy to the design session: the interactive setting the
  paper assumes, where blocking a designer for hours is worse than telling
  them who holds the lock;
* **blocking** (``wait=True``) — the request parks on the table's
  condition variable until every conflicting holder releases, or until
  ``timeout`` seconds elapse (:class:`~repro.errors.LockTimeoutError`).
  This is the service-tier posture: sessions queue instead of failing.
  Granting never reorders — a woken waiter re-checks against whatever is
  granted at wake time.

The table is thread-safe (one mutex guards every mutation) and, when an
:class:`~repro.obs.Observability` bundle is attached, emits the contention
telemetry the flight recorder and health rules consume: ``locks.*``
counters, the ``locks.wait_seconds`` histogram, a live **waits-for** edge
set (:meth:`LockTable.waits_for`), and ``lock.blocked`` / ``lock.granted``
/ ``lock.timeout`` / ``lock.deadlock`` records on the audit stream.
Blocking requests that would close a waits-for cycle are refused up front
with :class:`~repro.errors.DeadlockError` instead of waiting forever.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.surrogate import Surrogate
from ..errors import DeadlockError, LockConflictError, LockTimeoutError

__all__ = [
    "LockMode",
    "LockEntry",
    "LockTable",
    "scopes_overlap",
    "WAIT_BUCKETS",
]

#: Race-sanitizer guard (:mod:`repro.obs.race`): ``None`` when dark, the
#: active sanitizer while enabled.  The table reports its own state
#: mutations (serialised through the mutex sync key) and models grants
#: and releases as happens-before edges, so code protected by *engine*
#: locks is race-clean to the sanitizer exactly when it is in reality.
TSAN: Any = None

#: Bucket edges (seconds) for the ``locks.wait_seconds`` histogram —
#: 100µs to 5s, the plausible span between "woken on the next release"
#: and "the holder is a design session, give up".
WAIT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


class LockMode:
    """Lock modes: shared (read) and exclusive (write)."""

    S = "S"
    X = "X"

    @staticmethod
    def compatible(a: str, b: str) -> bool:
        return a == LockMode.S and b == LockMode.S

    @staticmethod
    def stronger(a: str, b: str) -> str:
        return LockMode.X if LockMode.X in (a, b) else LockMode.S


Scope = Optional[FrozenSet[str]]


def scopes_overlap(a: Scope, b: Scope) -> bool:
    """Whole-object scope (None) overlaps everything; sets must intersect."""
    if a is None or b is None:
        return True
    return bool(a & b)


@dataclass
class LockEntry:
    """One granted lock of one transaction on one object."""

    txn_id: int
    mode: str
    scope: Scope

    def conflicts_with(self, mode: str, scope: Scope) -> bool:
        return not LockMode.compatible(self.mode, mode) and scopes_overlap(
            self.scope, scope
        )


class LockTable:
    """All granted locks, indexed by object surrogate.

    ``obs`` optionally attaches a :class:`repro.obs.Observability` bundle;
    when present, grants, conflicts, waits, timeouts and scope sizes are
    recorded in its metrics registry (``locks.*``) and blocking events are
    stamped onto the audit stream.  ``wait_timeout`` is the default
    timeout (seconds) for blocking requests that don't pass their own;
    ``None`` waits forever.
    """

    def __init__(self, obs=None, wait_timeout: Optional[float] = None) -> None:
        self._locks: Dict[Surrogate, List[LockEntry]] = {}
        self._by_txn: Dict[int, List[Tuple[Surrogate, LockEntry]]] = {}
        #: Cooperative groups: transactions in the same group never
        #: conflict with each other (design teams sharing a checkout,
        #: the "advanced transaction mechanisms" of §6's references).
        self._groups: Dict[int, int] = {}
        #: One mutex + condition for the whole table: waiters park here
        #: and every release wakes them for a re-check.  The raw Lock is
        #: kept alongside the Condition so hot paths enter it directly
        #: (C-level) instead of through Condition.__enter__'s Python-level
        #: delegation; both names guard the same lock and no method
        #: re-enters it.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        #: Live waits-for edges: blocked txn -> the holders blocking it.
        #: Maintained only while a blocking request is parked; drained on
        #: grant, timeout and deadlock refusal alike.
        self._waits_for: Dict[int, Set[int]] = {}
        self.wait_timeout = wait_timeout
        self.obs = obs

    def set_group(self, txn_id: int, group_id: Optional[int]) -> None:
        """Place a transaction in a cooperative group (None removes it)."""
        with self._mutex:
            if group_id is None:
                self._groups.pop(txn_id, None)
            else:
                self._groups[txn_id] = group_id
            # Group membership relaxes conflicts: parked waiters re-check.
            if self._waits_for:
                self._cond.notify_all()

    def _same_owner(self, a: int, b: int) -> bool:
        if a == b:
            return True
        group_a = self._groups.get(a)
        return group_a is not None and group_a == self._groups.get(b)

    # -- conflict machinery (call with the mutex held) ----------------------------

    def _blockers(
        self,
        entries: List[LockEntry],
        txn_id: int,
        mode: str,
        scope: Scope,
    ) -> List[LockEntry]:
        """Every granted entry the request conflicts with."""
        return [
            entry
            for entry in entries
            if not self._same_owner(entry.txn_id, txn_id)
            and entry.conflicts_with(mode, scope)
        ]

    def _would_deadlock(self, waiter: int, holders: Set[int]) -> bool:
        """Would parking ``waiter`` behind ``holders`` close a cycle?

        Follows the live waits-for edges from each blocking holder; if any
        path leads back to the waiter, granting the wait would deadlock.
        """
        stack = list(holders)
        seen: Set[int] = set()
        while stack:
            txn = stack.pop()
            if txn == waiter:
                return True
            if txn in seen:
                continue
            seen.add(txn)
            stack.extend(self._waits_for.get(txn, ()))
        return False

    def _note_conflict(self, mode: str, origin: Optional[str]) -> None:
        if self.obs is not None:
            # The non-blocking manager's equivalent of a lock wait.
            self.obs.metrics.counter("locks.conflicts").inc()
            self.obs.metrics.counter(f"locks.conflicts.{mode}").inc()
            if origin is not None:
                self.obs.metrics.counter(f"locks.conflicts.{origin}").inc()

    def _merge(
        self, entries: List[LockEntry], txn_id: int, mode: str, scope: Scope
    ) -> Tuple[Optional[LockEntry], str, Scope, List[LockEntry]]:
        """A request against an object's granted entries: the transaction's
        own entry (or None), the mode and scope merged with it, and every
        entry of another owner the merged request conflicts with."""
        own = next((e for e in entries if e.txn_id == txn_id), None)
        if own is not None:
            mode = LockMode.stronger(own.mode, mode)
            if own.scope is None or scope is None:
                scope = None
            else:
                scope = frozenset(own.scope | scope)
        elif scope is not None:
            scope = frozenset(scope)
        return own, mode, scope, self._blockers(entries, txn_id, mode, scope)

    def _audit(self, kind: str, subject: Any, **detail: Any) -> None:
        obs = self.obs
        if obs is not None:
            audit = obs.audit
            if audit is not None:
                audit.record(kind, subject, **detail)

    # -- acquisition ---------------------------------------------------------------

    def acquire(
        self,
        txn_id: int,
        surrogate: Surrogate,
        mode: str,
        scope: Scope = None,
        wait: bool = False,
        timeout: Optional[float] = None,
        origin: Optional[str] = None,
    ) -> LockEntry:
        """Grant a lock, or raise — immediately or after waiting.

        A transaction's own locks never conflict; re-requests merge into
        the existing entry (scope union, stronger mode), which also
        implements the S→X upgrade when no other holder blocks it.  The
        conflict check runs against the would-be **merged** entry — an
        upgrade that strengthens the mode must re-justify the transaction's
        *entire* scope, otherwise a reader of a disjoint member could be
        silently overrun (conservative, and safe).

        ``wait=False`` (default) raises :class:`LockConflictError` on
        conflict.  ``wait=True`` parks on the table's condition variable
        until grantable; ``timeout`` (or the table's ``wait_timeout``)
        bounds the wait (:class:`LockTimeoutError` on expiry), and a
        request whose wait would close a waits-for cycle raises
        :class:`DeadlockError` without waiting.  A ``timeout`` of zero
        (or negative) is a **non-blocking probe**: try once, then
        :class:`LockTimeoutError` — it never parks, never registers a
        waits-for edge and is exempt from the deadlock pre-check (a
        probe cannot close a cycle because it never waits).  ``origin``
        tags conflict and wait counters (``locks.conflicts.<origin>``)
        so lock-inheritance and expansion contention are separable in
        metrics.
        """
        san = TSAN
        with self._mutex:
            if san is not None:
                san.write(
                    ("locktable", id(self)), label="locktable",
                    sync=("mutex", id(self)),
                )
            entries = self._locks.setdefault(surrogate, [])
            blockers: List[LockEntry] = []
            if entries:
                own, requested_mode, requested_scope, blockers = self._merge(
                    entries, txn_id, mode, scope
                )
            else:
                # The uncontended first lock on an object (every locked
                # read in E9) skips the merge call.
                own = None
                requested_mode = mode
                requested_scope = None if scope is None else frozenset(scope)
            if blockers:
                self._note_conflict(requested_mode, origin)
                if not wait:
                    raise self._conflict_error(
                        surrogate, requested_mode, requested_scope, blockers[0]
                    )
                effective = timeout if timeout is not None else self.wait_timeout
                if effective is not None and effective <= 0:
                    # try-once probe: no parking, no waits-for edge, no
                    # deadlock pre-check, no lock.blocked audit — the
                    # request never waits, so none of the parked-waiter
                    # machinery applies.
                    if self.obs is not None:
                        self.obs.metrics.counter("locks.timeouts").inc()
                    self._audit(
                        "lock.timeout", surrogate,
                        txn=txn_id,
                        holders=sorted({e.txn_id for e in blockers}),
                        mode=requested_mode, waited=0.0,
                    )
                    raise self._conflict_error(
                        surrogate, requested_mode, requested_scope,
                        blockers[0], timed_out=0.0,
                    )
                self._wait_for_grant(
                    txn_id, surrogate, requested_mode, requested_scope,
                    blockers, timeout, origin,
                )
                # Woken grantable: the entry list may have been replaced
                # while parked (all locks on the surrogate released).
                entries = self._locks.setdefault(surrogate, [])
                own = next((e for e in entries if e.txn_id == txn_id), None)

            if self.obs is not None:
                self.obs.metrics.counter("locks.acquired").inc()
                self.obs.metrics.counter(f"locks.acquired.{requested_mode}").inc()
                if requested_scope is None:
                    self.obs.metrics.counter("locks.whole_object").inc()
                else:
                    self.obs.metrics.histogram("locks.scope_size").observe(
                        len(requested_scope)
                    )
            if san is not None:
                san.lock_acquired(("lock", id(self), surrogate))
            if own is not None:
                own.mode = requested_mode
                own.scope = requested_scope
                return own
            entry = LockEntry(txn_id, requested_mode, requested_scope)
            entries.append(entry)
            self._by_txn.setdefault(txn_id, []).append((surrogate, entry))
            return entry

    def acquire_many(
        self,
        txn_id: int,
        requests: Sequence[Tuple[Surrogate, str, Scope]],
        wait: bool = False,
        timeout: Optional[float] = None,
        origin: Optional[str] = None,
    ) -> None:
        """Grant ``(surrogate, mode, scope)`` requests in order, taking the
        mutex once.

        Each request gets :meth:`acquire`'s own-entry merge and conflict
        check, and the grant counters (``locks.acquired``,
        ``locks.acquired.<mode>``, ``locks.whole_object``,
        ``locks.scope_size``) are updated once for the batch with the
        values the one-by-one calls would leave.  At the first request
        that conflicts the batch stops: that request and the rest go
        through :meth:`acquire` one by one, so the error, the holder, the
        conflict counters, waiting, timeouts and deadlock refusal are
        exactly :meth:`acquire`'s — and the locks granted before the
        conflict stay held until the transaction ends, as they would.
        """
        san = TSAN
        locks = self._locks
        granted = whole = 0
        by_mode: Dict[str, int] = {}
        sizes: List[int] = []
        with self._mutex:
            if san is not None:
                san.write(
                    ("locktable", id(self)), label="locktable",
                    sync=("mutex", id(self)),
                )
            held = self._by_txn.get(txn_id)
            for surrogate, mode, scope in requests:
                entries = locks.get(surrogate)
                if entries:
                    own, mode, scope, blockers = self._merge(
                        entries, txn_id, mode, scope
                    )
                    if blockers:
                        break
                else:
                    own = None
                    if scope is not None:
                        scope = frozenset(scope)
                    if entries is None:
                        entries = locks[surrogate] = []
                if own is not None:
                    own.mode = mode
                    own.scope = scope
                else:
                    entry = LockEntry(txn_id, mode, scope)
                    entries.append(entry)
                    if held is None:
                        held = self._by_txn[txn_id] = []
                    held.append((surrogate, entry))
                granted += 1
                by_mode[mode] = by_mode.get(mode, 0) + 1
                if scope is None:
                    whole += 1
                else:
                    sizes.append(len(scope))
                if san is not None:
                    san.lock_acquired(("lock", id(self), surrogate))
            obs = self.obs
            if obs is not None and granted:
                metrics = obs.metrics
                metrics.counter("locks.acquired").inc(granted)
                for mode, count in by_mode.items():
                    metrics.counter(f"locks.acquired.{mode}").inc(count)
                if whole:
                    metrics.counter("locks.whole_object").inc(whole)
                if sizes:
                    hist = metrics.histogram("locks.scope_size")
                    for size in sizes:
                        hist.observe(size)
        for surrogate, mode, scope in requests[granted:]:
            self.acquire(
                txn_id, surrogate, mode, scope,
                wait=wait, timeout=timeout, origin=origin,
            )

    def _conflict_error(
        self,
        surrogate: Surrogate,
        mode: str,
        scope: Scope,
        blocker: LockEntry,
        timed_out: Optional[float] = None,
    ) -> LockConflictError:
        suffix = (
            f"; timed out after {timed_out:.3f}s" if timed_out is not None else ""
        )
        message = (
            f"lock {mode} on {surrogate} (scope "
            f"{sorted(scope) if scope else 'ALL'}) "
            f"conflicts with {blocker.mode} held by transaction "
            f"{blocker.txn_id}{suffix}"
        )
        cls = LockTimeoutError if timed_out is not None else LockConflictError
        return cls(message, holder=blocker.txn_id, surrogate=surrogate)

    def _wait_for_grant(
        self,
        txn_id: int,
        surrogate: Surrogate,
        mode: str,
        scope: Scope,
        blockers: List[LockEntry],
        timeout: Optional[float],
        origin: Optional[str],
    ) -> None:
        """Park until no granted entry conflicts (mutex held throughout —
        :meth:`threading.Condition.wait` releases it while parked).

        Raises :class:`DeadlockError` up front when the new waits-for
        edges would close a cycle, :class:`LockTimeoutError` on expiry.
        On every outcome the waiter's edges are drained.
        """
        holders = {entry.txn_id for entry in blockers}
        if self._would_deadlock(txn_id, holders):
            if self.obs is not None:
                self.obs.metrics.counter("locks.deadlocks").inc()
            self._audit(
                "lock.deadlock", surrogate,
                txn=txn_id, holders=sorted(holders), mode=mode,
            )
            raise DeadlockError(
                f"granting {mode} on {surrogate} to transaction {txn_id} "
                f"would close a waits-for cycle through "
                f"{sorted(holders)}",
                holder=blockers[0].txn_id,
                surrogate=surrogate,
            )
        if timeout is None:
            timeout = self.wait_timeout
        obs = self.obs
        if obs is not None:
            obs.metrics.counter("locks.waits").inc()
            if origin is not None:
                obs.metrics.counter(f"locks.waits.{origin}").inc()
            obs.metrics.gauge("locks.waiting").inc()
        self._audit(
            "lock.blocked", surrogate,
            txn=txn_id, holders=sorted(holders), mode=mode,
            timeout=timeout,
        )
        started = perf_counter()
        deadline = None if timeout is None else started + timeout
        self._waits_for[txn_id] = holders
        try:
            while True:
                remaining = None
                if deadline is not None:
                    remaining = deadline - perf_counter()
                    if remaining <= 0:
                        waited = perf_counter() - started
                        if obs is not None:
                            obs.metrics.counter("locks.timeouts").inc()
                            obs.metrics.histogram(
                                "locks.wait_seconds", WAIT_BUCKETS
                            ).observe(waited)
                        self._audit(
                            "lock.timeout", surrogate,
                            txn=txn_id, holders=sorted(holders),
                            mode=mode, waited=waited,
                        )
                        raise self._conflict_error(
                            surrogate, mode, scope, blockers[0],
                            timed_out=waited,
                        )
                self._cond.wait(remaining)
                entries = self._locks.get(surrogate, [])
                blockers = self._blockers(entries, txn_id, mode, scope)
                if not blockers:
                    break
                holders = {entry.txn_id for entry in blockers}
                self._waits_for[txn_id] = holders
                if self._would_deadlock(txn_id, holders):
                    if obs is not None:
                        obs.metrics.counter("locks.deadlocks").inc()
                    self._audit(
                        "lock.deadlock", surrogate,
                        txn=txn_id, holders=sorted(holders), mode=mode,
                    )
                    raise DeadlockError(
                        f"transaction {txn_id} waiting for {mode} on "
                        f"{surrogate} entered a waits-for cycle through "
                        f"{sorted(holders)}",
                        holder=blockers[0].txn_id,
                        surrogate=surrogate,
                    )
        finally:
            self._waits_for.pop(txn_id, None)
            if obs is not None:
                obs.metrics.gauge("locks.waiting").dec()
        waited = perf_counter() - started
        if obs is not None:
            obs.metrics.histogram(
                "locks.wait_seconds", WAIT_BUCKETS
            ).observe(waited)
            obs.metrics.counter("locks.grants_after_wait").inc()
        self._audit(
            "lock.granted", surrogate, txn=txn_id, mode=mode, waited=waited
        )

    # -- release -------------------------------------------------------------------

    def release_all(self, txn_id: int) -> int:
        """Drop every lock of a transaction; returns how many were held."""
        san = TSAN
        with self._mutex:
            if san is not None:
                san.write(
                    ("locktable", id(self)), label="locktable",
                    sync=("mutex", id(self)),
                )
            held = self._by_txn.pop(txn_id, [])
            if san is not None:
                for surrogate, _entry in held:
                    san.lock_released(("lock", id(self), surrogate))
            if self.obs is not None and held:
                self.obs.metrics.counter("locks.released").inc(len(held))
            for surrogate, entry in held:
                entries = self._locks.get(surrogate)
                if entries is not None:
                    try:
                        entries.remove(entry)
                    except ValueError:  # pragma: no cover - defensive
                        pass
                    if not entries:
                        del self._locks[surrogate]
            # Waiters always register their edges under the mutex before
            # parking, so an empty ``_waits_for`` means nobody to wake.
            if held and self._waits_for:
                self._cond.notify_all()
            return len(held)

    # -- inspection ----------------------------------------------------------------

    def holders(self, surrogate: Surrogate) -> List[LockEntry]:
        """Copy of the entries currently granted on one object."""
        with self._mutex:
            return list(self._locks.get(surrogate, []))

    def held_by(self, txn_id: int) -> List[Tuple[Surrogate, LockEntry]]:
        with self._mutex:
            return list(self._by_txn.get(txn_id, []))

    def lock_count(self) -> int:
        with self._mutex:
            return sum(len(entries) for entries in self._locks.values())

    def is_locked(self, surrogate: Surrogate) -> bool:
        with self._mutex:
            return bool(self._locks.get(surrogate))

    def waits_for(self) -> Set[Tuple[int, int]]:
        """The live waits-for edge set: ``(waiter, holder)`` pairs.

        Nonempty exactly while blocking requests are parked; drains as
        they are granted, time out or are refused as deadlocks.
        """
        with self._mutex:
            return {
                (waiter, holder)
                for waiter, holders in self._waits_for.items()
                for holder in holders
            }

    def waiting_count(self) -> int:
        """How many blocking requests are currently parked."""
        with self._mutex:
            return len(self._waits_for)

    def contention_snapshot(self) -> Dict[str, Any]:
        """A point-in-time view of the table for ``repro top``."""
        with self._mutex:
            return {
                "locked_objects": len(self._locks),
                "granted": sum(len(e) for e in self._locks.values()),
                "holding_transactions": len(self._by_txn),
                "waiting": len(self._waits_for),
                "waits_for": sorted(
                    (waiter, holder)
                    for waiter, holders in self._waits_for.items()
                    for holder in holders
                ),
            }
