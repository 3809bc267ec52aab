"""Transactions for design sessions.

Strict two-phase locking over the scoped :class:`~repro.txn.locks.LockTable`
with three §6-specific features:

* **lock inheritance** — reading an object read-locks the visible parts of
  its transmitters (see :mod:`repro.txn.lock_inheritance`), so a composite
  reader and a component writer conflict even though they touch different
  objects;
* **expansion locking** — :meth:`Transaction.lock_expansion` locks "not
  only single objects but whole parts of the component hierarchy";
* **access-control capping** — implicit expansion locks are capped to the
  mode the :class:`~repro.txn.access.AccessControlManager` admits, so
  protected standard parts (bolts, nuts, standard cells) are never
  write-locked by a sweep.

Transactions default to the non-blocking conflict policy (a conflicting
acquisition raises immediately).  ``begin(wait=True, lock_timeout=...)``
switches a transaction to the blocking policy ahead of the service tier:
its acquisitions park on the lock table until grantable (bounded by the
timeout), producing the wait histograms, waits-for edges and blocked/
timeout audit events of the contention observatory.  Every acquisition is
tagged with its *origin* (``read``/``write``/``inherited``/``expansion``)
so §6 lock-inheritance contention is separable in ``locks.*`` metrics.

Aborts undo attribute updates through an in-transaction undo log.  *Design
transactions* (``persistent=True``) model the long checkout/checkin
sessions of CAD work: their locks survive :meth:`~Transaction.commit` until
:meth:`~Transaction.checkin`.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..core.objects import DBObject
from ..core.slots import UNSET as _UNSET
from ..errors import LockConflictError, TransactionError
from .access import AccessControlManager, Right
from .lock_inheritance import (
    expansion_lock_plan,
    inherited_lock_plan,
    note_inherited_conflict,
)
from .locks import LockMode, LockTable

__all__ = ["Transaction", "TransactionManager"]


class Transaction:
    """One transaction: lock set, undo log, status."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"

    def __init__(
        self,
        manager: "TransactionManager",
        txn_id: int,
        user: Optional[str] = None,
        persistent: bool = False,
        wait: bool = False,
        lock_timeout: Optional[float] = None,
    ):
        self.manager = manager
        self.id = txn_id
        self.user = user
        self.persistent = persistent
        #: Blocking conflict policy: park on conflicting locks instead of
        #: raising, bounded by ``lock_timeout`` seconds (None = forever,
        #: or the table's default).
        self.wait = wait
        self.lock_timeout = lock_timeout
        self.status = self.ACTIVE
        #: (object, attribute, prior local cell — UNSET when it had none).
        self._undo: List[Tuple[DBObject, str, Any]] = []
        self._checked_in = not persistent

    # -- status plumbing ---------------------------------------------------------

    def _ensure_active(self) -> None:
        if self.status != self.ACTIVE:
            raise TransactionError(f"transaction {self.id} is {self.status}")

    @property
    def lock_table(self) -> LockTable:
        return self.manager.lock_table

    def _audit_log(self):
        """The attached audit log, or None (one load + branch when off)."""
        obs = getattr(self.manager.database, "obs", None)
        return obs.audit if obs is not None else None

    def _slowlog(self):
        """The attached slow-op log, or None (one load + branch when off)."""
        obs = getattr(self.manager.database, "obs", None)
        return obs.slowlog if obs is not None else None

    # -- reading -----------------------------------------------------------------

    def read(self, obj: DBObject, members: Optional[set] = None) -> DBObject:
        """Read-lock ``obj`` (optionally only some members) with
        lock inheritance: the visible parts of its transmitters are
        read-locked too (§6)."""
        self._ensure_active()
        self._check_access(obj, Right.READ)
        scope = frozenset(members) if members is not None else None
        audit = self._audit_log()
        if audit is None:
            self._acquire_read_locks(obj, scope, None)
        else:
            # The locked read is a causal root: its lock-inheritance
            # acquisitions become children of one txn.read record.
            with audit.operation(
                "txn.read",
                obj,
                txn=self.id,
                scope=sorted(scope) if scope is not None else None,
            ):
                self._acquire_read_locks(obj, scope, audit)
        return obj

    def _acquire_read_locks(self, obj: DBObject, scope, audit) -> None:
        self.lock_table.acquire(
            self.id, obj.surrogate, LockMode.S, scope,
            wait=self.wait, timeout=self.lock_timeout, origin="read",
        )
        for transmitter, visible in inherited_lock_plan(obj, scope):
            self._check_access(transmitter, Right.READ)
            try:
                self.lock_table.acquire(
                    self.id, transmitter.surrogate, LockMode.S, visible,
                    wait=self.wait, timeout=self.lock_timeout,
                    origin="inherited",
                )
            except LockConflictError as exc:
                # §6 contention in the *reverse* direction of data
                # inheritance: a component writer blocked this composite
                # reader.  Attributed separately from direct conflicts.
                note_inherited_conflict(
                    getattr(self.manager.database, "obs", None),
                    obj, transmitter, exc, txn=self.id,
                )
                raise
            if audit is not None:
                audit.record(
                    "lock.inherited",
                    transmitter,
                    txn=self.id,
                    scope=sorted(visible) if visible is not None else None,
                )

    def get(self, obj: DBObject, member: str) -> Any:
        """Locked read of one member."""
        self.read(obj, {member})
        return obj.get_member(member)

    # -- writing -----------------------------------------------------------------

    def write(self, obj: DBObject, members: Optional[set] = None) -> DBObject:
        """Write-lock ``obj`` (optionally scoped to some members).

        Conflicts with any composite reader that holds an inherited read
        lock on the visible part — exactly the §6 requirement.
        """
        self._ensure_active()
        self._check_access(obj, Right.WRITE)
        scope = frozenset(members) if members is not None else None
        self.lock_table.acquire(
            self.id, obj.surrogate, LockMode.X, scope,
            wait=self.wait, timeout=self.lock_timeout, origin="write",
        )
        return obj

    def set(self, obj: DBObject, attribute: str, value: Any) -> Any:
        """Write-lock, log undo information, update."""
        self.write(obj, {attribute})
        prior = obj._local_value(attribute, _UNSET)
        result = obj.set_attribute(attribute, value)
        self._undo.append((obj, attribute, prior))
        return result

    # -- expansion locking ----------------------------------------------------------

    def lock_expansion(self, composite: DBObject, mode: str = LockMode.S) -> int:
        """Lock a whole component hierarchy for expansion work (§6).

        Requested ``mode`` applies to the composite's own tree; components
        are read-locked on their visible parts only.  Every mode is capped
        by access control before acquisition; the standard-object pattern
        (WRITE requested, READ allowed) downgrades instead of failing.
        Returns the number of objects locked.
        """
        self._ensure_active()
        obs = getattr(self.manager.database, "obs", None)
        if obs is None:
            return self._lock_expansion(composite, mode)
        with obs.tracer.span(
            "txn.lock_expansion", txn=self.id, root=str(composite.surrogate)
        ):
            return self._lock_expansion(composite, mode)

    def _lock_expansion(self, composite: DBObject, mode: str) -> int:
        plan = expansion_lock_plan(composite, mode)
        access = self.manager.access
        requests = []
        try:
            for obj, scope, requested in plan:
                if access is not None:
                    requested = access.cap_mode(self.user, obj, requested)
                requests.append((obj.surrogate, requested, scope))
        finally:
            # One batched grant.  When access control refuses an item, the
            # items capped before it are granted all the same: locking
            # item by item would hold them at the refusal.
            self.lock_table.acquire_many(
                self.id, requests,
                wait=self.wait, timeout=self.lock_timeout, origin="expansion",
            )
        return len(requests)

    # -- completion -----------------------------------------------------------------

    def commit(self) -> None:
        """End the transaction, keeping its effects.

        A persistent design transaction keeps its locks (checkout
        semantics) until :meth:`checkin`.
        """
        self._ensure_active()
        slowlog = self._slowlog()
        started = perf_counter() if slowlog is not None else 0.0
        undo_length = len(self._undo)
        self.status = self.COMMITTED
        self._undo.clear()
        if not self.persistent:
            self.lock_table.release_all(self.id)
        self.manager._finished(self)
        self.manager._record_finish("committed")
        if slowlog is not None:
            duration = perf_counter() - started
            if slowlog.exceeded("txn", duration):
                slowlog.note(
                    "txn", duration, subject=self, op="commit",
                    txn=self.id, undo=undo_length,
                )

    def abort(self) -> None:
        """Undo every logged update and release all locks."""
        self._ensure_active()
        audit = self._audit_log()
        slowlog = self._slowlog()
        started = perf_counter() if slowlog is not None else 0.0
        undo_length = len(self._undo)
        if audit is None:
            self._undo_all()
        else:
            # One txn.abort record parents every attribute_restored the
            # rollback emits, so the whole revert is one causal cone.
            with audit.operation("txn.abort", txn=self.id, undo=len(self._undo)):
                self._undo_all()
        self.status = self.ABORTED
        self.lock_table.release_all(self.id)
        self.manager._finished(self)
        self.manager._record_finish("aborted")
        if slowlog is not None:
            duration = perf_counter() - started
            if slowlog.exceeded("txn", duration):
                slowlog.note(
                    "txn", duration, subject=self, op="abort",
                    txn=self.id, undo=undo_length,
                )

    def _undo_all(self) -> None:
        for obj, attribute, prior in reversed(self._undo):
            obj._restore_attribute(attribute, prior)
        self._undo.clear()

    def checkin(self) -> None:
        """Release the locks of a committed persistent transaction."""
        if not self.persistent:
            raise TransactionError("checkin applies to persistent transactions")
        if self.status == self.ACTIVE:
            raise TransactionError("commit (or abort) before checkin")
        if self._checked_in:
            raise TransactionError(f"transaction {self.id} already checked in")
        self.lock_table.release_all(self.id)
        self._checked_in = True

    # -- context manager ---------------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.status == self.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False

    def _check_access(self, obj: DBObject, needed: str) -> None:
        access = self.manager.access
        if access is not None:
            access.check(self.user, obj, needed)

    def __repr__(self) -> str:
        return f"<Transaction {self.id} {self.status} user={self.user!r}>"


class TransactionManager:
    """Per-database transaction coordinator."""

    def __init__(self, database, access: Optional[AccessControlManager] = None):
        self.database = database
        self.lock_table = LockTable(obs=getattr(database, "obs", None))
        self.access = access
        self._ids = itertools.count(1)
        self._active: Dict[int, Transaction] = {}
        database.transactions = self

    def begin(
        self,
        user: Optional[str] = None,
        persistent: bool = False,
        wait: bool = False,
        lock_timeout: Optional[float] = None,
    ) -> Transaction:
        """Start a transaction.

        ``wait=True`` gives it the blocking conflict policy: its lock
        acquisitions park behind conflicting holders (``lock_timeout``
        seconds at most, None = the lock table's default) instead of
        raising immediately — the concurrent-session posture, measured by
        the contention observatory.
        """
        txn = Transaction(
            self, next(self._ids), user=user, persistent=persistent,
            wait=wait, lock_timeout=lock_timeout,
        )
        self._active[txn.id] = txn
        obs = getattr(self.database, "obs", None)
        if obs is not None:
            obs.metrics.counter("txn.begun").inc()
        return txn

    def _record_finish(self, status: str) -> None:
        obs = getattr(self.database, "obs", None)
        if obs is not None:
            obs.metrics.counter(f"txn.{status}").inc()

    def _finished(self, txn: Transaction) -> None:
        self._active.pop(txn.id, None)

    def active_transactions(self) -> List[Transaction]:
        return list(self._active.values())

    def abort_all(self) -> None:
        """Abort every active transaction (session teardown)."""
        for txn in list(self._active.values()):
            txn.abort()
