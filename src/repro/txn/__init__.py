"""Transactions & concurrency (§6): scoped locks, lock inheritance,
expansion locking, access control."""

from .access import AccessControlManager, Right
from .groups import TransactionGroup
from .lock_inheritance import (
    expansion_lock_plan,
    inherited_lock_plan,
    naive_expansion_lock_plan,
    note_inherited_conflict,
)
from .locks import WAIT_BUCKETS, LockEntry, LockMode, LockTable, scopes_overlap
from .prediction import PredictedConflict, potential_conflicts, relation_between
from .transactions import Transaction, TransactionManager

__all__ = [
    "AccessControlManager",
    "Right",
    "TransactionGroup",
    "expansion_lock_plan",
    "inherited_lock_plan",
    "naive_expansion_lock_plan",
    "note_inherited_conflict",
    "WAIT_BUCKETS",
    "LockEntry",
    "LockMode",
    "LockTable",
    "scopes_overlap",
    "PredictedConflict",
    "potential_conflicts",
    "relation_between",
    "Transaction",
    "TransactionManager",
]
