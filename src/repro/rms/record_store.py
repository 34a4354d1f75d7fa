"""Record-oriented persistent store, modelled on J2ME's RMS.

The PDAgent prototype keeps downloaded MA code, assigned unique ids, and
collected results in RMS record stores on the handheld.  This module
reproduces the `javax.microedition.rms.RecordStore` semantics that matter:

* records are opaque byte arrays addressed by a monotonically increasing
  integer id (ids are **never reused**, as in RMS);
* stores have a name and live inside a :class:`StorageManager` that enforces
  the *device-wide* storage quota (MIDP exposes a shared budget);
* a version counter and last-modified timestamp are bumped on every
  mutation;
* record listeners observe add/change/delete (RMS RecordListener).

Filtering/sorting enumeration (`RecordEnumeration`) is provided by
:meth:`RecordStore.enumerate`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .errors import (
    InvalidRecordIDError,
    RecordStoreError,
    RecordStoreFullError,
    RecordStoreNotFoundError,
    RecordStoreNotOpenError,
)
from .listener import RecordListener

__all__ = ["RecordStore", "StorageManager"]

#: Fixed bookkeeping cost charged per record (id + length + header), so the
#: quota reflects more than raw payload bytes — RMS behaves similarly.
RECORD_OVERHEAD_BYTES = 16
#: Fixed cost of an (empty) record store.
STORE_OVERHEAD_BYTES = 64


class StorageManager:
    """Device-wide storage budget shared by all record stores.

    Parameters
    ----------
    quota_bytes:
        Total persistent storage available to the platform (the paper's
        prototype environment offered ~hundreds of KB).
    """

    def __init__(self, quota_bytes: int = 512 * 1024) -> None:
        if quota_bytes <= 0:
            raise ValueError("quota must be positive")
        self.quota_bytes = quota_bytes
        self._stores: dict[str, RecordStore] = {}
        self._used = 0

    # -- store lifecycle -----------------------------------------------------
    def open(self, name: str, create_if_necessary: bool = True) -> "RecordStore":
        """Open (optionally creating) the record store ``name``."""
        if not name or len(name) > 32:
            # RMS limits store names to 32 characters.
            raise RecordStoreError(f"invalid store name {name!r}")
        store = self._stores.get(name)
        if store is None:
            if not create_if_necessary:
                raise RecordStoreNotFoundError(name)
            self._charge(STORE_OVERHEAD_BYTES)
            store = RecordStore(name, self)
            self._stores[name] = store
        store._open_count += 1
        return store

    def delete(self, name: str) -> None:
        """Delete a record store entirely, reclaiming its bytes."""
        store = self._stores.pop(name, None)
        if store is None:
            raise RecordStoreNotFoundError(name)
        self._release(store.size_bytes + STORE_OVERHEAD_BYTES)
        store._deleted = True

    def list_stores(self) -> list[str]:
        return sorted(self._stores)

    # -- accounting ------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def available_bytes(self) -> int:
        return self.quota_bytes - self._used

    def _charge(self, n: int) -> None:
        if self._used + n > self.quota_bytes:
            raise RecordStoreFullError(
                f"need {n} bytes, only {self.available_bytes} available"
            )
        self._used += n

    def _release(self, n: int) -> None:
        self._used -= n
        assert self._used >= 0, "storage accounting underflow"


class RecordStore:
    """A single named record store.  Created via :meth:`StorageManager.open`."""

    def __init__(self, name: str, manager: StorageManager) -> None:
        self.name = name
        self._manager = manager
        self._records: dict[int, bytes] = {}
        self._next_id = 1
        self._version = 0
        self._open_count = 0
        self._deleted = False
        self._listeners: list[RecordListener] = []

    # -- guards ------------------------------------------------------------
    def _check_open(self) -> None:
        if self._deleted:
            raise RecordStoreNotOpenError(f"{self.name!r} was deleted")
        if self._open_count <= 0:
            raise RecordStoreNotOpenError(f"{self.name!r} is closed")

    def close(self) -> None:
        """Close one open handle (stores are reference-counted like RMS)."""
        self._check_open()
        self._open_count -= 1

    @property
    def is_open(self) -> bool:
        return self._open_count > 0 and not self._deleted

    # -- metadata -----------------------------------------------------------
    @property
    def version(self) -> int:
        """Bumped on every mutation."""
        return self._version

    @property
    def num_records(self) -> int:
        return len(self._records)

    @property
    def size_bytes(self) -> int:
        """Payload + per-record overhead currently charged to the quota."""
        return sum(len(v) + RECORD_OVERHEAD_BYTES for v in self._records.values())

    # -- listeners -----------------------------------------------------------
    def add_listener(self, listener: RecordListener) -> None:
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: RecordListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify(self, kind: str, record_id: int) -> None:
        for listener in self._listeners:
            getattr(listener, kind)(self, record_id)

    # -- record operations -----------------------------------------------------
    def add_record(self, data: bytes) -> int:
        """Append a record; returns its (never-reused) id."""
        self._check_open()
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"records are bytes, got {type(data).__name__}")
        data = bytes(data)
        self._manager._charge(len(data) + RECORD_OVERHEAD_BYTES)
        record_id = self._next_id
        self._next_id += 1
        self._records[record_id] = data
        self._version += 1
        self._notify("record_added", record_id)
        return record_id

    def get_record(self, record_id: int) -> bytes:
        self._check_open()
        try:
            return self._records[record_id]
        except KeyError:
            raise InvalidRecordIDError(
                f"{self.name!r} has no record {record_id}"
            ) from None

    def set_record(self, record_id: int, data: bytes) -> None:
        """Replace a record's payload in place."""
        self._check_open()
        if record_id not in self._records:
            raise InvalidRecordIDError(f"{self.name!r} has no record {record_id}")
        data = bytes(data)
        old = self._records[record_id]
        delta = len(data) - len(old)
        if delta > 0:
            self._manager._charge(delta)
        else:
            self._manager._release(-delta)
        self._records[record_id] = data
        self._version += 1
        self._notify("record_changed", record_id)

    def delete_record(self, record_id: int) -> None:
        self._check_open()
        try:
            data = self._records.pop(record_id)
        except KeyError:
            raise InvalidRecordIDError(
                f"{self.name!r} has no record {record_id}"
            ) from None
        self._manager._release(len(data) + RECORD_OVERHEAD_BYTES)
        self._version += 1
        self._notify("record_deleted", record_id)

    def enumerate(
        self,
        matches: Optional[Callable[[bytes], bool]] = None,
        key: Optional[Callable[[bytes], object]] = None,
        reverse: bool = False,
    ) -> Iterator[tuple[int, bytes]]:
        """RMS RecordEnumeration: optional filter and comparator.

        Yields ``(record_id, data)``.  Without ``key``, records come in id
        order.
        """
        self._check_open()
        items = [
            (rid, data)
            for rid, data in sorted(self._records.items())
            if matches is None or matches(data)
        ]
        if key is not None:
            items.sort(key=lambda pair: key(pair[1]), reverse=reverse)
        elif reverse:
            items.reverse()
        yield from items
