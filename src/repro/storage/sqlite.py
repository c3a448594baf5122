"""The SQLite fact store: one table per predicate, interned terms.

This is the durable data plane behind ``backend="sqlite"``.  Schema:

``repro_terms (id, kind, payload, display)``
    the **interned term dictionary**.  Every term — constant, variable
    (instances may legally contain variables, see Observation 31) or
    Skolem function term — appears exactly once and is referenced by
    integer id everywhere else.  ``payload`` is the structural identity
    (for function terms: the functor plus the *child ids*, so deep Skolem
    trees cost O(1) per node, not O(depth) per mention); ``display`` is
    the term's repr, kept so fact reprs — and hence
    :func:`~repro.storage.base.content_digest` checksums — can be
    rendered straight from SQL without rebuilding Python terms.

``f_<predicate>_<arity> (a0, ..., ak, round)``
    one **fact table per predicate**, columns holding term ids, primary
    key over all positions (``WITHOUT ROWID``: the fact *is* the key),
    plus one index per non-leading position — the SQL analogue of the
    ``(predicate, position, term)`` index that makes the in-memory
    homomorphism search usable.  ``round`` tags the chase round that
    first produced the fact (0 = base), powering the store chase's
    semi-naive rounds and its resume.

``repro_predicates`` / ``repro_meta``
    the catalog mapping predicates to table names, and a key/value side
    table for the store chase's persisted state.

Writes are **batched**: ``add``/``add_many`` append to a buffer that is
flushed with one ``executemany`` per predicate inside a single
transaction once ``batch_size`` rows accumulate (or on any read).
Deduplication is ``INSERT OR IGNORE`` against the primary key — re-adding
a fact never changes its round tag, which is exactly the "first round it
appeared in" semantics of Definition 6.

Concurrency: connections open with ``PRAGMA busy_timeout`` so writers
wait for each other at the SQLite level, and every commit (plus the
batched write paths) runs under a bounded jittered-backoff retry on
``database is locked`` — transient contention between processes sharing
a database file degrades to latency, not an exception (counted under
``store.lock_retries``; see ``docs/robustness.md``).

Journal mode is an open option: ``wal=True`` (the default) sets
``PRAGMA journal_mode=WAL`` + ``synchronous=NORMAL`` — the service
deployment shape, where many reader connections answer compiled queries
while one writer chases (readers never block the writer and vice versa);
``wal=False`` keeps SQLite's rollback journal (``DELETE``) with
``synchronous=FULL``.  The mode actually granted by SQLite is exposed as
:attr:`SQLiteStore.journal_mode` and counted once per open under
``store.wal_opens`` / ``store.rollback_opens``; stored content is
journal-mode-independent — both modes produce identical
:meth:`~SQLiteStore.digest` values (tested).  Connections are opened
with ``check_same_thread=False`` so a store may be handed between
threadpool workers; callers serialize access themselves (the service
holds a per-theory write lock, ``OMQASession`` a per-session lock).

Telemetry (``store.*`` counters, see ``docs/architecture.md`` §6):
``store.writes`` facts submitted, ``store.batches`` buffer flushes,
``store.sql_queries`` SELECT statements executed, ``store.rows_scanned``
result rows fetched, ``store.terms_interned`` dictionary inserts,
``store.lock_retries`` lock-contention retries.
"""

from __future__ import annotations

import random
import re
import sqlite3
import time
from pathlib import Path
from typing import Iterable, Iterator

from .. import faults
from ..logic.atoms import Atom
from ..logic.instance import Instance
from ..logic.signature import Predicate
from ..telemetry import Telemetry
from .base import content_digest
from .interning import TermInterningMixin

_SCHEMA = """
CREATE TABLE IF NOT EXISTS repro_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS repro_terms (
    id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    payload TEXT NOT NULL,
    display TEXT NOT NULL,
    UNIQUE (kind, payload)
);
CREATE TABLE IF NOT EXISTS repro_predicates (
    name TEXT NOT NULL,
    arity INTEGER NOT NULL,
    table_name TEXT NOT NULL UNIQUE,
    PRIMARY KEY (name, arity)
);
CREATE TABLE IF NOT EXISTS repro_supports (
    child TEXT NOT NULL,
    parent TEXT NOT NULL,
    PRIMARY KEY (child, parent)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS ix_repro_supports_parent ON repro_supports (parent);
"""

# A soft cap on the Python-side term caches: the store must stay usable
# for chases far larger than RAM would allow the in-memory engine, so
# the id/display maps cannot be allowed to mirror the whole dictionary.
_CACHE_CAP = 500_000

# How long SQLite itself waits on a locked database before returning
# SQLITE_BUSY (milliseconds), and how many times the Python layer then
# retries the statement with jittered exponential backoff on top.
_BUSY_TIMEOUT_MS = 5_000
_LOCK_RETRIES = 5


def _trim(cache: dict) -> None:
    if len(cache) > _CACHE_CAP:
        cache.clear()


def fact_key(predicate: Predicate, ids: "tuple[int, ...]") -> str:
    """The canonical row key used by the ``repro_supports`` edge table.

    ``name/arity:id0,id1,...`` — term *ids*, not displays, so the key is
    stable across connections (ids live in ``repro_terms``) and costs no
    term decoding to build on the chase's hot path.
    """
    return f"{predicate.name}/{predicate.arity}:{','.join(map(str, ids))}"


# The id list is digits-and-commas only, so the last "/<digits>:" split
# is unambiguous even for exotic predicate names.
_FACT_KEY = re.compile(r"^(.*)/(\d+):([\d,]*)$", re.DOTALL)


def parse_fact_key(key: str) -> "tuple[Predicate, tuple[int, ...]]":
    matched = _FACT_KEY.match(key)
    if matched is None:
        raise ValueError(f"malformed fact key {key!r}")
    name, arity, ids = matched.groups()
    return (
        Predicate(name, int(arity)),
        tuple(int(part) for part in ids.split(",")) if ids else (),
    )


class SQLiteStore(TermInterningMixin):
    """A :class:`~repro.storage.base.FactStore` backed by SQLite.

    ``path`` may be a filesystem path or SQLite's ``":memory:"``.
    ``batch_size`` bounds the write buffer (rows, across predicates).
    """

    def __init__(
        self,
        path: "str | Path" = ":memory:",
        batch_size: int = 4096,
        telemetry: Telemetry | None = None,
        wal: bool = True,
    ) -> None:
        self.path = str(path)
        self.batch_size = batch_size
        self.stats = telemetry if telemetry is not None else Telemetry()
        self._conn: sqlite3.Connection | None = sqlite3.connect(
            self.path, check_same_thread=False
        )
        self._conn.executescript(_SCHEMA)
        if wal:
            # Durability tuned for a data plane, not a ledger: WAL keeps
            # readers unblocked during chase flushes, NORMAL sync is safe
            # against process crashes (a power loss may drop the last
            # committed rounds; the store chase resumes from what remains).
            granted = self._conn.execute("PRAGMA journal_mode=WAL").fetchone()
            self._conn.execute("PRAGMA synchronous=NORMAL")
        else:
            granted = self._conn.execute("PRAGMA journal_mode=DELETE").fetchone()
            self._conn.execute("PRAGMA synchronous=FULL")
        # SQLite may refuse WAL (e.g. ":memory:" databases stay in
        # "memory" mode); record what was actually granted, not asked.
        self.journal_mode: str = str(granted[0]).lower()
        self.stats.counters[
            "store.wal_opens" if self.journal_mode == "wal" else "store.rollback_opens"
        ] += 1
        self._conn.execute("PRAGMA temp_store=MEMORY")
        self._conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        self._tables: dict[Predicate, str] = {}
        self._init_term_caches()
        self._pending: dict[Predicate, list[tuple]] = {}
        self._pending_rows = 0
        for name, arity, table in self._conn.execute(
            "SELECT name, arity, table_name FROM repro_predicates"
        ):
            self._tables[Predicate(name, arity)] = table

    @property
    def backend(self) -> str:
        return "sqlite"

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    @property
    def connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise RuntimeError("store is closed")
        return self._conn

    def _select(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        """Run a SELECT with ``store.sql_queries`` accounting."""
        self.stats.counters["store.sql_queries"] += 1
        return self.connection.execute(sql, params)

    def _guarded(self, action):
        """Run a write action, retrying transient ``database is locked``.

        ``PRAGMA busy_timeout`` absorbs most contention inside SQLite;
        whatever still surfaces as ``OperationalError: database is
        locked`` is retried up to ``_LOCK_RETRIES`` times with jittered
        exponential backoff (counted under ``store.lock_retries``) —
        concurrent writers on one database file cost latency, never an
        exception.  Any other error, or exhaustion, propagates.  The
        ``sqlite.locked`` fault injects one synthetic contention here.
        """
        attempt = 0
        while True:
            try:
                if faults.active() and faults.fire("sqlite.locked"):
                    raise sqlite3.OperationalError("database is locked")
                return action()
            except sqlite3.OperationalError as error:
                if "locked" not in str(error).lower() or attempt >= _LOCK_RETRIES:
                    raise
                attempt += 1
                self.stats.counters["store.lock_retries"] += 1
                delay = min(0.02 * (2**attempt), 0.25)
                time.sleep(delay * (0.5 + random.random() / 2))

    def commit(self) -> None:
        """Commit the open transaction (lock-retried, see :meth:`_guarded`)."""
        self._guarded(self.connection.commit)

    def rollback(self) -> None:
        """Discard the open transaction and resynchronize Python state.

        SQLite rolls back rows *and* in-transaction DDL, so everything
        the Python layer learned during the transaction is suspect: the
        write buffer is dropped, the interning caches are reset (they
        may hold ids of dictionary rows that no longer exist) and the
        predicate-table catalog is rebuilt from ``repro_predicates``.
        The store chase calls this when a deadline or cancellation
        abandons a round mid-insert — the database then holds exactly
        the last committed round.
        """
        self._pending.clear()
        self._pending_rows = 0
        self.connection.rollback()
        self._init_term_caches()
        self.reload_catalog()

    def reload_catalog(self) -> None:
        """Re-read the predicate-table catalog from ``repro_predicates``.

        Reader connections sharing a WAL database with a writer call this
        when the writer may have created new predicate tables since the
        reader opened (the service does so on every data-version bump):
        the Python-side ``_tables`` map is a cache of committed catalog
        rows, and query compilation treats a predicate missing from it as
        provably empty.  Interning caches stay valid — the dictionary is
        append-only.
        """
        self._tables = {}
        for name, arity, table in self.connection.execute(
            "SELECT name, arity, table_name FROM repro_predicates"
        ):
            self._tables[Predicate(name, arity)] = table

    # ------------------------------------------------------------------
    # Predicate tables
    # ------------------------------------------------------------------
    def table_for(self, predicate: Predicate, create: bool = False) -> str | None:
        """The fact table for ``predicate`` (``None`` when absent).

        With ``create=True`` the table (and its per-position indexes) is
        created and cataloged on first sight.
        """
        table = self._tables.get(predicate)
        if table is not None or not create:
            return table
        safe = re.sub(r"[^A-Za-z0-9_]", "_", predicate.name)
        table = f"f_{safe}_{predicate.arity}"
        if table in self._tables.values():  # sanitation collision (E' vs E_)
            table = f"{table}_{len(self._tables)}"
        columns = ", ".join(f"a{i} INTEGER NOT NULL" for i in range(predicate.arity))
        key = ", ".join(f"a{i}" for i in range(predicate.arity))
        conn = self.connection
        if predicate.arity:
            conn.execute(
                f"CREATE TABLE IF NOT EXISTS {table} ({columns}, "
                f"round INTEGER NOT NULL DEFAULT 0, PRIMARY KEY ({key})) "
                "WITHOUT ROWID"
            )
        else:  # nullary predicates: a one-row presence table
            conn.execute(
                f"CREATE TABLE IF NOT EXISTS {table} "
                "(present INTEGER PRIMARY KEY CHECK (present = 1), "
                "round INTEGER NOT NULL DEFAULT 0)"
            )
        for position in range(1, predicate.arity):
            conn.execute(
                f"CREATE INDEX IF NOT EXISTS ix_{table}_a{position} "
                f"ON {table} (a{position})"
            )
        conn.execute(
            "CREATE INDEX IF NOT EXISTS ix_%s_round ON %s (round)" % (table, table)
        )
        conn.execute(
            "INSERT OR IGNORE INTO repro_predicates (name, arity, table_name) "
            "VALUES (?, ?, ?)",
            (predicate.name, predicate.arity, table),
        )
        self._tables[predicate] = table
        return table

    # ------------------------------------------------------------------
    # Term dictionary (shared surface lives in TermInterningMixin; the
    # three primitives below bind it to the repro_terms table)
    # ------------------------------------------------------------------
    def _trim_term_cache(self, cache: dict) -> None:
        _trim(cache)

    def _dict_lookup(self, kind: str, payload: str) -> "int | None":
        row = self._select(
            "SELECT id FROM repro_terms WHERE kind = ? AND payload = ?",
            (kind, payload),
        ).fetchone()
        return None if row is None else int(row[0])

    def _dict_insert(self, kind: str, payload: str, display: str) -> int:
        cursor = self.connection.execute(
            "INSERT INTO repro_terms (kind, payload, display) VALUES (?, ?, ?)",
            (kind, payload, display),
        )
        self.stats.counters["store.terms_interned"] += 1
        return int(cursor.lastrowid)

    def _dict_fetch(self, term_id: int) -> "tuple[str, str, str] | None":
        row = self._select(
            "SELECT kind, payload, display FROM repro_terms WHERE id = ?",
            (term_id,),
        ).fetchone()
        return None if row is None else (row[0], row[1], row[2])

    # ------------------------------------------------------------------
    # Writes (buffered, batched)
    # ------------------------------------------------------------------
    def _encode(self, item: Atom, round_: int) -> tuple:
        if item.predicate.arity == 0:
            return (1, round_)
        return tuple(self.intern_term(term) for term in item.args) + (round_,)

    def add(self, item: Atom, round_: int = 0) -> bool:
        """Add one fact; returns True when it was not present before.

        The membership probe forces a buffer flush, so prefer
        :meth:`add_many` on hot paths.
        """
        present = item in self
        self.add_many((item,), round_=round_)
        return not present

    def add_many(self, items: Iterable[Atom], round_: int = 0) -> int:
        """Buffer facts for insertion; returns how many were *new*.

        The count is exact (``INSERT OR IGNORE`` against the primary
        key), measured as the connection's change-count delta across the
        flush.
        """
        self._flush_pending()  # drain unrelated buffered rows first
        for item in items:
            self.stats.counters["store.writes"] += 1
            self.table_for(item.predicate, create=True)
            self._pending.setdefault(item.predicate, []).append(
                self._encode(item, round_)
            )
            self._pending_rows += 1
        inserted = self._flush_pending()
        self.commit()
        return inserted

    def _flush_pending(self) -> int:
        """Write the buffer out; returns how many rows were genuinely new.

        The count is the connection's change delta across the
        ``executemany`` calls alone — catalog inserts and term interning
        happen at buffering time, so they never pollute it.
        """
        if not self._pending_rows:
            return 0
        conn = self.connection
        self.stats.counters["store.batches"] += 1
        before = conn.total_changes
        for predicate, rows in self._pending.items():
            table = self._tables[predicate]
            if predicate.arity:
                slots = ", ".join("?" for _ in range(predicate.arity + 1))
                self._guarded(
                    lambda: conn.executemany(
                        f"INSERT OR IGNORE INTO {table} VALUES ({slots})", rows
                    )
                )
            else:
                self._guarded(
                    lambda: conn.executemany(
                        f"INSERT OR IGNORE INTO {table} (present, round) "
                        "VALUES (?, ?)",
                        rows,
                    )
                )
        self._pending.clear()
        self._pending_rows = 0
        return conn.total_changes - before

    def insert_rows(
        self, predicate: Predicate, rows: "list[tuple[int, ...]]", round_: int
    ) -> int:
        """Bulk-insert id-native fact rows; returns how many were new.

        The store-backed chase's write path: rows are tuples of term ids
        (no ``Atom`` objects), deduplicated by the primary key with one
        ``executemany`` — re-proposed facts keep their original round
        tag, matching Definition 6's first-appearance semantics.
        """
        if not rows:
            return 0
        self._flush_pending()
        table = self.table_for(predicate, create=True)
        conn = self.connection
        counters = self.stats.counters
        counters["store.writes"] += len(rows)
        counters["store.batches"] += 1
        before = conn.total_changes
        if predicate.arity:
            slots = ", ".join("?" for _ in range(predicate.arity + 1))
            self._guarded(
                lambda: conn.executemany(
                    f"INSERT OR IGNORE INTO {table} VALUES ({slots})",
                    [row + (round_,) for row in rows],
                )
            )
        else:
            self._guarded(
                lambda: conn.executemany(
                    f"INSERT OR IGNORE INTO {table} (present, round) VALUES (?, ?)",
                    [(1, round_) for _ in rows],
                )
            )
        return conn.total_changes - before

    def buffer(self, item: Atom, round_: int = 0) -> None:
        """Append to the write buffer, flushing at ``batch_size`` rows.

        The bulk-load path (chase rounds, instance loads): no membership
        answer, just throughput.
        """
        self.stats.counters["store.writes"] += 1
        self.table_for(item.predicate, create=True)
        self._pending.setdefault(item.predicate, []).append(
            self._encode(item, round_)
        )
        self._pending_rows += 1
        if self._pending_rows >= self.batch_size:
            self._flush_pending()

    def flush(self) -> None:
        self._flush_pending()
        if self._conn is not None:
            self.commit()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        self.flush()
        total = 0
        for table in self._tables.values():
            row = self._select(f"SELECT COUNT(*) FROM {table}").fetchone()
            total += int(row[0])
        return total

    def __contains__(self, item: Atom) -> bool:
        self.flush()
        table = self._tables.get(item.predicate)
        if table is None:
            return False
        if item.predicate.arity == 0:
            return self._select(f"SELECT 1 FROM {table} LIMIT 1").fetchone() is not None
        ids = []
        for term in item.args:
            term_id = self.term_id(term)
            if term_id is None:
                return False
            ids.append(term_id)
        where = " AND ".join(f"a{i} = ?" for i in range(item.predicate.arity))
        row = self._select(
            f"SELECT 1 FROM {table} WHERE {where} LIMIT 1", tuple(ids)
        ).fetchone()
        return row is not None

    def __iter__(self) -> Iterator[Atom]:
        for predicate in list(self._tables):
            yield from self.facts(predicate)

    def predicates(self) -> set[Predicate]:
        self.flush()
        live = set()
        for predicate, table in self._tables.items():
            if self._select(f"SELECT 1 FROM {table} LIMIT 1").fetchone():
                live.add(predicate)
        return live

    def facts(self, predicate: Predicate) -> Iterator[Atom]:
        self.flush()
        table = self._tables.get(predicate)
        if table is None:
            return
        if predicate.arity == 0:
            if self._select(f"SELECT 1 FROM {table} LIMIT 1").fetchone():
                self.stats.counters["store.rows_scanned"] += 1
                yield Atom(predicate, ())
            return
        columns = ", ".join(f"a{i}" for i in range(predicate.arity))
        for row in self._select(f"SELECT {columns} FROM {table}"):
            self.stats.counters["store.rows_scanned"] += 1
            yield Atom(predicate, tuple(self.term_by_id(term_id) for term_id in row))

    def max_round(self) -> int:
        self.flush()
        highest = 0
        for table in self._tables.values():
            row = self._select(f"SELECT MAX(round) FROM {table}").fetchone()
            if row[0] is not None:
                highest = max(highest, int(row[0]))
        return highest

    def atoms_in_round(self, round_: int) -> frozenset[Atom]:
        self.flush()
        collected = []
        for predicate, table in self._tables.items():
            if predicate.arity == 0:
                hit = self._select(
                    f"SELECT 1 FROM {table} WHERE round = ?", (round_,)
                ).fetchone()
                if hit:
                    collected.append(Atom(predicate, ()))
                continue
            columns = ", ".join(f"a{i}" for i in range(predicate.arity))
            for row in self._select(
                f"SELECT {columns} FROM {table} WHERE round = ?", (round_,)
            ):
                self.stats.counters["store.rows_scanned"] += 1
                collected.append(
                    Atom(predicate, tuple(self.term_by_id(t) for t in row))
                )
        return frozenset(collected)

    def count_in_round(self, round_: int) -> int:
        """How many facts carry round tag ``round_`` (no decode)."""
        self.flush()
        total = 0
        for table in self._tables.values():
            row = self._select(
                f"SELECT COUNT(*) FROM {table} WHERE round = ?", (round_,)
            ).fetchone()
            total += int(row[0])
        return total

    def delete_rounds_above(self, round_: int) -> int:
        """Delete facts tagged with a round strictly above ``round_``.

        Crash-recovery surface for the store chase: a process killed
        mid-round may leave a partially inserted round behind (WAL makes
        the *commit* atomic, but an in-flight transaction interrupted by
        SIGKILL is simply rolled back — this method additionally covers
        debris from older, non-transactional layouts and makes resume
        idempotent).  Returns how many rows were removed.
        """
        self._pending.clear()
        self._pending_rows = 0
        conn = self.connection
        before = conn.total_changes
        for table in self._tables.values():
            self._guarded(
                lambda: conn.execute(
                    f"DELETE FROM {table} WHERE round > ?", (round_,)
                )
            )
        removed = conn.total_changes - before
        self.commit()
        return removed

    # ------------------------------------------------------------------
    # Derivation supports (incremental maintenance)
    # ------------------------------------------------------------------
    # ``repro_supports`` holds (child, parent) fact-key edges — one row
    # per recorded rule application's body atom — persisted by the
    # store-backed chase and walked by ``update_store_chase`` to
    # over-delete the DRed cone of a retraction.  The table is part of
    # the fixed schema, NOT the predicate catalog: it never contributes
    # to ``__len__``, ``digest()`` or ``predicates()``.

    def add_supports(self, pairs: "list[tuple[str, str]]") -> None:
        """Record derivation edges (no commit — rides the round's txn)."""
        if not pairs:
            return
        conn = self.connection
        self._guarded(
            lambda: conn.executemany(
                "INSERT OR IGNORE INTO repro_supports (child, parent) "
                "VALUES (?, ?)",
                pairs,
            )
        )

    def support_children(self, parent_keys: "Iterable[str]") -> set[str]:
        """Distinct children whose recorded derivation used any parent."""
        children: set[str] = set()
        batch: list[str] = []
        parents = list(parent_keys)
        for start in range(0, len(parents), 500):
            batch = parents[start : start + 500]
            marks = ", ".join("?" for _ in batch)
            for row in self._select(
                "SELECT DISTINCT child FROM repro_supports "
                f"WHERE parent IN ({marks})",
                tuple(batch),
            ):
                children.add(row[0])
        return children

    def has_support(self, child_key: str) -> bool:
        """Whether any derivation edge ends at ``child_key``.

        A fact *without* support edges is base-like for deletion: round-0
        facts, update-added facts and facts promoted to base all carry
        none, so the DRed cascade never deletes them.
        """
        row = self._select(
            "SELECT 1 FROM repro_supports WHERE child = ? LIMIT 1", (child_key,)
        ).fetchone()
        return row is not None

    def delete_supports_of(self, child_keys: "Iterable[str]") -> int:
        """Drop all edges into the given children (promotion/deletion)."""
        conn = self.connection
        before = conn.total_changes
        rows = [(key,) for key in child_keys]
        if rows:
            self._guarded(
                lambda: conn.executemany(
                    "DELETE FROM repro_supports WHERE child = ?", rows
                )
            )
        return conn.total_changes - before

    def existing_fact_keys(self, keys: "Iterable[str]") -> set[str]:
        """Which of the given fact keys name rows already in the store.

        The support recorder's filter: a produced row whose fact already
        exists must not gain a support edge, so base facts stay
        support-free (mirroring the in-memory engine, which records a
        derivation only when the produced atom is genuinely new).
        """
        self._flush_pending()
        existing: set[str] = set()
        by_predicate: "dict[Predicate, list[tuple[str, tuple[int, ...]]]]" = {}
        for key in keys:
            predicate, ids = parse_fact_key(key)
            by_predicate.setdefault(predicate, []).append((key, ids))
        for predicate, entries in by_predicate.items():
            table = self._tables.get(predicate)
            if table is None:
                continue
            if predicate.arity == 0:
                row = self._select(f"SELECT 1 FROM {table} LIMIT 1").fetchone()
                if row is not None:
                    existing.update(key for key, _ in entries)
                continue
            where = " AND ".join(f"a{i} = ?" for i in range(predicate.arity))
            for key, ids in entries:
                row = self._select(
                    f"SELECT 1 FROM {table} WHERE {where} LIMIT 1", ids
                ).fetchone()
                if row is not None:
                    existing.add(key)
        return existing

    def support_count(self) -> int:
        row = self._select("SELECT COUNT(*) FROM repro_supports").fetchone()
        return int(row[0])

    def delete_fact_rows(self, keys: "Iterable[str]") -> int:
        """Delete fact rows by fact key; returns how many rows existed.

        The write half of the DRed over-deletion.  No commit — the
        caller lands the deletions, the support cleanup and the updated
        chase state in one transaction.
        """
        self._flush_pending()
        conn = self.connection
        before = conn.total_changes
        for key in keys:
            predicate, ids = parse_fact_key(key)
            table = self._tables.get(predicate)
            if table is None:
                continue
            if predicate.arity == 0:
                self._guarded(lambda: conn.execute(f"DELETE FROM {table}"))
            else:
                where = " AND ".join(f"a{i} = ?" for i in range(predicate.arity))
                self._guarded(
                    lambda: conn.execute(
                        f"DELETE FROM {table} WHERE {where}", ids
                    )
                )
        return conn.total_changes - before

    def digest(self) -> str:
        """Content digest, rendered from the term dictionary's displays.

        Matches :func:`~repro.storage.base.content_digest` of the same
        facts exactly — no ``Atom`` objects are built.
        """
        self.flush()
        rendered: list[str] = []
        for predicate, table in self._tables.items():
            if predicate.arity == 0:
                if self._select(f"SELECT 1 FROM {table} LIMIT 1").fetchone():
                    rendered.append(f"{predicate.name}()")
                continue
            columns = ", ".join(f"a{i}" for i in range(predicate.arity))
            for row in self._select(f"SELECT {columns} FROM {table}"):
                self.stats.counters["store.rows_scanned"] += 1
                inner = ",".join(self.display_of(term_id) for term_id in row)
                rendered.append(f"{predicate.name}({inner})")
        return content_digest(rendered)

    def to_instance(self) -> Instance:
        return Instance(self)

    def clear_facts(self) -> None:
        """Drop every stored fact, keeping tables and the term dictionary.

        ``OMQASession`` reloads a different instance through this: term
        ids and table names stay stable, so previously compiled SQL
        remains executable against the refilled store.
        """
        self._pending.clear()
        self._pending_rows = 0
        for table in self._tables.values():
            self.connection.execute(f"DELETE FROM {table}")
        self.connection.execute("DELETE FROM repro_supports")
        self.commit()

    # ------------------------------------------------------------------
    # Metadata (persisted chase state)
    # ------------------------------------------------------------------
    def get_meta(self, key: str, default: "str | None" = None) -> "str | None":
        row = self._select(
            "SELECT value FROM repro_meta WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else row[0]

    def set_meta(self, key: str, value: str, commit: bool = True) -> None:
        """Set one key/value pair; ``commit=False`` leaves it in the
        open transaction so callers can land metadata and facts
        atomically (the store chase commits each round's rows and its
        ``storechase.*`` markers in one transaction this way)."""
        self.connection.execute(
            "INSERT INTO repro_meta (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (key, value),
        )
        if commit:
            self.commit()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._flush_pending()
            self._guarded(self._conn.commit)
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "SQLiteStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._conn is None else f"{len(self._tables)} tables"
        return f"SQLiteStore({self.path!r}, {state})"
