"""Subscriptions and the per-broker subscription table (Section 4.2).

The paper's table row is ``(subscriber, filter, dl, pr, nb, NN_p, μ_p,
σ_p²)``, plus — here — the set of source (publisher-hosting) brokers for
which this broker lies on the routing path: the provenance check that
makes single-path routing duplicate-free on a mesh (see
:mod:`repro.pubsub.system`).

A :class:`SubscriptionTable` stores its rows as columns only.  Every row
has a dense integer row id (ids freed by an uninstall are reused, last
freed first) and lives in two growable matrices: five float scoring
columns (``nn``, ``mean``, ``std``, ``deadline``, ``price``) and six int
columns (next-hop, source-set and rate ids, subscriber id, epoch
``min_msg``, path id).  Next hops, subscribers, source sets and rates are
interned per table in first-appearance order; a rate id names the
original :class:`~repro.stats.normal.Normal` object, so a row's ``rate``
is never rebuilt from its ``std`` column.

Rows arrive in bulk as a :class:`RowBatch` — index columns into shared
:class:`SubscriptionColumns` and a handful of distinct routes — and every
write, including the one-row :meth:`SubscriptionTable.install`, is one
numpy scatter plus one columnar matcher ``add_many``.  Matching produces
row-id arrays: provenance filtering, duplicate settlement and per-hop
grouping are numpy operations, and a :class:`RowGroup`'s
:class:`RowArrays` is a fancy-index gather.  :class:`TableRow` objects are
a lazy view, built from the columns only where a caller asks for rows
(``RowGroup.rows``, ``row()``/``rows()``/``match()``, per-row scoring and
the shard journal).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.pubsub.filters import Filter
from repro.pubsub.matching import (
    PredicateColumns,
    distinct_in_order,
    make_matcher,
    reserve,
)
from repro.pubsub.message import Message
from repro.stats.normal import Normal


@dataclass(frozen=True, slots=True)
class Subscription:
    """A subscriber's standing interest.

    ``deadline_ms`` / ``price`` are the SSD scenario's ``dl`` / ``pr``;
    both are ``None`` in the pure PSD scenario (the paper then treats the
    price as 1, which :mod:`repro.core.metrics` does).
    """

    subscriber: str
    filter: Filter
    deadline_ms: float | None = None
    price: float | None = None

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0.0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.price is not None and self.price < 0.0:
            raise ValueError(f"price must be non-negative, got {self.price}")


@dataclass(frozen=True, slots=True)
class TableRow:
    """One subscription-table entry at one broker, as a value.

    Tables do not store these: :class:`SubscriptionTable` keeps columns
    and builds a ``TableRow`` on demand from one row id — ``subscription``
    from the interned subscriber, ``next_hop``/``sources``/``rate`` from
    the interned hop, source-set and rate ids (``rate`` is the installed
    :class:`Normal` object itself), the rest from the columns.  A row
    installed and read back compares equal.

    ``next_hop is None`` means the subscriber is local to this broker.
    ``nn``, ``rate`` describe the remaining path (``NN_p``, ``TR_p``).
    ``sources`` is the set of publisher-hosting brokers whose routed path
    to this subscriber passes through this broker; a message is forwarded
    on this row only if its source broker is in the set.

    ``path_id`` distinguishes rows when the multi-path routing extension
    installs several routes for the same subscriber (single-path routing
    always uses 0).

    ``min_msg_id`` is the subscription's epoch: the row only matches
    messages whose id is at least this value.  Message ids are assigned in
    publish-execution order, so a watermark taken at subscribe time makes
    a mid-run subscriber (churn wave, flash crowd) see exactly the
    messages published after it joined — the same set its membership in
    the interested-population count covers — and never an in-flight older
    message (which would over-deliver against Eq. 1's ``ts_i``).  0 (all
    rows installed before t=0) matches everything.
    """

    subscription: Subscription
    next_hop: str | None
    nn: int
    rate: Normal
    sources: frozenset[str]
    path_id: int = 0
    min_msg_id: int = 0

    @property
    def is_local(self) -> bool:
        return self.next_hop is None

    @property
    def subscriber(self) -> str:
        return self.subscription.subscriber

    @property
    def deadline_ms(self) -> float | None:
        return self.subscription.deadline_ms

    @property
    def price(self) -> float | None:
        return self.subscription.price


class SubscriptionColumns:
    """Subscriptions as columns, shared by every table one bulk install
    touches: the objects, the subscriber names, the ``deadline`` (``inf``
    = unspecified) and ``price`` (1.0 = unspecified) scoring rows and
    the filters' :class:`~repro.pubsub.matching.PredicateColumns`.
    Subscriber names must be distinct.
    """

    __slots__ = ("subscriptions", "names", "scoring", "predicates")

    def __init__(self, subscriptions: Sequence[Subscription]) -> None:
        n = len(subscriptions)
        self.subscriptions = np.fromiter(subscriptions, dtype=object, count=n)
        names = list(map(attrgetter("subscriber"), subscriptions))
        if len(set(names)) != n:
            raise ValueError("subscriber names in one batch must be distinct")
        self.names = np.fromiter(names, dtype=object, count=n)
        #: Rows ``deadline`` and ``price``: the table's last two float rows.
        self.scoring = np.empty((2, n))
        self.scoring[0] = np.fromiter(
            (np.inf if s.deadline_ms is None else s.deadline_ms for s in subscriptions),
            dtype=np.float64, count=n,
        )
        self.scoring[1] = np.fromiter(
            (1.0 if s.price is None else s.price for s in subscriptions),
            dtype=np.float64, count=n,
        )
        self.predicates = PredicateColumns.from_filters(
            list(map(attrgetter("filter"), subscriptions))
        )

    def __len__(self) -> int:
        return int(self.names.shape[0])


#: One distinct on-path entry: ``(next_hop, nn, rate, sources)``.
Route = tuple[str | None, int, Normal, frozenset[str]]


@dataclass(frozen=True, eq=False)
class RowBatch:
    """Rows to install into one table, as index columns over shared
    lookups: row ``i`` belongs to ``subscriptions`` entry ``sub[i]`` and
    follows ``routes[route[i]]``.  A single-path bulk install has one
    route per edge broker routed through the table's broker, shared by
    every subscriber behind that edge.  ``min_msg`` holds the rows'
    epochs, ``path`` their path ids (``None``: all 0).
    """

    subscriptions: SubscriptionColumns
    sub: np.ndarray
    routes: Sequence[Route]
    route: np.ndarray
    min_msg: np.ndarray
    path: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.sub.shape[0])

    @classmethod
    def from_rows(cls, rows: Sequence[TableRow]) -> "RowBatch":
        """The batch installing ``rows`` in order (rows of one subscriber
        must carry one subscription)."""
        position: dict[str, int] = {}
        distinct: list[Subscription] = []
        for row in rows:
            j = position.setdefault(row.subscriber, len(distinct))
            if j == len(distinct):
                distinct.append(row.subscription)
            elif distinct[j] != row.subscription:
                raise ValueError(f"rows of {row.subscriber!r} carry different subscriptions")
        m = len(rows)
        return cls(
            SubscriptionColumns(distinct),
            np.fromiter((position[r.subscriber] for r in rows), dtype=np.int64, count=m),
            [(r.next_hop, r.nn, r.rate, r.sources) for r in rows],
            np.arange(m, dtype=np.int64),
            np.fromiter((r.min_msg_id for r in rows), dtype=np.int64, count=m),
            np.fromiter((r.path_id for r in rows), dtype=np.int64, count=m),
        )


class RowGroup:
    """A matched set of rows of one table, addressed by row-id array.

    ``arrays`` gathers the table's column arrays by fancy index — no
    per-row attribute access — and ``sub_ids``/``subscribers`` expose the
    table's interned subscriber column for the batched delivery spine.
    ``rows`` materialises the :class:`TableRow` views lazily (the
    per-row scoring paths and queue entries need them; batched local
    delivery never does).  Groups are snapshots taken at match time: the
    compiled column views are captured immediately, and the table copies
    its columns before it overwrites a slot they cover, so a later write
    cannot skew a group already handed out.  ``rows`` must be
    materialised before the table mutates again (the broker does so at
    enqueue time, inside the same processing step as the match).
    """

    __slots__ = ("row_ids", "_table", "_cols", "_arrays", "_rows", "_subscribers",
                 "_deadline", "_price")

    def __init__(self, table: "SubscriptionTable", row_ids: np.ndarray) -> None:
        self.row_ids = row_ids
        self._table = table
        self._cols = (table._c_cols5, table._c_sub, table._c_sub_names)
        self._arrays: RowArrays | None = None
        self._rows: list[TableRow] | None = None
        self._subscribers: list[str] | None = None
        self._deadline: np.ndarray | None = None
        self._price: np.ndarray | None = None

    @property
    def rows(self) -> list[TableRow]:
        if self._rows is None:
            self._rows = self._table._make_rows(self.row_ids)
        return self._rows

    @property
    def arrays(self) -> "RowArrays":
        if self._arrays is None:
            # Five 1-D gathers over the stacked matrix's contiguous row
            # views (the generic 2-D advanced-indexing path is slower).
            cols5 = self._cols[0]
            ids = self.row_ids
            self._arrays = RowArrays(
                nn=cols5[0][ids], mean=cols5[1][ids], std=cols5[2][ids],
                deadline=cols5[3][ids], price=cols5[4][ids],
            )
        return self._arrays

    @property
    def deadline(self) -> np.ndarray:
        """The group's deadline column alone (``inf`` = unspecified); the
        local-delivery path needs just this and ``price``, not the full
        five-column :attr:`arrays` gather."""
        if self._deadline is None:
            self._deadline = self._cols[0][3][self.row_ids]
        return self._deadline

    @property
    def price(self) -> np.ndarray:
        """The group's price column alone (1.0 = unspecified)."""
        if self._price is None:
            self._price = self._cols[0][4][self.row_ids]
        return self._price

    @property
    def sub_ids(self) -> np.ndarray:
        """Table-interned subscriber ids, one per row (dense, stable)."""
        return self._cols[1][self.row_ids]

    @property
    def sub_names(self) -> np.ndarray:
        """The owning table's interned-name column (object array, as of
        the match): ``sub_names[sub_ids[i]]`` is row ``i``'s subscriber.
        Callers key translation caches on ``len(sub_names)``."""
        return self._cols[2]

    @property
    def subscribers(self) -> list[str]:
        """Subscriber names, one per row, via the table's interning."""
        if self._subscribers is None:
            self._subscribers = self._cols[2][self.sub_ids].tolist()
        return self._subscribers

    def __len__(self) -> int:
        return int(self.row_ids.shape[0])

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i: int) -> TableRow:
        return self.rows[i]


_EMPTY_IDS = np.empty(0, dtype=np.int64)

# Rows of the table's float column matrix (the five scoring columns) and
# of its int column matrix; the first three of each come from a row's
# route, the rest from its subscription and batch.
_NN, _MEAN, _STD, _DEADLINE, _PRICE = range(5)
_HOP, _SRC, _RATE, _SUB, _MIN_MSG, _PATH = range(6)


class SubscriptionTable:
    """All rows installed at one broker, with an index for matching.

    Rows are keyed by ``(subscriber, path_id)``: single-path routing keeps
    one row per subscriber (path 0), the multi-path extension several.
    Each row is a dense integer id into the table's column matrices (see
    the module docstring); the matcher is keyed by those ids, so the
    match path works on int arrays end to end.  Compiled views of the
    columns and the canonical match order are rebuilt lazily after
    mutations, with numpy operations only.  ``matcher_backend`` selects
    the matching engine (:func:`repro.pubsub.matching.make_matcher`).
    """

    def __init__(self, matcher_backend: str = "vector") -> None:
        self.matcher_backend = matcher_backend
        self._matcher = make_matcher(matcher_backend)  # keyed by row id
        #: Row-id space (live rows plus freed ids) and live-row count.
        self._n = 0
        self._live_count = 0
        # Row columns; slots of dead rows keep stale values (the matcher
        # never returns their ids).
        self._f = np.empty((5, 0))
        self._i = np.empty((6, 0), dtype=np.int64)
        self._live = np.empty(0, dtype=bool)
        #: Row ids freed by uninstall, reused by the next install (last
        #: freed first) so the columns scale with peak live rows, not
        #: cumulative churn.
        self._free_ids: list[int] = []
        #: True once any row with path_id != 0 was installed: only
        #: multi-path routing can produce duplicate (hop, subscriber)
        #: pairs, so single-path tables skip dedup entirely.
        self._has_multipath_rows = False
        #: True once any row carries a subscribe-time epoch (> 0): tables
        #: of a frozen world skip the per-match epoch filter entirely.
        self._has_epoch_rows = False
        # Interned subscribers (ids are never reused): name, current
        # subscription, first live row (−1: none) and, for multi-path
        # subscribers, their further live rows in install order.
        self._sub_id_of: dict[str, int] = {}
        self._sub_names = np.empty(0, dtype=object)
        self._sub_subs = np.empty(0, dtype=object)
        self._sub_row = np.empty(0, dtype=np.int64)
        self._sub_more_rows: dict[int, list[int]] = {}
        #: Subscriber ids in name order, kept incrementally, and the
        #: matching rank per id (None while id order is name order).
        self._name_order = _EMPTY_IDS
        self._name_rank: np.ndarray | None = None
        #: Source sets interned to dense ids: rows overwhelmingly share a
        #: handful of distinct sets (one per routed subtree), so the
        #: per-source provenance mask is a membership probe over the
        #: distinct sets fancy-indexed through the set-id column.
        self._src_set_id_of: dict[frozenset[str], int] = {}
        self._src_set_by_id: list[frozenset[str]] = []
        self._hop_names: list[str] = []
        self._hop_id_of: dict[str, int] = {}
        self._rates: list[Normal] = []
        self._rate_id_of: dict[Normal, int] = {}
        #: Mutation counter: bumped once per installed row and once per
        #: uninstall.  The fused engine keys its speculative match memo on
        #: this, so a result computed ahead of time is only consumed if
        #: the table has not changed since.
        self._version = 0
        #: Mutation journal, armed (set to a list) by the sharded engine
        #: when worker processes hold replicas of this table: every
        #: installed row and every uninstall is recorded so replicas
        #: replay the identical op sequence (same interned ids, same
        #: version count) before matching.  ``None`` (the default) costs
        #: one branch per mutation.
        self.journal: list[tuple[str, object]] | None = None
        self._reset_compiled()

    def _reset_compiled(self) -> None:
        """Drop the compiled views (rebuilt lazily by :meth:`_compile`)."""
        self._dirty = True
        #: True while compiled views alias the column matrices: an
        #: in-place write then copies the matrices first.
        self._exposed = False
        self._c_cols5 = np.empty((5, 0))
        self._c_nn = self._c_mean = self._c_std = np.empty(0)
        self._c_deadline = self._c_price = np.empty(0)
        self._c_hop = self._c_sub = self._c_rank = self._c_min_msg = _EMPTY_IDS
        self._c_src_set = self._c_order = _EMPTY_IDS
        self._c_sub_names = np.empty(0, dtype=object)
        self._c_rank_identity = False
        #: hop id -> rank in sorted-neighbor-name order (offset by one so
        #: slot 0 holds the local pseudo-hop −1, which must sort first).
        self._c_hop_rank = _EMPTY_IDS
        self._c_hop_by_rank: list[int] = []
        self._c_source_masks: dict[str, np.ndarray] = {}

    def __getstate__(self) -> dict:
        # Snapshots hold the used slots only and no compiled views (views
        # would pickle as separate copies of the columns).
        state = {k: v for k, v in self.__dict__.items() if not k.startswith("_c_")}
        n, k = self._n, len(self._sub_id_of)
        state.update(
            _f=self._f[:, :n], _i=self._i[:, :n], _live=self._live[:n],
            _sub_names=self._sub_names[:k], _sub_subs=self._sub_subs[:k],
            _sub_row=self._sub_row[:k],
        )
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_compiled()

    # ------------------------------------------------------------------ #
    # Mutation.
    # ------------------------------------------------------------------ #
    def install(self, row: TableRow) -> None:
        """Install one row: a one-row :meth:`install_many`."""
        self.install_many(RowBatch.from_rows([row]))

    def install_many(self, batch: RowBatch) -> None:
        """Install a batch of rows, in row order.

        The end state — row ids (freed ids first, last freed first),
        interned hop/subscriber/source-set/rate ids, version count and
        journal entries — is exactly that of installing the rows one at a
        time.  Every check runs before anything is written: a duplicate
        ``(subscriber, path_id)`` raises KeyError and leaves the table
        unchanged.
        """
        m = len(batch)
        if not m:
            return
        columns = batch.subscriptions
        sub = batch.sub
        path = batch.path if batch.path is not None else np.zeros(m, dtype=np.int64)
        # Distinct subscriptions in first-appearance order (a single-path
        # batch lists each subscriber once, in ascending entry order).
        one_row_each = m == 1 or bool((sub[1:] > sub[:-1]).all())
        entries = sub if one_row_each else distinct_in_order(sub)
        names = columns.names[entries].tolist()
        sid_of = self._sub_id_of
        known = list(map(sid_of.get, names)) if sid_of else None

        # ---- checks (no mutation) ----
        if not one_row_each:
            pairs = list(zip(sub.tolist(), path.tolist()))
            if len(set(pairs)) != m:
                seen: set[tuple[int, int]] = set()
                for j, p in pairs:
                    if (j, p) in seen:
                        raise KeyError(f"row {(columns.names[j], p)!r} already installed")
                    seen.add((j, p))
        if known is not None and self._live_count:
            for j, sid in enumerate(known):
                if sid is None or self._sub_row[sid] < 0:
                    continue
                live = self._row_ids(sid)
                live_paths = set(self._i[_PATH, live].tolist())
                for p in path[sub == entries[j]].tolist():
                    if p in live_paths:
                        raise KeyError(f"row {(names[j], p)!r} already installed")
                if self._sub_subs[sid] != columns.subscriptions[entries[j]]:
                    raise ValueError(f"rows of {names[j]!r} carry different subscriptions")

        # ---- intern subscribers (new names in first-appearance order) ----
        k0 = len(sid_of)
        if known is None:
            sids = np.arange(k0, k0 + len(names), dtype=np.int64)
            fresh = entries
        else:
            sids = np.fromiter((-1 if x is None else x for x in known),
                               dtype=np.int64, count=len(known))
            is_new = sids < 0
            sids[is_new] = np.arange(k0, k0 + int(is_new.sum()), dtype=np.int64)
            fresh = entries[is_new]
        k1 = k0 + fresh.shape[0]
        if k1 > k0:
            new_names = columns.names[fresh]
            sid_of.update(zip(new_names.tolist(), range(k0, k1)))
            self._sub_names = reserve(self._sub_names, k1)
            self._sub_names[k0:k1] = new_names
            self._sub_subs = reserve(self._sub_subs, k1)
            self._sub_row = reserve(self._sub_row, k1)
            self._sub_row[k0:k1] = -1
        self._sub_subs[sids] = columns.subscriptions[entries]
        if one_row_each:
            row_sid = sids
        else:
            sid_of_entry = np.empty(len(columns), dtype=np.int64)
            sid_of_entry[entries] = sids
            row_sid = sid_of_entry[sub]

        # ---- intern routes (hops, source sets, rates) ----
        route_i = np.zeros((3, len(batch.routes)), dtype=np.int64)  # hop, src, rate
        route_f = np.zeros((3, len(batch.routes)))  # nn, mean, std
        for r in distinct_in_order(batch.route).tolist():
            next_hop, nn, rate, sources = batch.routes[r]
            route_i[:, r] = (
                -1 if next_hop is None
                else self._intern(self._hop_id_of, self._hop_names, next_hop),
                self._intern(self._src_set_id_of, self._src_set_by_id, sources),
                self._intern(self._rate_id_of, self._rates, rate),
            )
            route_f[:, r] = (float(nn), rate.mean, rate.std)

        # ---- row ids: freed ids first (last freed first), then fresh ----
        free = self._free_ids
        k = min(len(free), m)
        n = self._n
        if k:
            ids = np.concatenate((
                np.array(free[len(free) - k:][::-1], dtype=np.int64),
                np.arange(n, n + m - k, dtype=np.int64),
            ))
            del free[len(free) - k:]
            if self._exposed:
                # Compiled views (and the groups built on them) alias the
                # matrices: copy before overwriting a slot they cover.
                self._f = self._f.copy()
                self._i = self._i.copy()
                self._exposed = False
            dst: slice | np.ndarray = ids
        else:
            ids = np.arange(n, n + m, dtype=np.int64)
            dst = slice(n, n + m)
        self._n = n + m - k
        self._f = reserve(self._f, self._n)
        self._i = reserve(self._i, self._n)
        self._live = reserve(self._live, self._n)

        # ---- write the columns ----
        self._f[:_DEADLINE, dst] = route_f[:, batch.route]
        self._f[_DEADLINE:, dst] = columns.scoring[:, sub]
        self._i[:_SUB, dst] = route_i[:, batch.route]
        self._i[_SUB, dst] = row_sid
        self._i[_MIN_MSG, dst] = batch.min_msg
        self._i[_PATH, dst] = path
        self._live[dst] = True
        self._live_count += m
        first_row = self._sub_row
        if one_row_each and (known is None or bool((first_row[row_sid] < 0).all())):
            first_row[row_sid] = ids
        else:
            for sid, row_id in zip(row_sid.tolist(), ids.tolist()):
                if first_row[sid] < 0:
                    first_row[sid] = row_id
                else:
                    self._sub_more_rows.setdefault(sid, []).append(row_id)
        self._matcher.add_many(ids, columns.predicates.take(sub))
        if path.any():
            self._has_multipath_rows = True
        if (batch.min_msg > 0).any():
            self._has_epoch_rows = True
        if self.journal is not None:
            self.journal.extend(("i", row) for row in self._make_rows(ids))
        self._dirty = True
        self._version += m

    @staticmethod
    def _intern(id_of: dict, values: list, value) -> int:
        id_ = id_of.get(value)
        if id_ is None:
            id_ = id_of[value] = len(values)
            values.append(value)
        return id_

    def uninstall(self, subscriber: str) -> None:
        """Remove every row (any path) of a subscriber."""
        sid = self._sub_id_of.get(subscriber)
        ids = self._row_ids(sid) if sid is not None else []
        if not ids:
            raise KeyError(subscriber)
        self._sub_row[sid] = -1
        self._sub_more_rows.pop(sid, None)
        self._live[ids] = False
        self._live_count -= len(ids)
        for row_id in ids:
            self._matcher.remove(row_id)
        self._free_ids.extend(ids)
        if self.journal is not None:
            self.journal.append(("u", subscriber))
        self._dirty = True
        self._version += 1

    def _row_ids(self, sid: int) -> list[int]:
        """Live row ids of subscriber id ``sid``, in install order."""
        first = int(self._sub_row[sid])
        if first < 0:
            return []
        return [first, *self._sub_more_rows.get(sid, ())]

    # ------------------------------------------------------------------ #
    # Lookup.
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Monotone mutation counter (install/uninstall each bump it)."""
        return self._version

    def __len__(self) -> int:
        return self._live_count

    def __contains__(self, subscriber: str) -> bool:
        sid = self._sub_id_of.get(subscriber)
        return sid is not None and self._sub_row[sid] >= 0

    def row(self, subscriber: str, path_id: int = 0) -> TableRow:
        sid = self._sub_id_of.get(subscriber)
        for row_id in self._row_ids(sid) if sid is not None else ():
            if self._i[_PATH, row_id] == path_id:
                return self._make_rows([row_id])[0]
        raise KeyError((subscriber, path_id))

    def rows(self) -> list[TableRow]:
        """Every live row, in (subscriber, path_id) order."""
        self._compile()
        return self._make_rows(self._c_order)

    def _make_rows(self, ids: np.ndarray | list[int]) -> list[TableRow]:
        """:class:`TableRow` views of rows ``ids``, built from the columns."""
        ints = self._i[:, ids]
        hops, rates, sources = self._hop_names, self._rates, self._src_set_by_id
        return [
            TableRow(sub, hops[h] if h >= 0 else None, int(nn), rates[r], sources[s], p, m)
            for sub, h, nn, r, s, p, m in zip(
                self._sub_subs[ints[_SUB]].tolist(), ints[_HOP].tolist(),
                self._f[_NN, ids].tolist(), ints[_RATE].tolist(), ints[_SRC].tolist(),
                ints[_PATH].tolist(), ints[_MIN_MSG].tolist(),
            )
        ]

    # ------------------------------------------------------------------ #
    # Matching.
    # ------------------------------------------------------------------ #
    def warm(self) -> None:
        """Build the compiled column views and the matcher's indexes now
        instead of on the first match.  Purely a latency move: the state
        reached is exactly what the first match would have built."""
        self._compile()
        warm = getattr(self._matcher, "warm", None)
        if warm is not None:
            warm()

    def _compile(self) -> None:
        if not self._dirty:
            return
        n = self._n
        # Views, not copies: the five scoring columns are rows of one
        # (5, n) matrix, so a matched group gathers each with a 1-D fancy
        # index; in-place writes copy the matrices first (``_exposed``).
        cols5 = self._f[:, :n]
        ints = self._i[:, :n]
        self._c_cols5 = cols5
        self._c_nn, self._c_mean, self._c_std, self._c_deadline, self._c_price = cols5
        self._c_hop = ints[_HOP]
        self._c_sub = ints[_SUB]
        self._c_min_msg = ints[_MIN_MSG]
        self._c_src_set = ints[_SRC]
        self._c_sub_names = self._sub_names[: len(self._sub_id_of)]
        self._exposed = True
        # Canonical match order: (subscriber, path_id), live rows only
        # (dead ids keep rank 0; the matcher never returns them).
        name_rank = self._ranked_names()
        live_ids = None if self._live_count == n else np.flatnonzero(self._live[:n])
        key = ints[_SUB] if live_ids is None else ints[_SUB][live_ids]
        if name_rank is not None:
            key = name_rank[key]
        if self._has_multipath_rows:
            paths = ints[_PATH] if live_ids is None else ints[_PATH][live_ids]
            order = np.lexsort((paths, key))
            if np.array_equal(order, np.arange(order.shape[0])):
                order = None
        elif key.shape[0] < 2 or bool((key[1:] > key[:-1]).all()):
            order = None  # one row per subscriber, already in name order
        else:
            order = np.argsort(key, kind="stable")
        if live_ids is None:
            ranked = np.arange(n, dtype=np.int64) if order is None else order
        else:
            ranked = live_ids if order is None else live_ids[order]
        rank = np.zeros(n, dtype=np.int64)
        rank[ranked] = np.arange(ranked.shape[0], dtype=np.int64)
        self._c_order = ranked
        self._c_rank = rank
        # Frozen worlds install in sorted order, making the rank the
        # identity — then canonical ordering is a plain sort of the
        # matched ids, no rank gather or argsort.
        self._c_rank_identity = live_ids is None and order is None
        # Neighbor-name rank per hop id (local −1 ranks below every name),
        # so grouping can emit neighbor groups already name-sorted — the
        # broker's deterministic enqueue order without a per-message sort.
        hop_rank = np.zeros(len(self._hop_names) + 1, dtype=np.int64)
        hop_rank[0] = -1
        by_rank = sorted(range(len(self._hop_names)), key=self._hop_names.__getitem__)
        for r, h in enumerate(by_rank):
            hop_rank[h + 1] = r
        self._c_hop_rank = hop_rank
        self._c_hop_by_rank = by_rank
        self._c_source_masks = {}
        self._dirty = False

    def _ranked_names(self) -> np.ndarray | None:
        """Rank of every interned subscriber id in name order, or ``None``
        while id order is name order.  Maintained incrementally: names
        interned since the last call are sorted among themselves and
        merged into the kept order with one ``searchsorted``."""
        k = len(self._sub_id_of)
        done = self._name_order.shape[0]
        if done == k:
            return self._name_rank
        names = self._sub_names
        fresh = np.arange(done, k, dtype=np.int64)
        fresh_names = names[done:k]
        if k - done > 1 and not bool((fresh_names[1:] > fresh_names[:-1]).all()):
            by_name = np.argsort(fresh_names, kind="stable")
            fresh, fresh_names = fresh[by_name], fresh_names[by_name]
        if done:
            at = np.searchsorted(names[self._name_order], fresh_names)
            order = np.insert(self._name_order, at, fresh)
        else:
            order = fresh
        self._name_order = order
        if self._name_rank is None and np.array_equal(order, np.arange(k)):
            return None
        rank = np.empty(k, dtype=np.int64)
        rank[order] = np.arange(k, dtype=np.int64)
        self._name_rank = rank
        return rank

    def _source_mask(self, source_broker: str) -> np.ndarray:
        mask = self._c_source_masks.get(source_broker)
        if mask is None:
            # Membership over the distinct interned source sets, spread to
            # rows through the set-id column — O(distinct sets) Python
            # work however many rows share them.
            sets = self._src_set_by_id
            hit = np.fromiter(
                (source_broker in s for s in sets), dtype=bool, count=len(sets)
            )
            mask = hit[self._c_src_set] if len(sets) else np.empty(0, dtype=bool)
            self._c_source_masks[source_broker] = mask
        return mask

    def _matched_ids(self, message: Message) -> np.ndarray:
        """Row ids matching filter + provenance, in (subscriber, path_id)
        order."""
        self._compile()
        matcher = self._matcher
        if hasattr(matcher, "match_array"):
            ids = matcher.match_array(message.attributes)
            ascending = getattr(matcher, "array_results_sorted", False)
        else:
            keys = matcher.match(message.attributes)
            ids = np.fromiter(keys, dtype=np.int64, count=len(keys))
            ascending = False
        if ids.size == 0:
            return ids
        ids = ids[self._source_mask(message.source_broker)[ids]]
        if self._has_epoch_rows and ids.size:
            # Mid-run subscriptions only see messages published after they
            # joined (ids are publish-ordered); frozen tables skip this.
            ids = ids[self._c_min_msg[ids] <= message.msg_id]
        if ids.size:
            if self._c_rank_identity:
                # Boolean filters above preserve order, so ids that came
                # out of the matcher ascending are still ascending here.
                if not ascending:
                    ids = np.sort(ids)
            else:
                ids = ids[np.argsort(self._c_rank[ids], kind="stable")]
        return ids

    def match(self, message: Message) -> list[TableRow]:
        """Rows whose filter matches *and* whose sources include the
        message's origin broker (provenance check)."""
        return self._make_rows(self._matched_ids(message))

    def match_grouped(self, message: Message) -> tuple[RowGroup, dict[str, RowGroup]]:
        """Split matches into (local rows, remote rows grouped by next hop).

        Within each group, rows are deduplicated by subscriber (multi-path
        can route the same subscriber through one broker via several paths
        sharing a next hop — the queue copy must count the subscriber's
        benefit once).  Local rows are likewise unique per subscriber.
        Groups come back as :class:`RowGroup` views whose ``arrays`` are
        column gathers.  The ``remote`` dict's insertion order is sorted
        neighbor-name order — the broker's deterministic enqueue order —
        so callers iterate it directly instead of re-sorting per message.
        """
        ids = self._matched_ids(message)
        if ids.size == 0:
            return RowGroup(self, _EMPTY_IDS), {}
        hop = self._c_hop[ids]
        if self._has_multipath_rows:
            # Deduplicate (next hop, subscriber) keeping the first row in
            # match order — the legacy setdefault semantics.  Single-path
            # tables hold one row per subscriber, so only multi-path
            # installs can collide and the pass is skipped otherwise.
            combo = (hop + 1) * len(self._sub_id_of) + self._c_sub[ids]
            _, first = np.unique(combo, return_index=True)
            if len(first) != len(ids):
                first.sort()
                ids, hop = ids[first], hop[first]
        # Group by neighbor-name rank (local −1 first): the stable sort
        # keeps match order inside each group and emits groups in sorted
        # neighbor order.
        hop_rank = self._c_hop_rank[hop + 1]
        order = np.argsort(hop_rank, kind="stable")
        ids, hop_rank = ids[order], hop_rank[order]
        boundaries = np.flatnonzero(hop_rank[1:] != hop_rank[:-1]) + 1
        local = RowGroup(self, _EMPTY_IDS)
        remote: dict[str, RowGroup] = {}
        start = 0
        for stop in list(boundaries) + [len(ids)]:
            group = RowGroup(self, ids[start:stop])
            r = int(hop_rank[start])
            if r < 0:
                local = group
            else:
                remote[self._hop_names[self._c_hop_by_rank[r]]] = group
            start = stop
        return local, remote

    def match_grouped_many(
        self, messages: list[Message]
    ) -> list[tuple[RowGroup, dict[str, RowGroup]]]:
        """Batch form of :meth:`match_grouped` for the fused engine's
        window lookahead: compile once, then match the window's messages
        against the same compiled columns (per-source provenance masks are
        built once and shared across the batch).  Matching itself is a
        pure per-message reduction — each message's result is exactly
        ``match_grouped(message)``, which the differential suite asserts.
        """
        self._compile()
        return [self.match_grouped(m) for m in messages]


@dataclass(frozen=True)
class RowArrays:
    """Vectorised view of a set of rows for the metric kernels.

    ``deadline``/``price`` use ``inf``/1.0 for unspecified values, matching
    the paper's PSD convention (price 1, deadline supplied by the message).
    """

    nn: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    deadline: np.ndarray
    price: np.ndarray

    @staticmethod
    def from_rows(rows: list[TableRow]) -> "RowArrays":
        n = len(rows)
        nn = np.empty(n)
        mean = np.empty(n)
        std = np.empty(n)
        deadline = np.empty(n)
        price = np.empty(n)
        for i, row in enumerate(rows):
            nn[i] = row.nn
            mean[i] = row.rate.mean
            std[i] = row.rate.std
            deadline[i] = row.deadline_ms if row.deadline_ms is not None else np.inf
            price[i] = row.price if row.price is not None else 1.0
        return RowArrays(nn=nn, mean=mean, std=std, deadline=deadline, price=price)

    def __len__(self) -> int:
        return int(self.nn.shape[0])
