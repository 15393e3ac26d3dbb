"""Matching engines: which subscriptions does a message satisfy?

Three implementations behind one protocol:

* :class:`BruteForceMatcher` — evaluate every filter; the correctness
  oracle and the right choice for small tables.
* :class:`CountingIndexMatcher` — the classic *counting algorithm* for
  conjunctive subscriptions (Yan & Garcia-Molina): per-(attribute, op)
  sorted threshold indexes produce, per message, the count of satisfied
  predicates per subscription; a subscription matches when its count equals
  its predicate total.  Non-conjunctive filters degrade to brute force.
* :class:`VectorCountingMatcher` — the same counting algorithm on dense
  integer ids and numpy: every key is interned to a contiguous id, each
  (attribute, op) index stores its thresholds as one sorted array with
  CSR-style id spans, and a match is ``np.searchsorted`` (per index) +
  slice-concatenate + one ``np.bincount`` compared against the per-id
  predicate totals.  Decision-identical to :class:`CountingIndexMatcher`
  (the differential tests assert it); mutation recompiles the touched
  indexes lazily, so install-then-match workloads pay one build.

Bulk registration is columnar: :class:`PredicateColumns` flattens a
batch's conjunctive predicates CSR-style over interned (attribute, op)
keys, and every engine's ``add_many`` accepts it next to the keys.  The
vector engine appends whole (value, id) arrays per index; the oracle and
brute engines expand the columns back to ``(key, filter)`` items.

Engines are generic over an opaque ``key`` so both the global population
(for the delivery-rate denominator) and per-broker tables reuse them.
:func:`make_matcher` builds one by backend name (the ``matcher_backend``
config knob): ``"vector"`` is the fast path, ``"oracle"`` the dict-based
counting matcher kept as the differential oracle, ``"brute"`` the filter
scan.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from typing import Generic, Hashable, Iterable, Mapping, Protocol, Sequence, TypeVar

import numpy as np

from repro.pubsub.filters import Filter, Predicate, conjunction_predicates

K = TypeVar("K", bound=Hashable)


@dataclass(frozen=True, slots=True, eq=False)
class PredicateColumns:
    """The predicates of a batch of filters, as columns.

    Filters are interned by identity (a Zipf pool gives 100k
    subscriptions a few dozen distinct filter objects), and the distinct
    filters' pure-conjunction predicates are flattened CSR-style: distinct
    filter ``f`` owns predicates ``indptr[f]:indptr[f + 1]`` of ``index``
    (ids into the interned ``(attribute, op)`` ``keys``) and ``values``.
    ``conjunctive[f]`` is False for filters the counting index cannot
    take (they fall back to brute force).  ``fid`` maps each batch entry
    to its distinct filter, so a subset of the batch — one broker's rows —
    is :meth:`take`, a gather of ``fid`` alone.
    """

    filters: list[Filter]
    conjunctive: np.ndarray
    indptr: np.ndarray
    index: np.ndarray
    values: np.ndarray
    keys: list[tuple[str, str]]
    fid: np.ndarray

    @classmethod
    def from_filters(cls, filters: Sequence[Filter]) -> "PredicateColumns":
        n = len(filters)
        if n <= 1:
            first = fid = np.arange(n, dtype=np.int64)
        else:
            idents = np.fromiter(map(id, filters), dtype=np.int64, count=n)
            _, first, inverse = np.unique(idents, return_index=True, return_inverse=True)
            rank = np.empty(first.shape[0], dtype=np.int64)
            rank[np.argsort(first, kind="stable")] = np.arange(first.shape[0], dtype=np.int64)
            fid = rank[inverse]
            first = np.sort(first)
        distinct = [filters[i] for i in first.tolist()]
        key_id: dict[tuple[str, str], int] = {}
        indptr = [0]
        index: list[int] = []
        values: list[float] = []
        conjunctive = []
        for f in distinct:
            preds = conjunction_predicates(f)
            conjunctive.append(preds is not None)
            for p in preds or ():
                index.append(key_id.setdefault((p.attribute, p.op), len(key_id)))
                values.append(p.value)
            indptr.append(len(index))
        return cls(
            distinct,
            np.array(conjunctive, dtype=bool),
            np.array(indptr, dtype=np.int64),
            np.array(index, dtype=np.int64),
            np.array(values, dtype=np.float64),
            list(key_id),
            fid,
        )

    def take(self, entries: np.ndarray) -> "PredicateColumns":
        """The columns of a subset of the batch, in ``entries`` order."""
        return PredicateColumns(
            self.filters, self.conjunctive, self.indptr, self.index,
            self.values, self.keys, self.fid[entries],
        )

    def entry_filters(self) -> list[Filter]:
        """One filter per batch entry (the generic per-item fallback)."""
        filters = self.filters
        return [filters[f] for f in self.fid.tolist()]

    def __len__(self) -> int:
        return int(self.fid.shape[0])


def distinct_in_order(values: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, in first-appearance order."""
    if values.shape[0] < 2 or bool((values[1:] > values[:-1]).all()):
        return values
    distinct, first = np.unique(values, return_index=True)
    return distinct[np.argsort(first, kind="stable")]


def _batch(items, columns: PredicateColumns | None) -> tuple[list, PredicateColumns]:
    """Normalise ``add_many``'s two call forms to ``(keys, columns)``:
    ``(key, filter)`` items, or keys aligned with ``columns``' entries."""
    if columns is None:
        pairs = list(items)
        return [k for k, _ in pairs], PredicateColumns.from_filters([f for _, f in pairs])
    keys = items.tolist() if isinstance(items, np.ndarray) else list(items)
    if len(keys) != len(columns):
        raise ValueError(f"{len(keys)} keys for {len(columns)} predicate entries")
    return keys, columns


def _check_new_keys(keys: list, existing) -> None:
    """Raise KeyError on a key already present or repeated in the batch."""
    if len(set(keys)) != len(keys) or any(map(existing, keys)):
        seen: set = set()
        for key in keys:
            if key in seen or existing(key):
                raise KeyError(f"duplicate key {key!r}")
            seen.add(key)


def _add_each(engine, items, columns: PredicateColumns | None) -> None:
    """``add_many`` of the engines that index one filter at a time: the
    columns expand back to ``(key, filter)`` items, checked as a batch,
    then added in order."""
    keys, columns = _batch(items, columns)
    _check_new_keys(keys, engine.__contains__)
    for key, filter_ in zip(keys, columns.entry_filters()):
        engine.add(key, filter_)


class MatchingEngine(Protocol[K]):
    """Protocol shared by all matchers."""

    def add(self, key: K, filter_: Filter) -> None: ...

    def remove(self, key: K) -> None: ...

    def match(self, attributes: Mapping[str, float]) -> set[K]: ...

    def count(self, attributes: Mapping[str, float]) -> int: ...

    def __len__(self) -> int: ...


class BruteForceMatcher(Generic[K]):
    """Evaluate every registered filter."""

    def __init__(self) -> None:
        self._filters: dict[K, Filter] = {}

    def add(self, key: K, filter_: Filter) -> None:
        if key in self._filters:
            raise KeyError(f"duplicate key {key!r}")
        self._filters[key] = filter_

    def add_many(self, items, columns: PredicateColumns | None = None) -> None:
        """``(key, filter)`` items, or keys aligned with ``columns``."""
        _add_each(self, items, columns)

    def remove(self, key: K) -> None:
        del self._filters[key]

    def match(self, attributes: Mapping[str, float]) -> set[K]:
        return {k for k, f in self._filters.items() if f.matches(attributes)}

    def count(self, attributes: Mapping[str, float]) -> int:
        """``len(match(...))`` without materialising the key set."""
        return sum(1 for f in self._filters.values() if f.matches(attributes))

    def __contains__(self, key: K) -> bool:
        return key in self._filters

    def __len__(self) -> int:
        return len(self._filters)


class _AttrOpIndex:
    """Sorted thresholds for one (attribute, op) pair.

    For ``<``/``<=`` predicates, a message value ``v`` satisfies all
    thresholds strictly greater than ``v`` (resp. ``>= v``); bisect gives
    the satisfied suffix in O(log n) + output size.
    """

    __slots__ = ("op", "_thresholds", "_keys")

    def __init__(self, op: str) -> None:
        self.op = op
        self._thresholds: list[float] = []
        self._keys: list[list] = []  # parallel: keys sharing each threshold

    def add(self, value: float, key) -> None:
        i = bisect.bisect_left(self._thresholds, value)
        if i < len(self._thresholds) and self._thresholds[i] == value:
            self._keys[i].append(key)
        else:
            self._thresholds.insert(i, value)
            self._keys.insert(i, [key])

    def remove(self, value: float, key) -> None:
        i = bisect.bisect_left(self._thresholds, value)
        if i >= len(self._thresholds) or self._thresholds[i] != value:
            raise KeyError(key)
        self._keys[i].remove(key)
        if not self._keys[i]:
            del self._thresholds[i]
            del self._keys[i]

    def satisfied_keys(self, v: float) -> Iterable:
        t, ks = self._thresholds, self._keys
        op = self.op
        if op == "<":  # v < threshold  => thresholds strictly above v
            start = bisect.bisect_right(t, v)
            rng = range(start, len(t))
        elif op == "<=":
            start = bisect.bisect_left(t, v)
            rng = range(start, len(t))
        elif op == ">":  # v > threshold => thresholds strictly below v
            stop = bisect.bisect_left(t, v)
            rng = range(0, stop)
        elif op == ">=":
            stop = bisect.bisect_right(t, v)
            rng = range(0, stop)
        elif op == "==":
            i = bisect.bisect_left(t, v)
            rng = range(i, i + 1) if i < len(t) and t[i] == v else range(0)
        else:  # "!=": everything except the equal threshold
            i = bisect.bisect_left(t, v)
            skip = i if i < len(t) and t[i] == v else -1
            for j in range(len(t)):
                if j != skip:
                    yield from ks[j]
            return
        for j in rng:
            yield from ks[j]


class CountingIndexMatcher(Generic[K]):
    """Counting-algorithm matcher for conjunctive filters."""

    def __init__(self) -> None:
        self._indexes: dict[tuple[str, str], _AttrOpIndex] = {}
        self._predicate_count: dict[K, int] = {}
        self._predicates: dict[K, tuple[Predicate, ...]] = {}
        self._fallback = BruteForceMatcher[K]()
        #: Keys with zero predicates (empty conjunctions) match every
        #: message but never appear in any index; cached here so ``match``
        #: does not rescan ``_predicate_count`` on every call.
        self._match_all: set[K] = set()

    def add(self, key: K, filter_: Filter) -> None:
        if key in self._predicate_count or key in self._fallback:
            raise KeyError(f"duplicate key {key!r}")
        preds = conjunction_predicates(filter_)
        if preds is None:
            self._fallback.add(key, filter_)
            return
        self._predicate_count[key] = len(preds)
        self._predicates[key] = preds
        if not preds:
            self._match_all.add(key)
        for p in preds:
            idx = self._indexes.get((p.attribute, p.op))
            if idx is None:
                idx = self._indexes[(p.attribute, p.op)] = _AttrOpIndex(p.op)
            idx.add(p.value, key)

    def __contains__(self, key: K) -> bool:
        return key in self._predicate_count or key in self._fallback

    def add_many(self, items, columns: PredicateColumns | None = None) -> None:
        """``(key, filter)`` items, or keys aligned with ``columns``."""
        _add_each(self, items, columns)

    def remove(self, key: K) -> None:
        preds = self._predicates.pop(key, None)
        if preds is None:
            self._fallback.remove(key)
            return
        del self._predicate_count[key]
        self._match_all.discard(key)
        for p in preds:
            self._indexes[(p.attribute, p.op)].remove(p.value, key)

    def match(self, attributes: Mapping[str, float]) -> set[K]:
        counts: dict[K, int] = defaultdict(int)
        for (attr, _op), idx in self._indexes.items():
            v = attributes.get(attr)
            if v is None:
                continue
            for key in idx.satisfied_keys(v):
                counts[key] += 1
        result = {k for k, c in counts.items() if c == self._predicate_count[k]}
        result.update(self._match_all)
        result.update(self._fallback.match(attributes))
        return result

    def count(self, attributes: Mapping[str, float]) -> int:
        """``len(match(...))`` — the oracle keeps the straightforward form."""
        return len(self.match(attributes))

    def __len__(self) -> int:
        return len(self._predicate_count) + len(self._fallback)


def reserve(buf: np.ndarray, need: int) -> np.ndarray:
    """``buf`` with room for ``need`` slots along its last axis: ``buf``
    itself, or a copy with (at least) doubled capacity.  Growable numpy
    columns append in amortised O(1) per element."""
    cap = buf.shape[-1]
    if need <= cap:
        return buf
    grown = np.empty(buf.shape[:-1] + (max(need, 2 * cap, 16),), dtype=buf.dtype)
    grown[..., :cap] = buf
    return grown


class _VecAttrOpIndex:
    """One (attribute, op) index over interned ids, compiled to numpy.

    Raw ``(threshold, id)`` entries accumulate in two growable columns
    (the first ``n`` slots are used); :meth:`compile` sorts them once
    into a sorted unique ``thresholds`` array plus a CSR-style layout
    (``ids`` concatenated per threshold, ``starts`` as the indptr).
    Every comparison op then reduces to one ``np.searchsorted`` and a
    contiguous slice (prefix for ``>``/``>=``, suffix for ``<``/``<=``, a
    single span for ``==``, its complement for ``!=``) — the satisfied-id
    set comes out as array views, no per-key Python iteration.
    """

    __slots__ = ("op", "n", "values", "ids", "dirty", "_thresholds", "_starts", "_ids")

    def __init__(self, op: str) -> None:
        self.op = op
        self.n = 0
        self.values = np.empty(0)
        self.ids = np.empty(0, dtype=np.int64)
        self.dirty = True
        self._thresholds = np.empty(0)
        self._starts = np.zeros(1, dtype=np.int64)
        self._ids = np.empty(0, dtype=np.int64)

    def append(self, values: np.ndarray, ids: np.ndarray) -> None:
        """Append entries in order (the stable compile sort keeps that
        order among equal thresholds)."""
        n = self.n
        m = n + values.shape[0]
        self.values = reserve(self.values, m)
        self.values[n:m] = values
        self.ids = reserve(self.ids, m)
        self.ids[n:m] = ids
        self.n = m
        self.dirty = True

    def remap(self, new_id: np.ndarray) -> None:
        """Renumber entry ids through ``new_id`` (old id -> new id), dropping
        entries whose id maps to −1; entry order is kept."""
        ids = new_id[self.ids[: self.n]]
        kept = ids >= 0
        self.values = self.values[: self.n][kept]
        self.ids = ids[kept]
        self.n = int(self.ids.shape[0])
        self.dirty = True

    def compile(self) -> None:
        if not self.dirty:
            return
        if self.n:
            values = self.values[: self.n]
            order = np.argsort(values, kind="stable")
            values = values[order]
            thresholds, first = np.unique(values, return_index=True)
            self._thresholds = thresholds
            self._starts = np.append(first, values.shape[0])
            self._ids = self.ids[: self.n][order]
        else:
            self._thresholds = np.empty(0)
            self._starts = np.zeros(1, dtype=np.int64)
            self._ids = np.empty(0, dtype=np.int64)
        self.dirty = False

    def __getstate__(self) -> dict:
        # Snapshots carry the used entries only; the compiled layout is
        # rebuilt on first use after a restore (same sort, same result).
        return {"op": self.op, "values": self.values[: self.n], "ids": self.ids[: self.n]}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["op"])
        self.append(state["values"], state["ids"])

    def collect(self, v: float, out: list[np.ndarray]) -> None:
        """Append the satisfied-id array views for message value ``v``."""
        t, starts, ids = self._thresholds, self._starts, self._ids
        op = self.op
        if op == "<":  # v < threshold => the suffix strictly above v
            out.append(ids[starts[np.searchsorted(t, v, side="right")]:])
        elif op == "<=":
            out.append(ids[starts[np.searchsorted(t, v, side="left")]:])
        elif op == ">":  # v > threshold => the prefix strictly below v
            out.append(ids[: starts[np.searchsorted(t, v, side="left")]])
        elif op == ">=":
            out.append(ids[: starts[np.searchsorted(t, v, side="right")]])
        elif op == "==":
            i = np.searchsorted(t, v, side="left")
            if i < len(t) and t[i] == v:
                out.append(ids[starts[i]: starts[i + 1]])
        else:  # "!=": everything except the equal span
            i = np.searchsorted(t, v, side="left")
            if i < len(t) and t[i] == v:
                out.append(ids[: starts[i]])
                out.append(ids[starts[i + 1]:])
            else:
                out.append(ids)


#: Sentinel predicate total for ids that must never win the count test:
#: removed keys and match-all keys (handled by their own cached set).
_NEVER = -1


class VectorCountingMatcher(Generic[K]):
    """Counting-algorithm matcher on dense ids and numpy arrays.

    Keys are interned to contiguous integer ids; a match concatenates the
    per-index satisfied-id slices and compares one ``np.bincount`` against
    the per-id predicate totals (a growable int64 column).  Ids are
    append-only (removals leave a ``_NEVER`` total behind), so compiled
    indexes stay valid across removals and only the touched (attribute,
    op) indexes recompile.

    Non-conjunctive filters degrade to brute force and empty conjunctions
    live in a cached match-all set, exactly as in
    :class:`CountingIndexMatcher`.
    """

    def __init__(self) -> None:
        self._indexes: dict[tuple[str, str], _VecAttrOpIndex] = {}
        self._keys: list[K] = []  # id -> key
        self._id_of: dict[K, int] = {}
        #: id -> predicate total (or _NEVER); the first len(_keys) slots.
        self._required = np.empty(0, dtype=np.int64)
        self._match_all: set[K] = set()
        self._fallback = BruteForceMatcher[K]()
        self._live = 0
        self._key_arr = np.empty(0, dtype=np.int64)  # id -> key, int keys only
        # Removal is tombstone-based: a removed id's predicate total goes to
        # _NEVER, so its (still-indexed) entries can inflate bincount inputs
        # but can never win the count test.  Once the tombstones outnumber
        # the live entries (or live ids), :meth:`_purge_dead` compacts the
        # whole id space — dead entries leave the indexes and surviving ids
        # are remapped to stay dense — so remove is O(1) amortised and
        # per-match bincount width tracks live keys, not cumulative adds.
        self._dead_count = 0
        self._dead_entries = 0
        self._total_entries = 0
        #: True while every key equals its own interned id (the
        #: subscription table keys rows by the ids it interned in the same
        #: order, so churn-free tables keep this for the whole run) —
        #: then matched ids ARE the keys and match_array needs no gather.
        self._keys_identity = True

    # -------------------------------------------------------------- #
    # Mutation.
    # -------------------------------------------------------------- #
    def add(self, key: K, filter_: Filter) -> None:
        self.add_many([key], PredicateColumns.from_filters([filter_]))

    def add_many(self, items, columns: PredicateColumns | None = None) -> None:
        """Bulk registration of ``(key, filter)`` items, or of keys (a
        sequence or an int array) aligned with ``columns``' entries.

        Interning happens in entry order, so ids are the same as
        sequential :meth:`add` calls; each touched index then takes one
        (value, id) array append.  Nothing is registered if a key is a
        duplicate.
        """
        keys, columns = _batch(items, columns)
        fallback = self._fallback
        id_of = self._id_of
        _check_new_keys(
            keys,
            id_of.__contains__ if not len(fallback)
            else (lambda k: k in id_of or k in fallback),
        )
        fid = columns.fid
        conjunctive = columns.conjunctive[fid]
        if not conjunctive.all():
            for i in np.flatnonzero(~conjunctive).tolist():
                fallback.add(keys[i], columns.filters[fid[i]])
            kept = np.flatnonzero(conjunctive)
            fid = fid[kept]
            keys = [keys[i] for i in kept.tolist()]
        m = len(keys)
        if not m:
            return
        start = len(self._keys)
        ids = np.arange(start, start + m, dtype=np.int64)
        self._keys.extend(keys)
        id_of.update(zip(keys, range(start, start + m)))
        if self._keys_identity:
            self._keys_identity = keys == ids.tolist()
        indptr = columns.indptr
        counts = (indptr[1:] - indptr[:-1])[fid]
        self._required = reserve(self._required, start + m)
        self._required[start:start + m] = np.where(counts > 0, counts, _NEVER)
        if not counts.all():
            for i in np.flatnonzero(counts == 0).tolist():
                self._match_all.add(keys[i])
        self._live += m
        total = int(counts.sum())
        self._total_entries += total
        if not total:
            return
        # Expand each entry's CSR span: entry e's predicates sit at
        # indptr[fid[e]] + 0 .. counts[e] - 1 of the flat columns.
        ends = np.cumsum(counts)
        pos = np.arange(total, dtype=np.int64) + np.repeat(indptr[fid] - (ends - counts), counts)
        index = columns.index[pos]
        values = columns.values[pos]
        owner = np.repeat(ids, counts)
        # Indexes are created in first-appearance order, as sequential adds
        # would create them.
        for k in distinct_in_order(index).tolist():
            attr_op = columns.keys[k]
            idx = self._indexes.get(attr_op)
            if idx is None:
                idx = self._indexes[attr_op] = _VecAttrOpIndex(attr_op[1])
            mask = index == k
            idx.append(values[mask], owner[mask])

    def remove(self, key: K) -> None:
        id_ = self._id_of.pop(key, None)
        if id_ is None:
            self._fallback.remove(key)
            return
        n_predicates = int(self._required[id_])
        self._required[id_] = _NEVER
        self._match_all.discard(key)
        self._live -= 1
        self._dead_count += 1
        self._dead_entries += max(n_predicates, 0)
        if (self._dead_entries * 2 > self._total_entries
                or self._dead_count * 2 > len(self._keys)):
            self._purge_dead()

    def _purge_dead(self) -> None:
        """Compact the id space (amortised): drop tombstoned entries from
        every index and remap surviving ids to be dense again, so neither
        match cost nor id-table memory grows with cumulative churn."""
        live = np.fromiter(self._id_of.values(), dtype=np.int64, count=len(self._id_of))
        live.sort()  # survivors keep their relative (old id) order
        new_id = np.full(len(self._keys), -1, dtype=np.int64)
        new_id[live] = np.arange(live.shape[0], dtype=np.int64)
        keys = self._keys
        self._keys = [keys[i] for i in live.tolist()]
        self._id_of = dict(zip(self._keys, range(len(self._keys))))
        self._required = self._required[live]
        total = 0
        for idx in self._indexes.values():
            idx.remap(new_id)
            total += idx.n
        self._total_entries = total
        self._dead_entries = 0
        self._dead_count = 0
        self._key_arr = np.empty(0, dtype=np.int64)
        self._keys_identity = self._keys == list(range(len(self._keys)))

    # -------------------------------------------------------------- #
    # Matching.
    # -------------------------------------------------------------- #
    @property
    def array_results_sorted(self) -> bool:
        """True when :meth:`match_array` is guaranteed to return ids in
        ascending order (the identity fast path: hits come straight from
        ``flatnonzero``) — callers can then skip their canonical sort."""
        return self._keys_identity and not self._match_all and not len(self._fallback)

    def warm(self) -> None:
        """Eagerly build every lazy compiled structure (per-op indexes,
        key gather).  Matching compiles these on first use anyway; warming
        just moves the one-time cost out of the simulation's hot loop —
        reachable state is identical."""
        for idx in self._indexes.values():
            idx.compile()
        if not self._keys_identity:
            try:
                self._key_array()
            except (TypeError, ValueError):
                pass  # non-int keys never take the array path

    def _key_array(self) -> np.ndarray:
        """id -> key as int64 (int keys only), extended by the keys
        interned since the last call."""
        done = self._key_arr.shape[0]
        if done != len(self._keys):
            tail = np.asarray(self._keys[done:], dtype=np.int64)
            self._key_arr = np.concatenate((self._key_arr, tail))
        return self._key_arr

    def _indexed_hits(self, attributes: Mapping[str, float]) -> np.ndarray:
        """Ids whose predicate count equals their total (sorted ascending)."""
        chunks: list[np.ndarray] = []
        for (attr, _op), idx in self._indexes.items():
            v = attributes.get(attr)
            if v is None:
                continue
            if idx.dirty:
                idx.compile()
            idx.collect(v, chunks)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        satisfied = np.concatenate(chunks)
        if satisfied.size == 0:
            return satisfied
        n = len(self._keys)
        counts = np.bincount(satisfied, minlength=n)
        return np.flatnonzero(counts == self._required[:n])

    def match(self, attributes: Mapping[str, float]) -> set[K]:
        keys = self._keys
        result = {keys[i] for i in self._indexed_hits(attributes)}
        result.update(self._match_all)
        result.update(self._fallback.match(attributes))
        return result

    def match_array(self, attributes: Mapping[str, float]) -> np.ndarray:
        """Matched keys as one int64 array — the zero-set fast path.

        Only valid when every key is a Python int (the subscription table
        interns rows to dense ids and uses those as keys).  Order is
        unspecified; callers that need a canonical order sort the result.
        """
        hits = self._indexed_hits(attributes)
        if self._keys_identity and not self._match_all and not len(self._fallback):
            # Keys == ids: the hit array (already sorted ascending, as it
            # comes from flatnonzero) is the answer with no gather.
            return hits
        parts = [self._key_array()[hits]] if hits.size else []
        if self._match_all:
            parts.append(np.fromiter(self._match_all, dtype=np.int64, count=len(self._match_all)))
        if len(self._fallback):
            extra = self._fallback.match(attributes)
            if extra:
                parts.append(np.fromiter(extra, dtype=np.int64, count=len(extra)))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def count(self, attributes: Mapping[str, float]) -> int:
        """``len(match(...))`` without materialising the key set.

        Exact because the three categories are disjoint: ``add`` raises on
        duplicate keys, match-all ids carry a ``_NEVER`` total (never in
        the indexed hits) and fallback keys are never interned.
        """
        return (
            int(self._indexed_hits(attributes).size)
            + len(self._match_all)
            + len(self._fallback.match(attributes))
        )

    def __len__(self) -> int:
        return self._live + len(self._fallback)


#: Recognised ``matcher_backend`` selectors for :func:`make_matcher`.
MATCHER_BACKENDS = ("vector", "oracle", "brute")


def make_matcher(backend: str = "vector") -> MatchingEngine:
    """Build a matching engine by ``matcher_backend`` name.

    ``"vector"`` is the numpy fast path, ``"oracle"`` the dict-based
    counting matcher retained as the differential oracle, ``"brute"`` the
    plain filter scan.
    """
    if backend == "vector":
        return VectorCountingMatcher()
    if backend == "oracle":
        return CountingIndexMatcher()
    if backend == "brute":
        return BruteForceMatcher()
    raise ValueError(f"matcher_backend must be one of {MATCHER_BACKENDS}, got {backend!r}")
