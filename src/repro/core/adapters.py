"""Service adapters: bind the generic synopsis pipeline to real services.

The builder, updater and online processor are all generic over a
:class:`ServiceAdapter`, which answers the service-specific questions:

- how to turn a partition into SVD triples (creation step 1);
- how to aggregate a group of original points (creation step 3);
- how to produce an initial result + correlations from a synopsis, and how
  to refine it with one group (or a run of groups) of original points
  (Algorithm 1);
- how much *work* (abstract units, 1 unit = one original data point
  scanned) each of those operations costs — the quantity the simulated
  clock converts into latency.

Two adapters are provided, matching the paper's two modified services:
:class:`CFAdapter` (user-based collaborative filtering over a
:class:`~repro.recommender.matrix.RatingMatrix`) and
:class:`SearchAdapter` (TF-IDF top-k retrieval over a
:class:`~repro.search.partition.SearchPartition`).
"""

from __future__ import annotations

import abc
import threading
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.recommender.aggregation import aggregate_group
from repro.recommender.cf import (CFComponent, CFPrediction, GroupedRatings,
                                  SynopsisRatings)
from repro.recommender.matrix import RatingMatrix
from repro.search.engine import SearchComponent, SearchHit, hits_best_first
from repro.search.partition import SearchPartition
from repro.search.scoring import GroupedPostings, score_matrix

__all__ = ["ServiceAdapter", "CFAdapter", "CFRequest", "SearchAdapter", "SearchQuery"]

_NO_MEMBERS = np.empty(0, dtype=np.int64)  # shared empty-group sentinel


class _ComponentMemo:
    """Small LRU of structures derived from snapshot objects, by identity.

    An entry belongs to the tuple of ``owners`` it was built from and is
    only ever returned for those very objects (ids are reused once an
    owner is collected, so the owners are kept and compared).  Bounded
    because copy-on-swap updates retire partition objects wholesale: an
    unbounded map would pin every superseded partition for the
    adapter's lifetime.  The cap only costs a rebuild on overflow.
    Thread-safe: adapters are shared across serving backends' worker
    threads; racing builders of one entry build equal values and the
    last one stored wins.
    """

    def __init__(self, maxsize: int = 32):
        self._maxsize = maxsize
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, owners: tuple, build: Callable[[], Any],
            fresh: Callable[[Any], bool] | None = None):
        key = tuple(map(id, owners))
        with self._lock:
            entry = self._entries.get(key)
            if (entry is not None
                    and all(a is b for a, b in zip(entry[0], owners))
                    and (fresh is None or fresh(entry[1]))):
                self._entries.move_to_end(key)
                return entry[1]
        value = build()
        with self._lock:
            self._entries[key] = (owners, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)


class _RefinePlan:
    """Stage 2's request-invariant work for one (request, component) run.

    Made on the execution's first ``refine`` and carried in its stage-1
    state, so every later ``refine`` of the run is a slice of
    ``layout`` — the group-segmented view of the snapshot — combined
    with ``query``, the layout's own plan for the request.  Bound to the
    ``(partition, index file)`` pair it was made for: a state refined
    against any other snapshot gets a new plan.
    """

    __slots__ = ("partition", "index", "layout", "query")

    def __init__(self, partition, index, layout, query):
        self.partition = partition
        self.index = index
        self.layout = layout
        self.query = query

    def serves(self, partition, synopsis) -> bool:
        return self.partition is partition and self.index is synopsis.index


def _groups(index) -> list[np.ndarray]:
    return [index.members_view(g) for g in range(index.n_groups)]


class ServiceAdapter(abc.ABC):
    """Interface between the generic AccuracyTrader pipeline and a service."""

    # -- offline: creation --------------------------------------------

    @abc.abstractmethod
    def record_ids(self, partition) -> np.ndarray:
        """Ids of the original data points in the partition (dense 0..n-1)."""

    @abc.abstractmethod
    def svd_triples(self, partition, record_ids=None):
        """(local_rows, cols, vals, n_rows, n_cols) for SVD fitting.

        With ``record_ids`` given, rows are local to that subset in order
        (the layout FunkSVD fold-in/refit expects).
        """

    def postprocess_reduced(self, factors: np.ndarray) -> np.ndarray:
        """Hook applied to SVD row factors before R-tree grouping.

        Default: identity.  Services whose similarity measure is
        scale-invariant (e.g. Pearson-based CF) override this to project
        points onto a common scale so the R-tree groups by direction.
        """
        return factors

    @abc.abstractmethod
    def aggregate_group(self, partition, member_ids) -> Any:
        """Step-3 aggregation of one group; returns an opaque group vector."""

    @abc.abstractmethod
    def assemble_payload(self, partition, group_vectors: list) -> Any:
        """Combine per-group vectors into the query-able synopsis payload."""

    def payload_group_vector(self, payload, group_id: int) -> Any:
        """Recover group ``group_id``'s step-3 vector from a payload.

        The exact inverse of :meth:`assemble_payload` for one slot:
        feeding the recovered vectors back through ``assemble_payload``
        must reproduce the payload bit-identically (under pickling).
        Semantic state deltas use this to rebuild unchanged groups from
        the receiver's base snapshot instead of shipping them.  Adapters
        that cannot invert their payload simply leave this unimplemented
        — callers fall back to byte-level deltas.
        """
        raise NotImplementedError(
            f"{type(self).__name__} cannot recover group vectors "
            "from its payload")

    # -- online: Algorithm 1 -------------------------------------------

    @abc.abstractmethod
    def initial_result(self, synopsis, request) -> tuple[Any, np.ndarray]:
        """Process the synopsis: (result state, per-group correlations)."""

    def initial_result_batch(self, synopsis, requests) -> list[tuple[Any, np.ndarray]]:
        """Stage 1 for a whole batch of requests against one synopsis.

        Adapters override this when they can answer a coalesced dispatch
        batch in one vectorized pass; results must be bit-identical to
        per-request :meth:`initial_result` calls, with fully independent
        state objects per request.  Default: the per-request loop.
        """
        return [self.initial_result(synopsis, request)
                for request in requests]

    @abc.abstractmethod
    def refine(self, partition, synopsis, group_id: int, request, state) -> Any:
        """Improve the result state with group ``group_id``'s originals."""

    def refine_many(self, partition, synopsis, group_ids, request,
                    state) -> Any:
        """:meth:`refine` with each of ``group_ids``, in order.

        Adapters override this when they can refine a run of ranked
        groups in one vectorised call; the state must end exactly as the
        fold of :meth:`refine` would leave it.  The processor refines
        one group per call for adapters that keep this default.
        """
        for g in group_ids:
            state = self.refine(partition, synopsis, g, request, state)
        return state

    @abc.abstractmethod
    def finalize(self, state, request) -> Any:
        """Turn internal result state into the component's answer."""

    @abc.abstractmethod
    def exact(self, partition, request) -> Any:
        """Full computation over the entire partition (baselines/ground truth)."""

    # -- work accounting -------------------------------------------------

    @abc.abstractmethod
    def synopsis_work(self, synopsis) -> float:
        """Work units to process the synopsis (stage-1 cost)."""

    @abc.abstractmethod
    def group_work(self, synopsis, group_id: int) -> float:
        """Work units to process one group's original points."""

    def group_works(self, synopsis, group_ids) -> list[float]:
        """:meth:`group_work` of each of ``group_ids``, in order.

        Adapters override this when they can read a run of groups' work
        in one call (an adapter overriding :meth:`group_work` overrides
        this too).  Default: the per-group loop.
        """
        return [self.group_work(synopsis, g) for g in group_ids]

    @abc.abstractmethod
    def full_work(self, partition) -> float:
        """Work units for exact processing of the whole partition."""


class _MemoisingAdapter(ServiceAdapter):
    """What the two concrete adapters share: per-process memos, and group
    work counted in original points.

    ``_components`` holds the service component built over a partition,
    ``_layouts`` the group-segmented layout of a ``(partition, index
    file)`` pair, ``_stage1`` the stage-1 index of a synopsis payload
    (CF).  All are keyed by object identity, so they follow every epoch
    the state plane publishes.  None is pickled: ids do not survive a
    process boundary and the contents are whole matrices, so every
    worker process builds its own.
    """

    def __init__(self) -> None:
        self._components = _ComponentMemo()
        self._layouts = _ComponentMemo()
        self._stage1 = _ComponentMemo()

    def __getstate__(self):
        return {}

    def __setstate__(self, state):
        del state
        _MemoisingAdapter.__init__(self)

    def synopsis_work(self, synopsis) -> float:
        return float(synopsis.n_aggregated)

    def group_work(self, synopsis, group_id: int) -> float:
        return float(synopsis.index.group_size(group_id))

    def group_works(self, synopsis, group_ids) -> list[float]:
        """A slice of the index file's cached group sizes."""
        return synopsis.index.group_sizes()[group_ids].astype(float).tolist()


# ---------------------------------------------------------------------------
# Collaborative filtering
# ---------------------------------------------------------------------------


@dataclass
class CFRequest:
    """An active user asking for rating predictions on target items.

    ``active_items``/``active_vals`` are the user's known ratings (sorted
    by item id); ``target_items`` are the items to predict.
    """

    active_items: np.ndarray
    active_vals: np.ndarray
    target_items: list[int]
    active_mean: float = field(init=False)

    def __post_init__(self) -> None:
        self.active_items = np.asarray(self.active_items, dtype=np.int64)
        self.active_vals = np.asarray(self.active_vals, dtype=float)
        if self.active_items.shape != self.active_vals.shape:
            raise ValueError("active items/vals length mismatch")
        order = np.argsort(self.active_items)
        self.active_items = self.active_items[order]
        self.active_vals = self.active_vals[order]
        self.target_items = [int(i) for i in self.target_items]
        self.active_mean = float(self.active_vals.mean()) if self.active_vals.size else 0.0


def _unique_targets(request: CFRequest) -> np.ndarray:
    """The request's sorted unique target items: a CF state's columns."""
    return np.unique(np.asarray(request.target_items, dtype=np.int64))


@dataclass
class CFStage1State:
    """Vectorized Algorithm 1 state for one CF request on one component.

    The per-group contributions live in dense ``(m, T)`` arrays (groups
    x unique target items) instead of one ``CFPrediction`` dict per
    group: stage 1 fills each group's row with its synopsis
    contribution, and refining a group overwrites the row with its
    members' exact partial sums.  Bit-identical to the
    dict-of-predictions representation (which the scalar oracle still
    produces): every cell holds the same float, and :meth:`merge`
    accumulates each item's column with ``bincount`` in the same
    ascending group order ``finalize``'s absorb loop used.

    Supports enough of the mapping protocol (iteration over group ids,
    ``state[g]`` materialising that group's ``CFPrediction``) to stay
    introspectable.
    """

    active_mean: float
    targets: np.ndarray   # sorted unique target items, shape (T,)
    numer: np.ndarray     # (m, T) partial numerators
    denom: np.ndarray     # (m, T) partial denominators
    present: np.ndarray   # (m, T) bool: group contributed to the item
    plan: _RefinePlan | None = None   # made by the run's first refine

    @staticmethod
    def zeros(active_mean: float, targets: np.ndarray,
              m: int) -> "CFStage1State":
        t = targets.size
        return CFStage1State(
            active_mean=active_mean, targets=targets,
            numer=np.zeros((m, t)), denom=np.zeros((m, t)),
            present=np.zeros((m, t), dtype=bool))

    def __len__(self) -> int:
        return self.numer.shape[0]

    def __iter__(self):
        return iter(range(self.numer.shape[0]))

    def __getitem__(self, group_id: int) -> CFPrediction:
        return CFPrediction.from_sums(
            self.active_mean, self.targets, self.numer[group_id],
            self.denom[group_id], self.present[group_id])

    def merge(self) -> CFPrediction:
        """All groups' contributions merged.

        Each item's column is accumulated with ``bincount`` over
        group-major keys — strictly ascending group order, exactly the
        order the sequential absorb loop adds contributions in, so the
        sums are bit-identical.
        """
        m, t = self.numer.shape
        if m == 0 or t == 0:
            return CFPrediction(active_mean=self.active_mean)
        keys = np.tile(np.arange(t), m)
        tot_n = np.bincount(keys, weights=self.numer.ravel(), minlength=t)
        tot_d = np.bincount(keys, weights=self.denom.ravel(), minlength=t)
        return CFPrediction.from_sums(self.active_mean, self.targets,
                                      tot_n, tot_d, self.present.any(axis=0))


class CFAdapter(_MemoisingAdapter):
    """Adapter for the user-based CF recommender.

    Original data points are users; an aggregated user's rating on item i
    is the mean rating of its members who rated i; the correlation of an
    aggregated user to a request is |Pearson weight| against the active
    user (§2.3: high |w| marks highly related users).
    """

    def _component(self, matrix: RatingMatrix) -> CFComponent:
        return self._components.get((matrix,), lambda: CFComponent(matrix))

    def _refine_plan(self, matrix: RatingMatrix, synopsis,
                     request: "CFRequest") -> _RefinePlan:
        index = synopsis.index
        layout: GroupedRatings = self._layouts.get(
            (matrix, index),
            lambda: GroupedRatings(self._component(matrix), _groups(index)))
        return _RefinePlan(matrix, index, layout, layout.plan(
            request.active_items, request.active_vals, request.target_items))

    # -- offline -------------------------------------------------------

    def record_ids(self, partition: RatingMatrix) -> np.ndarray:
        return np.arange(partition.n_users, dtype=np.int64)

    def svd_triples(self, partition: RatingMatrix, record_ids=None):
        # Ratings are mean-centred per user before reduction: Pearson-style
        # CF similarity is invariant to a user's rating bias, so grouping
        # users by *taste* requires removing the bias first — otherwise the
        # first latent dimension merely encodes how generously a user rates
        # and the R-tree groups generous users with generous users.
        if record_ids is None:
            users, items, vals = partition.to_triples()
            means = np.array([partition.user_mean(u) for u in range(partition.n_users)])
            return users, items, vals - means[users], partition.n_users, partition.n_items
        record_ids = np.asarray(record_ids, dtype=np.int64)
        rows_l, cols_l, vals_l = [], [], []
        for local, u in enumerate(record_ids):
            ids, vals = partition.user_ratings(int(u))
            rows_l.append(np.full(ids.size, local, dtype=np.int64))
            cols_l.append(ids)
            vals_l.append(vals - (vals.mean() if vals.size else 0.0))
        rows = np.concatenate(rows_l) if rows_l else np.empty(0, dtype=np.int64)
        cols = np.concatenate(cols_l) if cols_l else np.empty(0, dtype=np.int64)
        vals = np.concatenate(vals_l) if vals_l else np.empty(0, dtype=float)
        return rows, cols, vals, record_ids.size, partition.n_items

    def postprocess_reduced(self, factors: np.ndarray) -> np.ndarray:
        # Pearson similarity is invariant to rating scale, so users should
        # be grouped by taste *direction*: L2-normalise each reduced row
        # (zero rows — users with no signal — stay at the origin).
        norms = np.linalg.norm(factors, axis=1, keepdims=True)
        return np.divide(factors, norms, out=np.zeros_like(factors),
                         where=norms > 0)

    def aggregate_group(self, partition: RatingMatrix, member_ids):
        return aggregate_group(partition, member_ids)  # (item_ids, means)

    def assemble_payload(self, partition: RatingMatrix, group_vectors: list):
        users_l, items_l, vals_l = [], [], []
        for g, (ids, means) in enumerate(group_vectors):
            users_l.append(np.full(len(ids), g, dtype=np.int64))
            items_l.append(np.asarray(ids, dtype=np.int64))
            vals_l.append(np.asarray(means, dtype=float))
        if users_l:
            users = np.concatenate(users_l)
            items = np.concatenate(items_l)
            vals = np.concatenate(vals_l)
        else:
            users = items = np.empty(0, dtype=np.int64)
            vals = np.empty(0, dtype=float)
        agg = RatingMatrix(users, items, vals,
                           n_users=len(group_vectors), n_items=partition.n_items)
        return CFComponent(agg)

    def payload_group_vector(self, payload: "CFComponent", group_id: int):
        # aggregate_group returns (sorted item ids, means); the CSR rows
        # of the aggregated matrix store exactly those pairs per group.
        ids, means = payload.matrix.user_ratings(int(group_id))
        return np.asarray(ids, dtype=np.int64), np.asarray(means, dtype=float)

    # -- online ----------------------------------------------------------

    def initial_result(self, synopsis, request: CFRequest):
        return self.initial_result_batch(synopsis, [request])[0]

    def initial_result_batch(self, synopsis, requests):
        """Vectorized stage 1 for a whole batch: one Pearson gather over
        the synopsis payload's stage-1 index per request, and a read of
        the target columns only (bit-identical to the scalar oracle
        :meth:`initial_result_scalar`)."""
        payload: CFComponent = synopsis.payload
        index: SynopsisRatings = self._stage1.get(
            (payload,), lambda: SynopsisRatings(payload))
        weights = index.weights(
            [(r.active_items, r.active_vals) for r in requests])
        return [(self._stage1_state(index, weights[k], request),
                 np.abs(weights[k]))
                for k, request in enumerate(requests)]

    @staticmethod
    def _stage1_state(index: SynopsisRatings, weights: np.ndarray,
                      request: CFRequest) -> CFStage1State:
        """Per-group synopsis contributions on the target items.

        Each aggregated user rates an item at most once, so every
        (group, target) cell is a single product — one gather of the
        target columns scatters all groups' partial sums straight into
        the dense :class:`CFStage1State` arrays.
        """
        targets = _unique_targets(request)
        state = CFStage1State.zeros(request.active_mean, targets,
                                    index.matrix.n_users)
        users, slots, dev = index.target_entries(targets)
        w = weights[users]
        keep = w != 0.0
        users, slots, w = users[keep], slots[keep], w[keep]
        state.numer[users, slots] = w * dev[keep]
        state.denom[users, slots] = np.abs(w)
        state.present[users, slots] = True
        return state

    def initial_result_scalar(self, synopsis, request: CFRequest):
        """Per-group reference loop for :meth:`initial_result` (oracle)."""
        payload: CFComponent = synopsis.payload
        m = payload.n_users
        weights = payload.weights_for(request.active_items, request.active_vals,
                                      np.arange(m))
        correlations = np.abs(weights)
        state: dict[int, CFPrediction] = {}
        target_set = set(request.target_items)
        for g in range(m):
            w = weights[g]
            contrib = CFPrediction(active_mean=request.active_mean)
            if w != 0.0:
                ids, vals = payload.matrix.user_ratings(g)
                mean_g = payload.user_means[g]
                for item, r in zip(ids.tolist(), vals.tolist()):
                    if item in target_set:
                        contrib.numer[item] = contrib.numer.get(item, 0.0) + w * (r - mean_g)
                        contrib.denom[item] = contrib.denom.get(item, 0.0) + abs(w)
            state[g] = contrib
        return state, correlations

    def refine(self, partition: RatingMatrix, synopsis, group_id: int,
               request: CFRequest, state):
        # This class's own refine_many, so a subclass scheduling one
        # group per call (the base-class fold) still refines through it.
        return CFAdapter.refine_many(self, partition, synopsis,
                                     [group_id], request, state)

    def refine_many(self, partition: RatingMatrix, synopsis, group_ids,
                    request: CFRequest, state):
        """Refine a run of groups with one :meth:`GroupedRatings.partial_sums`
        pass, written straight into the groups' state rows."""
        # The scalar oracle's dict-of-predictions state has nowhere to
        # carry a plan: it gets a fresh one per call.
        staged = isinstance(state, CFStage1State)
        plan = state.plan if staged else None
        if plan is None or not plan.serves(partition, synopsis):
            plan = self._refine_plan(partition, synopsis, request)
            if staged:
                state.plan = plan
        if plan.query is None:
            targets = _unique_targets(request)
            sums = self._deferred_sums(partition, synopsis, group_ids,
                                       request, targets)
        else:
            targets = plan.query[3]
            sums = plan.layout.partial_sums(plan.query, group_ids)
        if staged:
            state.numer[group_ids], state.denom[group_ids], \
                state.present[group_ids] = sums
        else:
            for numer, denom, touched, g in zip(*sums, group_ids):
                state[g] = CFPrediction.from_sums(
                    request.active_mean, targets, numer, denom, touched)
        return state

    def _deferred_sums(self, partition: RatingMatrix, synopsis, group_ids,
                       request: CFRequest, targets: np.ndarray):
        """:meth:`GroupedRatings.partial_sums` for the requests its plan
        defers (duplicate or too few active items, as the vectorised
        Pearson does), one group at a time through the component."""
        shape = (len(group_ids), targets.size)
        numer, denom = np.zeros(shape), np.zeros(shape)
        touched = np.zeros(shape, dtype=bool)
        component = self._component(partition)
        for k, g in enumerate(group_ids):
            pred = component.partial_prediction(
                request.active_items, request.active_vals,
                request.target_items, request.active_mean,
                user_ids=synopsis.index.members_view(g))
            slots = np.searchsorted(targets, np.fromiter(
                pred.numer, dtype=np.int64, count=len(pred.numer)))
            numer[k, slots] = list(pred.numer.values())
            denom[k, slots] = [pred.denom[item] for item in pred.numer]
            touched[k, slots] = True
        return numer, denom, touched

    def finalize(self, state, request: CFRequest) -> CFPrediction:
        if isinstance(state, CFStage1State):
            return state.merge()
        merged = CFPrediction(active_mean=request.active_mean)
        for contrib in state.values():
            merged.absorb(contrib)
        return merged

    def exact(self, partition: RatingMatrix, request: CFRequest) -> CFPrediction:
        comp = self._component(partition)
        return comp.partial_prediction(
            request.active_items, request.active_vals, request.target_items,
            request.active_mean,
        )

    # -- work --------------------------------------------------------------

    def full_work(self, partition: RatingMatrix) -> float:
        return float(partition.n_users)


# ---------------------------------------------------------------------------
# Web search
# ---------------------------------------------------------------------------


@dataclass
class SearchQuery:
    """A tokenised query asking for the top-k pages."""

    terms: list[str]
    k: int = 10

    def __post_init__(self) -> None:
        self.terms = [str(t) for t in self.terms]
        if self.k < 1:
            raise ValueError("k must be >= 1")


class RefinedHits(Mapping):
    """The exact ``(doc, score)`` results of a search run's refined groups:
    the half of the state :class:`EstimatedHits` cedes groups to.

    Kept as arrays, one block per refine call, so refining a run of
    groups makes no per-hit objects; :meth:`top` builds only the ``k``
    hits ``finalize`` returns, with one ``lexsort``.  Groups partition
    the docs, so no doc appears twice — except that refining a group
    again (against another snapshot) replaces its earlier hits, as the
    group -> hits dict this stands in for did.  Read as that dict: a
    mapping from refined group id to its hits, best first, materialised
    on access.
    """

    def __init__(self) -> None:
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._groups: dict[int, None] = {}   # refined group ids, in order

    def add(self, group_ids, doc_ids: np.ndarray, scores: np.ndarray,
            hit_groups: np.ndarray) -> None:
        """Record the refined ``group_ids``' hits; ``hit_groups[i]`` is
        the group of ``doc_ids[i]``."""
        again = [g for g in group_ids if g in self._groups]
        if again:
            stale = np.asarray(again, dtype=np.int64)
            self._blocks = [
                (d[keep], s[keep], h[keep]) for d, s, h in self._blocks
                for keep in (~np.isin(h, stale),)]
        self._groups.update(dict.fromkeys(group_ids))
        self._blocks.append((doc_ids, scores, hit_groups))

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self):
        return iter(self._groups)

    def __contains__(self, group_id) -> bool:
        return group_id in self._groups

    def _arrays(self):
        if len(self._blocks) == 1:
            return self._blocks[0]
        if not self._blocks:
            return (np.empty(0, dtype=np.int64), np.empty(0),
                    np.empty(0, dtype=np.int64))
        return tuple(np.concatenate(column) for column in zip(*self._blocks))

    def __getitem__(self, group_id: int) -> list[SearchHit]:
        if group_id not in self._groups:
            raise KeyError(group_id)
        doc_ids, scores, groups = self._arrays()
        mine = groups == group_id
        return hits_best_first(doc_ids[mine], scores[mine])

    def top(self, k: int) -> list[SearchHit]:
        """The best ``k`` refined hits, best first."""
        doc_ids, scores, _ = self._arrays()
        return hits_best_first(doc_ids, scores, k)


class EstimatedHits(Mapping):
    """The synopsis estimates of a search run's groups not yet refined.

    Held as arrays over the ``m`` groups: the stage-1 ``scores`` (the
    run's correlations), whether the synopsis ``matched`` the group at
    all, and whether it is still ``pending`` (not yet refined).  Every
    member of a group inherits the group's score — the synopsis cannot
    tell members apart — so no per-member array exists until
    :meth:`top` pads ``finalize``'s answer.  Read as the group ->
    ``(members, score)`` dict this stands in for: one entry per pending
    group, ``(no members, 0.0)`` for a group the query did not match;
    ``pop(g)`` takes group ``g``'s entry out.
    """

    __slots__ = ("index", "scores", "matched", "pending")

    def __init__(self, index, scores: np.ndarray, matched: np.ndarray):
        self.index = index
        self.scores = scores
        self.matched = matched
        self.pending = np.ones(scores.size, dtype=bool)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.pending))

    def __iter__(self):
        return iter(np.flatnonzero(self.pending).tolist())

    def __contains__(self, group_id) -> bool:
        return (isinstance(group_id, (int, np.integer))
                and 0 <= group_id < self.pending.size
                and bool(self.pending[group_id]))

    def __getitem__(self, group_id: int) -> tuple[np.ndarray, float]:
        if group_id not in self:
            raise KeyError(group_id)
        if not self.matched[group_id]:
            return _NO_MEMBERS, 0.0
        return (self.index.members_view(group_id),
                float(self.scores[group_id]))

    def pop(self, group_id: int, *default):
        if group_id not in self and default:
            return default[0]
        entry = self[group_id]
        self.pending[group_id] = False
        return entry

    def discard(self, group_ids) -> None:
        """Take the refined ``group_ids`` out."""
        self.pending[group_ids] = False

    def top(self, k: int) -> list[SearchHit]:
        """The best ``k`` estimated hits, best first.

        One ``lexsort`` over the index file's flat members layout,
        masked to the pending matched groups: a doc belongs to one
        group, so this is the order ``merge_topk`` gives the fully
        materialised member hits.
        """
        members, group_at = self.index.flat_members()
        live = (self.pending & self.matched)[group_at]
        return hits_best_first(members[live], self.scores[group_at[live]], k)


class SearchAdapter(_MemoisingAdapter):
    """Adapter for the TF-IDF web search engine.

    Original data points are pages; an aggregated page is the bag-union of
    its members' contents; the correlation of an aggregated page to a
    query is its similarity score (§2.3).
    """

    def _component(self, partition: SearchPartition) -> SearchComponent:
        inverted = partition.index
        return self._components.get((inverted,),
                                    lambda: SearchComponent(inverted))

    def _refine_plan(self, partition: SearchPartition, synopsis,
                     request: "SearchQuery") -> _RefinePlan:
        index, inverted = synopsis.index, partition.index
        layout: GroupedPostings = self._layouts.get(
            (inverted, index),
            lambda: GroupedPostings(inverted, _groups(index)),
            fresh=lambda layout: layout.version == inverted.version)
        return _RefinePlan(partition, index, layout,
                           layout.plan(request.terms))

    # -- offline -------------------------------------------------------

    def record_ids(self, partition: SearchPartition) -> np.ndarray:
        return np.arange(partition.n_docs, dtype=np.int64)

    def svd_triples(self, partition: SearchPartition, record_ids=None):
        if record_ids is None:
            rows, cols, vals = partition.matrix.triples()
            return rows, cols, vals, partition.matrix.n_docs, partition.matrix.n_terms
        record_ids = [int(r) for r in record_ids]
        rows, cols, vals = partition.matrix.triples(record_ids)
        return rows, cols, vals, len(record_ids), partition.matrix.n_terms

    def aggregate_group(self, partition: SearchPartition, member_ids):
        counts: dict[str, int] = {}
        for d in member_ids:
            for t in partition.tokens_of(int(d)):
                counts[t] = counts.get(t, 0) + 1
        return counts

    def assemble_payload(self, partition: SearchPartition, group_vectors: list):
        from repro.search.index import InvertedIndex

        synopsis_index = InvertedIndex()
        for g, counts in enumerate(group_vectors):
            synopsis_index.add_document_counts(g, counts)
        return SearchComponent(synopsis_index)

    def payload_group_vector(self, payload: "SearchComponent", group_id: int):
        # aggregate_group returns a term-count bag; the synopsis index
        # stores each group's bag verbatim (add_document_counts keeps
        # insertion order and drops nothing for positive counts).
        return payload.index.document_counts(int(group_id))

    # -- online ----------------------------------------------------------

    def initial_result(self, synopsis, request: SearchQuery):
        return self.initial_result_batch(synopsis, [request])[0]

    def initial_result_batch(self, synopsis, requests):
        """Stage 1 for a batch: :func:`score_matrix` over the synopsis
        index, one ``bincount`` for every query.  The index's doc ids
        are the group ids ``0..m-1``, so its columns are the groups."""
        _, scores, matched = score_matrix(synopsis.payload.index,
                                          [r.terms for r in requests])
        return [self._stage1_state(synopsis, scores[k], matched[k])
                for k in range(len(requests))]

    @staticmethod
    def _stage1_state(synopsis, correlations: np.ndarray,
                      matched: np.ndarray):
        """State + correlations from the groups' synopsis scores.

        The initial approximate result is every matched group's members
        at the group's score, held as :class:`EstimatedHits`; "plan" is
        the :class:`_RefinePlan` the run's first refine makes.
        """
        state = {"refined": RefinedHits(),
                 "estimated": EstimatedHits(synopsis.index, correlations,
                                            matched),
                 "plan": None}
        return state, correlations

    def refine(self, partition: SearchPartition, synopsis, group_id: int,
               request: SearchQuery, state):
        # This class's own refine_many, so a subclass scheduling one
        # group per call (the base-class fold) still refines through it.
        return SearchAdapter.refine_many(self, partition, synopsis,
                                         [group_id], request, state)

    def refine_many(self, partition: SearchPartition, synopsis, group_ids,
                    request: SearchQuery, state):
        """Refine a run of groups with one
        :meth:`GroupedPostings.score_groups` call."""
        plan = state.get("plan")
        if plan is None or not plan.serves(partition, synopsis):
            plan = state["plan"] = self._refine_plan(partition, synopsis,
                                                     request)
        # A doc's bin sums every span it is gathered from: a group
        # named twice must be scored once, as refining it twice is.
        group_ids = list(dict.fromkeys(group_ids))
        # Exact per-page scores supersede each group's estimate entirely.
        state["refined"].add(group_ids, *plan.layout.score_groups(
            plan.query, group_ids))
        state["estimated"].discard(group_ids)
        return state

    def finalize(self, state, request: SearchQuery) -> list[SearchHit]:
        """Top-k preferring exact (refined) scores over synopsis estimates.

        Estimated hits carry their whole group's aggregated score, which
        can exceed any individual page's exact score; letting them compete
        directly would allow one coarse unrefined group to crowd out
        exactly-scored answers.  They are therefore only used to pad the
        tail when fewer than k refined hits exist — exactly the "initial
        result, then improve" semantics of Algorithm 1.
        """
        refined = state["refined"].top(request.k)
        if len(refined) >= request.k:
            return refined
        pad = state["estimated"].top(request.k - len(refined))
        seen = {h.doc_id for h in refined}
        return refined + [h for h in pad if h.doc_id not in seen]

    def exact(self, partition: SearchPartition, request: SearchQuery) -> list[SearchHit]:
        comp = self._component(partition)
        return comp.search(request.terms, k=request.k)

    # -- work --------------------------------------------------------------

    def full_work(self, partition: SearchPartition) -> float:
        return float(partition.n_docs)
