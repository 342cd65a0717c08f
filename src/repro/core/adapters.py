"""Service adapters: bind the generic synopsis pipeline to real services.

The builder, updater and online processor are all generic over a
:class:`ServiceAdapter`, which answers the service-specific questions:

- how to turn a partition into SVD triples (creation step 1);
- how to aggregate a group of original points (creation step 3);
- how to produce an initial result + correlations from a synopsis, and how
  to refine it with one group of original points (Algorithm 1);
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
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.recommender.aggregation import aggregate_group
from repro.recommender.cf import CFComponent, CFPrediction, GroupedRatings
from repro.recommender.matrix import RatingMatrix
from repro.search.engine import (SearchComponent, SearchHit, hits_best_first,
                                 merge_topk)
from repro.search.partition import SearchPartition
from repro.search.scoring import GroupedPostings

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

    @abc.abstractmethod
    def full_work(self, partition) -> float:
        """Work units for exact processing of the whole partition."""


class _MemoisingAdapter(ServiceAdapter):
    """The per-process memos the two concrete adapters share.

    ``_components`` holds the service component built over a partition,
    ``_layouts`` the group-segmented layout of a ``(partition, index
    file)`` pair.  Both are keyed by object identity, so they follow
    every epoch the state plane publishes.  Neither is pickled: ids do
    not survive a process boundary and the contents are whole matrices,
    so every worker process builds its own.
    """

    def __init__(self) -> None:
        self._components = _ComponentMemo()
        self._layouts = _ComponentMemo()

    def __getstate__(self):
        return {}

    def __setstate__(self, state):
        del state
        _MemoisingAdapter.__init__(self)


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


@dataclass
class CFStage1State:
    """Vectorized Algorithm 1 state for one CF request on one component.

    The per-group synopsis contributions live in dense ``(m, T)`` arrays
    (groups x unique target items) instead of one ``CFPrediction`` dict
    per group; refined groups are recorded as sparse ``overrides`` whose
    exact partial sums replace their synopsis row at :meth:`merge` time.
    Bit-identical to the dict-of-predictions representation (which the
    scalar oracle still produces): scatter fills the same single-product
    cells, and the merge accumulates each item's column with ``bincount``
    in the same ascending group order ``finalize``'s absorb loop used.

    Supports enough of the mapping protocol (iteration over group ids,
    ``state[g]`` materialising that group's ``CFPrediction``) to stay
    introspectable.
    """

    active_mean: float
    targets: np.ndarray   # sorted unique target items, shape (T,)
    numer: np.ndarray     # (m, T) synopsis partial numerators
    denom: np.ndarray     # (m, T) synopsis partial denominators
    present: np.ndarray   # (m, T) bool: group contributed to the item
    overrides: dict[int, CFPrediction] = field(default_factory=dict)
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
        pred = self.overrides.get(group_id)
        if pred is not None:
            return pred
        pred = CFPrediction(active_mean=self.active_mean)
        for t in np.flatnonzero(self.present[group_id]).tolist():
            item = int(self.targets[t])
            pred.numer[item] = float(self.numer[group_id, t])
            pred.denom[item] = float(self.denom[group_id, t])
        return pred

    def merge(self) -> CFPrediction:
        """All groups' contributions merged, refined rows overriding.

        Each item's column is accumulated with ``bincount`` over
        group-major keys — strictly ascending group order, exactly the
        order the sequential absorb loop adds contributions in, so the
        sums are bit-identical.
        """
        merged = CFPrediction(active_mean=self.active_mean)
        m, t = self.numer.shape
        if m == 0 or t == 0:
            return merged
        numer, denom, present = self.numer, self.denom, self.present
        if self.overrides:
            numer, denom = numer.copy(), denom.copy()
            present = present.copy()
            slot = {int(item): k for k, item in
                    enumerate(self.targets.tolist())}
            for g, pred in self.overrides.items():
                numer[g] = 0.0
                denom[g] = 0.0
                present[g] = False
                for item, nv in pred.numer.items():
                    k = slot[item]
                    numer[g, k] = nv
                    denom[g, k] = pred.denom[item]
                    present[g, k] = True
        keys = np.tile(np.arange(t), m)
        tot_n = np.bincount(keys, weights=numer.ravel(), minlength=t)
        tot_d = np.bincount(keys, weights=denom.ravel(), minlength=t)
        for k in np.flatnonzero(present.any(axis=0)).tolist():
            item = int(self.targets[k])
            merged.numer[item] = float(tot_n[k])
            merged.denom[item] = float(tot_d[k])
        return merged


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
        payload: CFComponent = synopsis.payload
        weights = payload.weights_for(request.active_items, request.active_vals,
                                      np.arange(payload.n_users))
        return self._stage1_state(payload, weights, request), np.abs(weights)

    def initial_result_batch(self, synopsis, requests):
        """Vectorized stage 1 for a whole batch: one Pearson sweep of the
        aggregated matrix answers every request (bit-identical to
        per-request :meth:`initial_result`)."""
        from repro.recommender import similarity

        payload: CFComponent = synopsis.payload
        weights = similarity.pearson_weights_batch(
            payload.matrix,
            [(r.active_items, r.active_vals) for r in requests])
        return [(self._stage1_state(payload, weights[k], request),
                 np.abs(weights[k]))
                for k, request in enumerate(requests)]

    @staticmethod
    def _stage1_state(payload: CFComponent, weights: np.ndarray,
                      request: CFRequest) -> CFStage1State:
        """Per-group synopsis contributions on the target items.

        Each aggregated user rates an item at most once, so every
        (group, target) cell is a single product — one gather over the
        aggregated matrix scatters all groups' partial sums straight
        into the dense :class:`CFStage1State` arrays.
        """
        matrix = payload.matrix
        m = payload.n_users
        targets = (np.unique(np.asarray(request.target_items, dtype=np.int64))
                   if request.target_items else np.empty(0, dtype=np.int64))
        state = CFStage1State.zeros(request.active_mean, targets, m)
        if targets.size == 0 or matrix.nnz == 0:
            return state
        items = matrix.item_ids
        pos = np.searchsorted(targets, items)
        hit = targets[np.minimum(pos, targets.size - 1)] == items
        if not np.any(hit):
            return state
        gh = np.repeat(np.arange(m), np.diff(matrix.indptr))[hit]
        keep = weights[gh] != 0.0
        gh = gh[keep]
        wh = weights[gh]
        th = pos[hit][keep]
        state.numer[gh, th] = wh * (matrix.values[hit][keep]
                                    - payload.user_means[gh])
        state.denom[gh, th] = np.abs(wh)
        state.present[gh, th] = True
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
        # The scalar oracle's dict-of-predictions state has nowhere to
        # carry a plan: it gets a fresh one per call.
        staged = isinstance(state, CFStage1State)
        plan = state.plan if staged else None
        if plan is None or not plan.serves(partition, synopsis):
            plan = self._refine_plan(partition, synopsis, request)
            if staged:
                state.plan = plan
        if plan.query is None:
            # Duplicate or too few active items: the inputs the
            # vectorised Pearson itself defers.
            pred = self._component(partition).partial_prediction(
                request.active_items, request.active_vals,
                request.target_items, request.active_mean,
                user_ids=synopsis.index.members_view(group_id))
        else:
            pred = plan.layout.partial_prediction(plan.query, group_id,
                                                  request.active_mean)
        if staged:
            state.overrides[group_id] = pred
        else:
            state[group_id] = pred
        return state

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

    def synopsis_work(self, synopsis) -> float:
        return float(synopsis.n_aggregated)

    def group_work(self, synopsis, group_id: int) -> float:
        return float(synopsis.index.group_size(group_id))

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
        payload: SearchComponent = synopsis.payload
        return self._stage1_state(
            synopsis,
            [(h.doc_id, h.score) for h in payload.search(request.terms)])

    def initial_result_batch(self, synopsis, requests):
        """Vectorized stage 1 for a batch: one scoring pass over the
        synopsis index answers every query (bit-identical to per-request
        :meth:`initial_result`)."""
        from repro.search.scoring import score_queries

        payload: SearchComponent = synopsis.payload
        score_maps = score_queries(payload.index,
                                   [r.terms for r in requests])
        return [self._stage1_state(synopsis, scores.items())
                for scores in score_maps]

    @staticmethod
    def _stage1_state(synopsis, group_scores):
        """State + correlations from ``(group id, score)`` pairs."""
        m = synopsis.n_aggregated
        correlations = np.zeros(m)
        # Initial approximate result: members of matching groups inherit
        # their group's score (the synopsis cannot distinguish members
        # yet).  Stored as one ``(members, score)`` pair per group — all
        # members share the group score, so per-member hit objects are
        # deferred to the few pad slots :meth:`finalize` actually fills.
        estimates: dict[int, tuple[np.ndarray, float]] = {
            g: (_NO_MEMBERS, 0.0) for g in range(m)}
        for g, score in group_scores:
            correlations[g] = score
            estimates[g] = (synopsis.index.members_view(g), score)
        # "plan": the _RefinePlan the run's first refine makes.
        state = {"refined": {}, "estimated": estimates, "plan": None}
        return state, correlations

    def refine(self, partition: SearchPartition, synopsis, group_id: int,
               request: SearchQuery, state):
        plan = state.get("plan")
        if plan is None or not plan.serves(partition, synopsis):
            plan = state["plan"] = self._refine_plan(partition, synopsis,
                                                     request)
        # Exact per-page scores supersede the group's estimate entirely.
        state["refined"][group_id] = hits_best_first(
            *plan.layout.score_group(plan.query, group_id))
        state["estimated"].pop(group_id, None)
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
        refined = merge_topk(state["refined"].values(), request.k)
        if len(refined) >= request.k:
            return refined
        need = request.k - len(refined)
        # Expand the lazy (members, score) estimates only for the top
        # `need` pad slots: every member of a group shares the group's
        # score and a doc belongs to exactly one group, so one lexsort
        # over (neg score, doc id) is the same total order merge_topk
        # would produce over fully materialised member hits.
        groups = [(members, score) for members, score
                  in state["estimated"].values() if members.size]
        pad: list[SearchHit] = []
        if need > 0 and groups:
            ids = np.concatenate([members for members, _ in groups])
            neg = np.concatenate([np.full(members.size, -float(score))
                                  for members, score in groups])
            top = np.lexsort((ids, neg))[:need]
            pad = [SearchHit(neg_score=float(neg[i]), doc_id=int(ids[i]))
                   for i in top.tolist()]
        seen = {h.doc_id for h in refined}
        return refined + [h for h in pad if h.doc_id not in seen]

    def exact(self, partition: SearchPartition, request: SearchQuery) -> list[SearchHit]:
        comp = self._component(partition)
        return comp.search(request.terms, k=request.k)

    # -- work --------------------------------------------------------------

    def synopsis_work(self, synopsis) -> float:
        return float(synopsis.n_aggregated)

    def group_work(self, synopsis, group_id: int) -> float:
        return float(synopsis.index.group_size(group_id))

    def full_work(self, partition: SearchPartition) -> float:
        return float(partition.n_docs)
