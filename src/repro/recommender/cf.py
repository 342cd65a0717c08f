"""User-based CF prediction, partitioned the way the paper deploys it.

Each service component owns a partition of the rating matrix.  For an
active user *u* and target item *i* the classic two-step algorithm is

1. weight every local user *v* who rated *i*: ``w_uv = Pearson(u, v)``;
2. predict ``p(u,i) = mean_u + sum_v w_uv (r_vi - mean_v) / sum_v |w_uv|``
   (mean-centred weighted average — the standard Resnick formula).

Components return *partial sums* (numerator, denominator, per item) so the
composer can merge any subset of components/users and still produce
exactly the prediction a single machine scanning those users would give.
That additivity is what lets AccuracyTrader refine a prediction
incrementally, one ranked user-group at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.recommender import similarity
from repro.recommender.matrix import RatingMatrix
from repro.util.spans import span_indices

__all__ = ["CFPrediction", "CFComponent", "GroupedRatings",
           "SynopsisRatings", "merge_predictions"]


@dataclass
class CFPrediction:
    """Mergeable partial prediction state for one active user.

    ``numer[i]``/``denom[i]`` accumulate the Resnick sums for target item
    ``i``; ``active_mean`` is the active user's own mean rating (the
    fallback prediction when no neighbour rated an item).
    """

    active_mean: float
    numer: dict[int, float] = field(default_factory=dict)
    denom: dict[int, float] = field(default_factory=dict)

    def absorb(self, other: "CFPrediction") -> "CFPrediction":
        """Merge another partial into this one (commutative, associative)."""
        for i, n in other.numer.items():
            self.numer[i] = self.numer.get(i, 0.0) + n
            self.denom[i] = self.denom.get(i, 0.0) + other.denom[i]
        return self

    @staticmethod
    def from_sums(active_mean: float, targets, numer, denom,
                  touched) -> "CFPrediction":
        """The prediction holding ``numer[k]`` / ``denom[k]`` for the
        target ``targets[k]`` of every ``touched`` slot ``k``."""
        pred = CFPrediction(active_mean=active_mean)
        for k in np.flatnonzero(touched).tolist():
            item = int(targets[k])
            pred.numer[item] = float(numer[k])
            pred.denom[item] = float(denom[k])
        return pred

    def predict(self, item: int) -> float:
        """Point prediction for ``item`` given the evidence absorbed so far."""
        den = self.denom.get(item, 0.0)
        if den == 0.0:
            return self.active_mean
        return self.active_mean + self.numer[item] / den

    def predict_many(self, items) -> np.ndarray:
        return np.array([self.predict(int(i)) for i in items])


class CFComponent:
    """One component's share of the recommender: a rating-matrix partition.

    Precomputes user means and the item->raters inverted view once; each
    request then touches only the users it actually scans.
    """

    def __init__(self, matrix: RatingMatrix):
        self.matrix = matrix
        counts = np.diff(matrix.indptr)
        sums = np.zeros(matrix.n_users)
        np.add.at(sums, np.repeat(np.arange(matrix.n_users), counts), matrix.values)
        self.user_means = np.divide(sums, counts, out=np.zeros_like(sums),
                                    where=counts > 0)
        self._raters = matrix.item_raters()

    @property
    def n_users(self) -> int:
        return self.matrix.n_users

    # ------------------------------------------------------------------

    def weights_for(self, active_items, active_vals, user_ids) -> np.ndarray:
        """Pearson weight of the active user vs each user in ``user_ids``.

        Delegates to the vectorized single-pass
        :func:`repro.recommender.similarity.pearson_weights` (resolved
        through the module so benchmarks can swap in the scalar oracle).
        """
        return similarity.pearson_weights(self.matrix, active_items,
                                          active_vals, user_ids)

    def partial_prediction(self, active_items, active_vals, target_items,
                           active_mean: float,
                           user_ids=None) -> CFPrediction:
        """Resnick partial sums over ``user_ids`` (default: all local users).

        Only users who actually rated a target item contribute to that
        item's sums; weight computation is still paid for every scanned
        user, which is what makes exact processing expensive — and is the
        work the synopsis avoids.

        Vectorized: one CSR gather of the contributing users' rows, one
        ``searchsorted`` against the (unique, sorted) target items, and
        ``bincount`` partial sums whose in-order accumulation makes the
        result bit-identical to :meth:`partial_prediction_scalar`.
        """
        if user_ids is None:
            user_ids = np.arange(self.matrix.n_users)
        user_ids = np.asarray(user_ids, dtype=np.int64)
        target_items = [int(i) for i in target_items]
        pred = CFPrediction(active_mean=active_mean)
        if user_ids.size == 0:
            return pred
        weights = self.weights_for(active_items, active_vals, user_ids)
        nz = weights != 0.0
        users_nz = user_ids[nz]
        w_nz = weights[nz]
        targets = (np.unique(np.asarray(target_items, dtype=np.int64))
                   if target_items else np.empty(0, dtype=np.int64))
        if users_nz.size == 0 or targets.size == 0:
            return pred
        idx, lens = similarity._row_entries(self.matrix, users_nz)
        if idx.size == 0:
            return pred
        items = self.matrix.item_ids[idx]
        pos = np.searchsorted(targets, items)
        pos_c = np.minimum(pos, targets.size - 1)
        hit = targets[pos_c] == items
        if not np.any(hit):
            return pred
        seg_h = np.repeat(np.arange(users_nz.size), lens)[hit]
        contrib = w_nz[seg_h] * (self.matrix.values[idx][hit]
                                 - self.user_means[users_nz][seg_h])
        t_pos = pos[hit]
        numer = np.bincount(t_pos, weights=contrib, minlength=targets.size)
        denom = np.bincount(t_pos, weights=np.abs(w_nz)[seg_h],
                            minlength=targets.size)
        touched = np.bincount(t_pos, minlength=targets.size) > 0
        for t in np.flatnonzero(touched).tolist():
            item = int(targets[t])
            pred.numer[item] = float(numer[t])
            pred.denom[item] = float(denom[t])
        return pred

    def partial_prediction_scalar(self, active_items, active_vals,
                                  target_items, active_mean: float,
                                  user_ids=None) -> CFPrediction:
        """Per-user reference loop for :meth:`partial_prediction` (oracle)."""
        if user_ids is None:
            user_ids = np.arange(self.matrix.n_users)
        user_ids = np.asarray(user_ids, dtype=np.int64)
        target_items = [int(i) for i in target_items]
        pred = CFPrediction(active_mean=active_mean)
        if user_ids.size == 0:
            return pred
        weights = similarity.pearson_weights_scalar(
            self.matrix, active_items, active_vals, user_ids)
        target_set = set(target_items)
        for v, w in zip(user_ids, weights):
            if w == 0.0:
                continue
            ids, vals = self.matrix.user_ratings(int(v))
            mean_v = self.user_means[v]
            for item, r in zip(ids.tolist(), vals.tolist()):
                if item in target_set:
                    pred.numer[item] = pred.numer.get(item, 0.0) + w * (r - mean_v)
                    pred.denom[item] = pred.denom.get(item, 0.0) + abs(w)
        return pred

    def raters_of(self, item: int) -> np.ndarray:
        """Local users who rated ``item`` (empty array if none)."""
        return self._raters.get(int(item), np.empty(0, dtype=np.int64))


class GroupedRatings:
    """A component's rating rows laid out group by group, item-major.

    Algorithm 1's second stage scans one ranked group of original users
    at a time.  :meth:`CFComponent.partial_prediction` with
    ``user_ids=members`` gathers the members' CSR rows twice (once for
    the Pearson weights, again for the Resnick sums) and re-derives the
    active user's and the targets' lookup structures on every call.
    This layout stores every group's entries contiguously in (group,
    item, member) order — each entry's rating, its deviation from its
    user's mean and its user's position in the group — behind one
    pointer per (group, item) pair, so a refinement reads only its
    groups' active-item and target columns; :meth:`plan` does the
    per-request work once, and :meth:`partial_sums` refines any number
    of groups in one pass over those spans.

    The sums are bit-identical to the component's: every user's five
    Pearson sums reach ``bincount`` in ascending item order (the CSR
    row order), every (group, target) Resnick sum in ascending member
    order, and the weights are finished by the same
    :func:`similarity._pearson_from_sums`.

    ``groups`` are the synopsis index file's member arrays (sorted user
    ids, disjoint).
    """

    def __init__(self, component: CFComponent, groups):
        matrix = component.matrix
        self.n_items = n_items = matrix.n_items
        self._sizes = np.array([g.size for g in groups], dtype=np.int64)
        users = (np.concatenate(groups).astype(np.int64, copy=False)
                 if groups else np.empty(0, dtype=np.int64))
        idx, lens = similarity._row_entries(matrix, users)
        n_groups = self._sizes.size
        first = np.cumsum(self._sizes) - self._sizes
        member = np.arange(users.size) - np.repeat(first, self._sizes)
        # (group, item) cell of every entry, user-major; a stable sort
        # keeps each cell's members in group order.
        cell = (np.repeat(np.repeat(np.arange(n_groups) * n_items,
                                    self._sizes), lens)
                + matrix.item_ids[idx])
        order = similarity._stable_order(cell, n_groups * n_items)
        vals = matrix.values[idx]
        self._vals = vals[order]
        self._dev = (vals - np.repeat(component.user_means[users],
                                      lens))[order]
        self._member = np.repeat(member, lens)[order]
        # Cell c's entries are _ptr[c]:_ptr[c + 1], c = group * n_items
        # + item.
        self._ptr = np.concatenate(([0], np.cumsum(np.bincount(
            cell, minlength=n_groups * n_items))))

    def plan(self, active_items, active_vals, target_items):
        """The group-independent half of one request, or ``None``.

        ``(columns, active values, target slots, sorted unique
        targets)``: ``columns`` are the in-matrix active items (sorted,
        one value each) followed by the in-matrix targets
        ``targets[slots]`` — the columns :meth:`partial_sums` reads.
        ``None`` marks the requests the vectorised Pearson itself hands
        to other code (duplicate active items, fewer than
        ``MIN_OVERLAP`` of them): callers use
        :meth:`CFComponent.partial_prediction` for those.
        """
        active_items, active_vals = similarity._sorted_active(
            active_items, active_vals)
        if (similarity._has_duplicate_items(active_items)
                or active_items.size < similarity.MIN_OVERLAP):
            return None
        targets = np.unique(np.asarray(list(target_items), dtype=np.int64))
        inside = similarity._in_range(active_items, self.n_items)
        slots = np.arange(targets.size)[
            similarity._in_range(targets, self.n_items)]
        return (np.concatenate((active_items[inside], targets[slots])),
                active_vals[inside], slots, targets)

    def partial_sums(self, plan, group_ids):
        """Resnick partial sums of several groups, one row per group.

        Returns ``(numer, denom, touched)``, each of shape
        ``(len(group_ids), T)`` over the plan's ``T`` sorted unique
        targets: row ``k`` holds group ``group_ids[k]``'s sums, and
        ``touched`` marks the targets some user of the group with a
        non-zero weight rated.  One gather reads the groups' cells of
        the plan's columns, column by column — every group's cell of the
        first active item, then of the next, the targets last.  Each
        user belongs to one group, so its Pearson sums still see its
        items in ascending order, and each (group, target) sum is one
        cell in member order; Pearson is finished for the groups' own
        users only.
        """
        columns, active_vals, target_slots, targets = plan
        group_ids = np.asarray(group_ids, dtype=np.int64)
        k, t = group_ids.size, targets.size
        if not (k and target_slots.size):
            return (np.zeros((k, t)), np.zeros((k, t)),
                    np.zeros((k, t), dtype=bool))
        a = active_vals.size * k   # the Pearson cells come first
        cell = np.add.outer(columns, group_ids * self.n_items).ravel()
        lo = self._ptr[cell]
        lens = self._ptr[cell + 1] - lo
        idx = span_indices(lo, lens)
        # Chunk-local user index: member + its group's row offset.
        sizes = self._sizes[group_ids]
        ends = np.cumsum(sizes)
        user = self._member[idx] + np.repeat(
            (ends - sizes)[np.arange(cell.size) % k], lens)
        split = int(lens[:a].sum())
        xa = self._vals[idx[:split]]
        xb = np.repeat(np.repeat(active_vals, k), lens[:a])
        n_users = int(ends[-1])
        pearson_user = user[:split]
        n = np.bincount(pearson_user, minlength=n_users)
        weights = similarity._pearson_from_sums(
            n, *similarity._sequential_sums(
                pearson_user, n_users, xa, xb, xa * xa, xb * xb, xa * xb))
        # Zero weights add +-0.0 terms, which leave every sum's bits as
        # they are; a target is touched iff its |w| sum is positive.
        w = weights[user[split:]]
        # One bin per (row, target): row-major keys keep rows apart.
        key = np.repeat(np.add.outer(target_slots, np.arange(k) * t).ravel(),
                        lens[a:])
        numer = np.bincount(key, weights=w * self._dev[idx[split:]],
                            minlength=k * t)
        denom = np.bincount(key, weights=np.abs(w), minlength=k * t)
        return (numer.reshape(k, t), denom.reshape(k, t),
                denom.reshape(k, t) > 0.0)

    def partial_prediction(self, plan, group_id: int,
                           active_mean: float) -> CFPrediction:
        """Resnick partial sums over group ``group_id``'s users: the
        one-group case of :meth:`partial_sums`.

        Equal to ``component.partial_prediction(..., user_ids=members)``
        for the request ``plan`` was made from.
        """
        numer, denom, touched = self.partial_sums(plan, [group_id])
        return CFPrediction.from_sums(active_mean, plan[3], numer[0],
                                      denom[0], touched[0])


class SynopsisRatings:
    """A CF synopsis payload's ratings, indexed for Algorithm 1's stage 1.

    Stage 1 weighs every aggregated user against the active user, then
    reads the aggregated ratings of the request's few target items.
    Built once per published synopsis: the payload matrix item-major
    (:class:`similarity.ItemColumns`), plus each entry's deviation from
    its user's mean, so both the Pearson weights and the target reads
    touch only the request's own columns.
    """

    def __init__(self, payload: CFComponent):
        self.matrix = payload.matrix
        self._columns = similarity.ItemColumns(payload.matrix)
        self._col_dev = (self._columns.vals
                         - payload.user_means[self._columns.user])

    def weights(self, actives) -> np.ndarray:
        """Equal to ``similarity.pearson_weights_batch(matrix, actives)``."""
        return self._columns.pearson_weights(actives)

    def target_entries(self, targets: np.ndarray):
        """``(users, slots, deviations)`` of every rating of the sorted
        ``targets``; ``slots`` index ``targets``.  Targets outside the
        matrix have no ratings."""
        inside = similarity._in_range(targets, self.matrix.n_items)
        idx, lens = self._columns.spans(targets[inside])
        slots = np.arange(targets.size)[inside]
        return (self._columns.user[idx], np.repeat(slots, lens),
                self._col_dev[idx])


def merge_predictions(parts, active_mean: float | None = None) -> CFPrediction:
    """Merge partial predictions from many components into one.

    ``active_mean`` defaults to the first part's mean (all parts of one
    request share the same active user).
    """
    parts = list(parts)
    if not parts:
        if active_mean is None:
            raise ValueError("merge of zero parts needs an explicit active_mean")
        return CFPrediction(active_mean=active_mean)
    merged = CFPrediction(active_mean=active_mean if active_mean is not None
                          else parts[0].active_mean)
    for p in parts:
        merged.absorb(p)
    return merged
