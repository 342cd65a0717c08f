"""Pearson correlation weights between an active user and stored users.

Pearson's correlation coefficient over co-rated items is the paper's CF
weight measure (§3.2) *and* its correlation-to-result-accuracy estimate
for aggregated users (§2.3): processing an aggregated user's Pearson
weight predicts how much its member users will improve the prediction.

Bit-identity contract
=====================

Every entry point here — scalar :func:`pearson`, the per-user-loop
:func:`pearson_weights_scalar`, the vectorized :func:`pearson_weights`
and the multi-request column kernel :func:`pearson_weights_batch` /
:meth:`ItemColumns.pearson_weights` — computes r from the same five
sufficient sums ``(Σa, Σb, Σa², Σb², Σab)`` over the co-rated overlap,
accumulated *strictly sequentially in ascending item order* via
``np.bincount`` and finished by the shared elementwise
:func:`_pearson_from_sums`.  The CSR paths filter each user's row
(items ascending); the column kernel gathers the active items' columns
in ascending item order, so every user's overlap reaches its bin in the
same order.  Because both the accumulation order and the finishing
arithmetic are identical, the vectorized paths return bit-identical
floats to the scalar loop — which is what lets the serving layer treat
batched and unbatched execution as interchangeable.
"""

from __future__ import annotations

import numpy as np

from repro.util.spans import span_indices

__all__ = [
    "pearson",
    "pearson_weights",
    "pearson_weights_scalar",
    "pearson_weights_batch",
    "ItemColumns",
]

# Below this many co-rated items a Pearson estimate is statistically
# meaningless; standard CF practice treats such pairs as uncorrelated.
MIN_OVERLAP = 2

def _sequential_sums(seg_ids, n_segments: int, *columns):
    """Per-segment sums of each column, accumulated in input order.

    ``np.bincount`` adds ``weights[i]`` into its bin one element at a
    time, front to back — the accumulation order is the *input* order,
    not a pairwise tree.  Both the scalar and the vectorized Pearson
    paths funnel through here so their partial sums round identically.
    """
    return tuple(
        np.bincount(seg_ids, weights=col, minlength=n_segments)
        for col in columns
    )


def _pearson_from_sums(n, sa, sb, saa, sbb, sab):
    """Pearson r from overlap-count + five sufficient sums (elementwise).

    ``r = (Σab - ΣaΣb/n) / sqrt((Σa² - (Σa)²/n)(Σb² - (Σb)²/n))``,
    clamped to [-1, 1]; 0.0 when the overlap is below
    :data:`MIN_OVERLAP` or either side is (numerically) constant on the
    overlap.  Works on scalars and arrays alike; every caller uses this
    one implementation so the finishing arithmetic is shared.
    """
    n = np.asarray(n, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        num = sab - sa * sb / n
        var_a = saa - sa * sa / n
        var_b = sbb - sb * sb / n
        denom = np.sqrt(var_a * var_b)
        ok = denom > 0.0
        r = np.where(ok, num / np.where(ok, denom, 1.0), 0.0)
    # Clamp float noise so downstream |w|<=1 assumptions hold exactly.
    r = np.minimum(1.0, np.maximum(-1.0, r))
    return np.where(n >= MIN_OVERLAP, r, 0.0)


def pearson(items_a, vals_a, items_b, vals_b) -> float:
    """Pearson correlation of two users over their co-rated items.

    Inputs are (sorted item-id array, rating array) pairs as returned by
    :meth:`repro.recommender.matrix.RatingMatrix.user_ratings`.  Returns
    0.0 when the overlap is smaller than :data:`MIN_OVERLAP` or either
    side is constant on the overlap (undefined correlation).
    """
    items_a = np.asarray(items_a)
    items_b = np.asarray(items_b)
    ia = np.searchsorted(items_a, items_b)
    mask = (ia < items_a.size)
    mask[mask] &= items_a[ia[mask]] == items_b[mask]
    n = int(np.count_nonzero(mask))
    if n < MIN_OVERLAP:
        return 0.0
    xa = np.asarray(vals_a, dtype=float)[ia[mask]]
    xb = np.asarray(vals_b, dtype=float)[mask]
    zeros = np.zeros(n, dtype=np.intp)
    sa, sb, saa, sbb, sab = _sequential_sums(
        zeros, 1, xa, xb, xa * xa, xb * xb, xa * xb)
    return float(_pearson_from_sums(n, sa[0], sb[0], saa[0], sbb[0], sab[0]))


def _materialize_users(matrix, user_ids) -> np.ndarray:
    """User ids as an int64 array, consuming iterators exactly once."""
    if user_ids is None:
        return np.arange(matrix.n_users, dtype=np.int64)
    if not hasattr(user_ids, "__len__"):
        user_ids = list(user_ids)
    return np.asarray(user_ids, dtype=np.int64)


def _sorted_active(active_items, active_vals):
    active_items = np.asarray(active_items, dtype=np.int64)
    active_vals = np.asarray(active_vals, dtype=float)
    if active_items.size > 1 and np.any(np.diff(active_items) < 0):
        order = np.argsort(active_items, kind="stable")
        active_items, active_vals = active_items[order], active_vals[order]
    return active_items, active_vals


def _row_entries(matrix, users):
    """``(entry indices, row lengths)`` of ``users``' CSR rows, in order.

    ``matrix.item_ids[idx]`` / ``matrix.values[idx]`` are the users'
    rating rows laid end to end; ``lens[k]`` entries belong to
    ``users[k]``.
    """
    starts = matrix.indptr[users]
    lens = matrix.indptr[users + 1] - starts
    return span_indices(starts, lens), lens


def _stable_order(keys, n_keys: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, n_keys)``.

    Keys that fit 16 bits are sorted as ``uint16``, which numpy sorts
    stably by radix in linear time (several times faster than the merge
    sort it uses for wider integers); the order is the same.
    """
    if n_keys <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _in_range(sorted_items, n_items: int) -> slice:
    """The slice of ascending ``sorted_items`` that lies in
    ``[0, n_items)``: the items a matrix with ``n_items`` columns has."""
    if not sorted_items.size or (sorted_items[0] >= 0
                                 and sorted_items[-1] < n_items):
        return slice(None)
    return slice(*np.searchsorted(sorted_items, (0, n_items)).tolist())


def _has_duplicate_items(active_items) -> bool:
    return active_items.size > 1 and bool(
        np.any(active_items[1:] == active_items[:-1]))


def pearson_weights_scalar(matrix, active_items, active_vals,
                           user_ids=None) -> np.ndarray:
    """Per-user Python-loop reference for :func:`pearson_weights`.

    Kept as the oracle the vectorized path is tested against (and as the
    fallback for inputs the vectorized intersection does not model, e.g.
    duplicate active item ids).
    """
    users = _materialize_users(matrix, user_ids)
    active_items, active_vals = _sorted_active(active_items, active_vals)
    out = np.empty(users.size)
    for k, u in enumerate(users.tolist()):
        ids, vals = matrix.user_ratings(int(u))
        out[k] = pearson(ids, vals, active_items, active_vals)
    return out


def pearson_weights(matrix, active_items, active_vals,
                    user_ids=None) -> np.ndarray:
    """Pearson weight of the active user against each user of ``matrix``.

    Single vectorized pass over the CSR layout: gather the requested
    users' rating rows, intersect item ids with the active user's via one
    ``searchsorted``, reduce the five sufficient sums per user with
    ``bincount``, and finish elementwise — no per-user Python loop.
    Bit-identical to :func:`pearson_weights_scalar`.

    Parameters
    ----------
    matrix:
        A :class:`repro.recommender.matrix.RatingMatrix`.
    active_items, active_vals:
        The active user's (sorted) rated item ids and ratings.
    user_ids:
        Optional subset of matrix users to score (default: all users).
        Iterators/generators are materialized exactly once.

    Returns
    -------
    numpy.ndarray
        Weight per requested user, in ``user_ids`` order.
    """
    users = _materialize_users(matrix, user_ids)
    active_items, active_vals = _sorted_active(active_items, active_vals)
    if _has_duplicate_items(active_items):
        # Duplicate active ids make the overlap direction ambiguous; the
        # scalar loop defines the semantics, so defer to it.
        return pearson_weights_scalar(matrix, active_items, active_vals, users)
    if users.size == 0 or active_items.size < MIN_OVERLAP:
        return np.zeros(users.size)
    idx, lens = _row_entries(matrix, users)
    if idx.size == 0:
        return np.zeros(users.size)
    items = matrix.item_ids[idx]
    vals = matrix.values[idx]
    seg = np.repeat(np.arange(users.size), lens)
    pos = np.searchsorted(active_items, items)
    pos_c = np.minimum(pos, active_items.size - 1)
    hit = active_items[pos_c] == items
    xa = vals[hit]
    xb = active_vals[pos_c[hit]]
    seg_h = seg[hit]
    n = np.bincount(seg_h, minlength=users.size)
    sa, sb, saa, sbb, sab = _sequential_sums(
        seg_h, users.size, xa, xb, xa * xa, xb * xb, xa * xb)
    return _pearson_from_sums(n, sa, sb, saa, sbb, sab)


def pearson_weights_batch(matrix, actives) -> np.ndarray:
    """Weights of several active users against *every* user of ``matrix``.

    ``actives`` is a sequence of ``(active_items, active_vals)`` pairs.
    Returns an array of shape ``(len(actives), matrix.n_users)`` whose
    row *r* is bit-identical to ``pearson_weights(matrix, *actives[r])``.
    The column kernel :meth:`ItemColumns.pearson_weights` over a
    one-off item-major view of ``matrix``; callers that weigh many
    batches against one matrix keep the :class:`ItemColumns`.
    """
    return ItemColumns(matrix).pearson_weights(actives)


class ItemColumns:
    """A rating matrix's entries item-major: CSC order, each item's
    raters in ascending user order.

    ``ptr[i]:ptr[i + 1]`` are item ``i``'s entries; ``user`` and
    ``vals`` hold their users and ratings.  Built once per matrix, so a
    request reads only the columns of its own items.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        order = _stable_order(matrix.item_ids, matrix.n_items)
        self.user = np.repeat(np.arange(matrix.n_users),
                              np.diff(matrix.indptr))[order]
        self.vals = matrix.values[order]
        self.ptr = np.concatenate(([0], np.cumsum(np.bincount(
            matrix.item_ids, minlength=matrix.n_items))))

    def spans(self, items):
        """``(entry indices, lengths)`` of the columns of ``items`` (all
        inside the matrix), laid end to end in ``items`` order;
        ``lens[k]`` entries belong to ``items[k]``."""
        lo = self.ptr[items]
        lens = self.ptr[items + 1] - lo
        return span_indices(lo, lens), lens

    def pearson_weights(self, actives) -> np.ndarray:
        """:func:`pearson_weights_batch` over this view's matrix.

        Every clean request's active columns are gathered in ascending
        item order and the whole batch is reduced by one ``bincount`` per
        sum over ``(request, user)`` bins, so each user's overlap still
        reaches its bin in ascending item order: the order the CSR
        intersection of :func:`pearson_weights` feeds it in.
        """
        matrix = self.matrix
        n_users = matrix.n_users
        out = np.zeros((len(actives), n_users))
        rows, items, vals = [], [], []
        for r, (a_items, a_vals) in enumerate(actives):
            a_items, a_vals = _sorted_active(a_items, a_vals)
            if _has_duplicate_items(a_items):
                out[r] = pearson_weights(matrix, a_items, a_vals)
            elif a_items.size >= MIN_OVERLAP:
                inside = _in_range(a_items, matrix.n_items)
                rows.append(r)
                items.append(a_items[inside])
                vals.append(a_vals[inside])
        if not rows or n_users == 0:
            return out
        idx, lens = self.spans(np.concatenate(items))
        seg = self.user[idx]
        if len(rows) > 1:
            per_row = [a.size for a in items]
            seg = seg + np.repeat(np.repeat(
                np.arange(len(rows)) * n_users, per_row), lens)
        xa = self.vals[idx]
        xb = np.repeat(np.concatenate(vals), lens)
        bins = len(rows) * n_users
        n = np.bincount(seg, minlength=bins)
        sums = _sequential_sums(seg, bins, xa, xb, xa * xa, xb * xb, xa * xb)
        out[rows] = _pearson_from_sums(n, *sums).reshape(len(rows), n_users)
        return out
