"""The epoch-versioned state plane: where component snapshots live.

Serving separates two planes.  The *request plane* moves small, cheap
objects — requests, deadlines, clocks — once per request.  The *state
plane* moves big, expensive objects — each component's ``(partition,
synopsis)`` pair — and should move them once per **update**, not once
per request.  This module is the state plane's home:

- :class:`ComponentState` — one component's immutable published
  snapshot, a ``(partition, synopsis)`` pair never mutated after
  publication (copy-on-swap).
- :class:`StateStore` — publishes snapshots tagged with monotonically
  increasing :data:`StateEpoch` ids.  ``publish`` is the only write;
  readers see either the previous epoch or the new one, never a torn
  mix.  A bounded per-component history keeps recently superseded
  epochs resolvable for requests still draining against them.
- :class:`StateRef` — a by-reference handle ``(store, component,
  epoch)`` that execution backends resolve at run time.  Refs *pin*
  their snapshot: a ref taken at dispatch always resolves to exactly
  the dispatch-time state, even if the store has since evicted that
  epoch from its history — so an in-flight request can never observe a
  newer (or torn) state than the one it was dispatched against.

Execution backends consume refs differently:

- in-process backends (sequential / thread / async) resolve a ref to
  its pinned published snapshot — a pointer indirection, no copies, no
  locks on the per-task hot path;
- :class:`~repro.serving.transport.RemoteBackend`, the one
  out-of-process backend, ships a snapshot to its worker processes at
  most once per epoch and sends only the small detached ref per task
  (state cost scales with *update* rate, not request rate); consecutive
  epochs travel as **deltas** (see :func:`compute_delta` /
  :func:`apply_delta` below), so state traffic scales with *update
  size*, not synopsis size.  A live ref never pickles (the store holds
  a lock), so no path copies a snapshot into a task by accident.

Delta epochs
------------

:func:`compute_delta` diffs two serialized snapshots at the byte level
with content-defined chunking (CDC): each blob is cut at positions
where a rolling fingerprint of the trailing window matches a mask, so
chunk boundaries depend only on local content and re-synchronise after
insertions/deletions.  The delta replays the target as copy-ops (a
16-byte digest naming a chunk the receiver already holds in the base)
plus literal runs (bytes only the target has).  A byte-level diff was
chosen over a structured synopsis diff deliberately: the update API
replaces *partitions* wholesale (``add_points`` / ``change_points`` /
``replace_partition`` all pass the full new partition), so only a
representation-agnostic diff covers both halves of a
:class:`ComponentState` — and the synopsis updater's re-aggregation
touches only changed group vectors, which is exactly the locality CDC
recovers from the pickled bytes.  :func:`apply_delta` verifies chunk
digests and a whole-blob checksum, so a reconstructed snapshot is
**bit-identical** to the published one or the transfer fails loudly.

Semantic deltas
---------------

CDC is content-agnostic: it rediscovers an update's locality from the
pickled bytes.  But the synopsis updater already *knows* which group
slots it re-aggregated — :class:`~repro.core.updater.UpdateReport`
carries them — so when a publish attaches an :class:`UpdateHint`, the
wire tier can build a :func:`compute_semantic_delta` instead: ship only
the changed group vectors (plus a partition diff) and let the receiver
re-assemble the synopsis from its base copy.  Semantic deltas are
verified end-to-end twice — the sender replays
:func:`apply_semantic_delta` against the base blob and falls back to
CDC unless the reconstruction is byte-equal to the target, and the
receiver checks the whole-blob digest — so they are an optimisation,
never a correctness risk.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.synopsis import IndexFile, Synopsis

__all__ = ["StateEpoch", "ComponentState", "StateRef", "StateStore",
           "StaleEpochError", "StateDelta", "DeltaMismatchError",
           "blob_digest", "chunk_blob", "compute_delta", "apply_delta",
           "PICKLE_PROTOCOL", "UpdateHint", "SemanticDelta",
           "compute_semantic_delta", "apply_semantic_delta"]

# Every serialized snapshot (and every wire frame) is pickled with this
# pinned protocol so sender- and receiver-side re-serialisations of the
# same object graph produce the same bytes — the property semantic-delta
# digest verification relies on.  Pinned rather than "whatever the
# interpreter defaults to" so mixed-version deployments agree.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

# Epoch ids are plain ints: one per-store counter, strictly increasing
# across *all* components, so epoch order is publication order.
StateEpoch = int


class StaleEpochError(KeyError):
    """The requested epoch has been evicted from the store's history."""


@dataclass(frozen=True)
class ComponentState:
    """Immutable published state of one component.

    Requests capture one reference to this pair; updates replace the
    whole object rather than mutating it (copy-on-swap).
    """

    partition: Any
    synopsis: Synopsis


@dataclass(frozen=True)
class StateRef:
    """A by-reference handle to one published component snapshot.

    ``store`` is the in-process handle used for resolution; ``pinned``
    is the snapshot current when the ref was taken, kept so resolution
    never fails for a ref outliving the store's bounded history.  A
    *detached* ref (``store is None``, ``pinned is None``) carries only
    the identity triple and pickles to a few dozen bytes — the form the
    remote backend ships per task, resolved worker-side from a
    per-epoch cache.
    """

    store_id: str
    component: int
    epoch: StateEpoch
    store: "StateStore | None" = field(default=None, repr=False,
                                       compare=False)
    pinned: ComponentState | None = field(default=None, repr=False,
                                          compare=False)

    @property
    def key(self) -> tuple[str, int, StateEpoch]:
        """Globally unique identity of the referenced snapshot."""
        return (self.store_id, self.component, self.epoch)

    def detached(self) -> "StateRef":
        """The identity-only form of this ref (picklable, tiny)."""
        return StateRef(store_id=self.store_id, component=self.component,
                        epoch=self.epoch)

    def resolve(self) -> ComponentState:
        """The referenced snapshot — always the dispatch-time state.

        The pinned snapshot *is* the published one (``StateStore.ref``
        captures ``(epoch, state)`` atomically and snapshots are
        immutable), so resolution is lock-free on the per-task hot
        path; pinless refs go through the store's history.  Detached
        refs cannot self-resolve — the remote backend's workers resolve
        them against their epoch cache.
        """
        if self.pinned is not None:
            return self.pinned
        if self.store is not None:
            return self.store.get(self.component, self.epoch)
        raise StaleEpochError(
            f"detached ref {self.key} cannot resolve in-process; "
            "remote workers resolve it from their epoch cache")


@dataclass(frozen=True)
class UpdateHint:
    """What an epoch transition changed, in synopsis terms.

    Attached to :meth:`StateStore.publish` by the service layer when the
    new snapshot came out of the incremental updater.  ``reaggregated``
    lists the group slots (indices into the *new* synopsis's group
    order) whose aggregates were recomputed; ``index_changed`` says the
    group membership layout differs from the previous epoch.  The wire
    state plane uses the hint to build semantic deltas; publishes
    without a hint (e.g. ``replace_partition``) simply fall back to
    content-defined byte deltas.
    """

    reaggregated: tuple = ()
    index_changed: bool = False


class StateStore:
    """Publishes immutable per-component snapshots under epoch ids.

    One store backs one service deployment: ``publish`` swaps in a new
    :class:`ComponentState` for a component and returns its fresh
    :data:`StateEpoch`; ``ref`` hands out pinned references for
    dispatch.  All operations are thread-safe, and a publish is a
    single swap under the store lock — concurrent readers observe the
    old epoch or the new one, never a mix.

    Parameters
    ----------
    retain:
        Superseded epochs kept resolvable per component (beyond the
        current one).  Bounds store memory under sustained updates;
        refs pinned to older epochs still resolve via their own pin,
        so eviction can never break an in-flight request.
    """

    def __init__(self, retain: int = 8):
        if retain < 0:
            raise ValueError("retain must be non-negative")
        self.store_id = uuid.uuid4().hex
        self.retain = int(retain)
        self._lock = threading.Lock()
        self._epoch_counter = 0
        # component -> epoch -> state, oldest epoch first.
        self._history: dict[int, OrderedDict[StateEpoch, ComponentState]] = {}
        # component -> epoch -> (previous epoch | None, UpdateHint | None),
        # bounded alongside the history; lets transition_hint() recover
        # the semantic chain between two resolvable epochs.
        self._transitions: dict[
            int, OrderedDict[StateEpoch,
                             tuple[StateEpoch | None, UpdateHint | None]]] = {}

    # ------------------------------------------------------------------

    @property
    def n_components(self) -> int:
        return len(self._history)

    def components(self) -> list[int]:
        with self._lock:
            return sorted(self._history)

    def publish(self, component: int, state: ComponentState,
                hint: "UpdateHint | None" = None) -> StateEpoch:
        """Swap in ``state`` as ``component``'s current snapshot.

        Returns the new snapshot's epoch id.  Epochs increase strictly
        across all components of this store, so they double as a total
        order on updates.  ``hint``, when given, describes what this
        transition changed semantically (see :class:`UpdateHint`);
        backends query it back via :meth:`transition_hint`.
        """
        if not isinstance(state, ComponentState):
            raise TypeError(f"expected a ComponentState, got {state!r}")
        with self._lock:
            self._epoch_counter += 1
            epoch = self._epoch_counter
            history = self._history.setdefault(int(component), OrderedDict())
            prev = next(reversed(history)) if history else None
            history[epoch] = state
            while len(history) > self.retain + 1:
                history.popitem(last=False)
            transitions = self._transitions.setdefault(int(component),
                                                       OrderedDict())
            transitions[epoch] = (prev, hint)
            while len(transitions) > self.retain + 1:
                transitions.popitem(last=False)
            return epoch

    def current(self, component: int) -> tuple[StateEpoch, ComponentState]:
        """``component``'s current ``(epoch, state)`` pair."""
        with self._lock:
            history = self._require(component)
            epoch = next(reversed(history))
            return epoch, history[epoch]

    def current_epoch(self, component: int) -> StateEpoch:
        return self.current(component)[0]

    def current_state(self, component: int) -> ComponentState:
        return self.current(component)[1]

    def get(self, component: int, epoch: StateEpoch) -> ComponentState:
        """The snapshot ``component`` published as ``epoch``.

        Raises :class:`StaleEpochError` if the epoch has been evicted
        from the bounded history (or never existed).
        """
        with self._lock:
            history = self._require(component)
            state = history.get(epoch)
        if state is None:
            raise StaleEpochError(
                f"component {component} epoch {epoch} is not in the "
                f"store's history (retain={self.retain})")
        return state

    def ref(self, component: int) -> StateRef:
        """A pinned reference to ``component``'s current snapshot."""
        epoch, state = self.current(component)
        return StateRef(store_id=self.store_id, component=int(component),
                        epoch=epoch, store=self, pinned=state)

    def epochs(self, component: int) -> list[StateEpoch]:
        """Epochs currently resolvable for ``component``, oldest first."""
        with self._lock:
            return list(self._require(component))

    def transition_hint(self, component: int, base_epoch: StateEpoch,
                        target_epoch: StateEpoch) -> "UpdateHint | None":
        """The composed semantic hint for ``base_epoch → target_epoch``.

        Walks the recorded transition chain backwards from the target.
        A single hinted step returns its hint verbatim (slot indices
        refer to the target's group order, so ``index_changed`` steps
        are still usable).  Multiple steps compose only when *no* step
        changed the membership layout — otherwise intermediate slot
        numbering is meaningless for the target order — by unioning the
        re-aggregated slots.  Returns ``None`` whenever the chain is
        broken, un-hinted, or not safely composable; callers then fall
        back to content-defined byte deltas.
        """
        with self._lock:
            transitions = self._transitions.get(int(component))
            if not transitions:
                return None
            hints: list[UpdateHint] = []
            epoch = target_epoch
            for _ in range(len(transitions) + 1):
                if epoch == base_epoch:
                    break
                entry = transitions.get(epoch)
                if entry is None:
                    return None
                prev, hint = entry
                if prev is None or hint is None:
                    return None
                hints.append(hint)
                epoch = prev
            else:
                return None
        if not hints:
            return None  # base == target: nothing to ship
        if len(hints) == 1:
            return hints[0]
        if any(h.index_changed for h in hints):
            return None
        slots: set[int] = set()
        for h in hints:
            slots.update(int(s) for s in h.reaggregated)
        return UpdateHint(reaggregated=tuple(sorted(slots)),
                          index_changed=False)

    # ------------------------------------------------------------------

    def _require(self, component: int) -> OrderedDict:
        history = self._history.get(int(component))
        if not history:
            raise KeyError(f"component {component} has no published state")
        return history


# ---------------------------------------------------------------------------
# Delta epochs: content-defined binary diffs between serialized snapshots
# ---------------------------------------------------------------------------

# Rolling-fingerprint parameters.  A boundary is declared after any
# _CDC_WINDOW-byte window whose fingerprint matches _CDC_MASK (one
# candidate every ~1 KiB of content on average); _CDC_MIN / _CDC_MAX
# bound realized chunk sizes.  The fingerprint is a windowed sum of
# per-byte random 64-bit values (mod 2^64) — shift-invariant, so
# boundaries depend only on the window's content and re-synchronise
# after inserted or deleted bytes.
_CDC_WINDOW = 48
_CDC_MASK = np.uint64((1 << 10) - 1)
_CDC_MIN = 256
_CDC_MAX = 8192
_CDC_TABLE = np.random.default_rng(0x5EED).integers(
    0, 1 << 64, size=256, dtype=np.uint64)
_DIGEST_SIZE = 16


class DeltaMismatchError(ValueError):
    """A delta was applied against the wrong base, or arrived corrupted."""


def blob_digest(blob: bytes) -> bytes:
    """The whole-blob checksum deltas verify against (blake2b-128)."""
    return hashlib.blake2b(blob, digest_size=_DIGEST_SIZE).digest()


def _chunk_spans(blob: bytes) -> list[tuple[int, int]]:
    """Content-defined ``(start, end)`` spans covering ``blob``."""
    n = len(blob)
    if n == 0:
        return []
    if n <= _CDC_MIN:
        return [(0, n)]
    data = np.frombuffer(blob, dtype=np.uint8)
    values = _CDC_TABLE[data]
    totals = np.cumsum(values, dtype=np.uint64)  # wraps mod 2^64 by design
    windows = totals[_CDC_WINDOW - 1:].copy()
    windows[1:] -= totals[:-_CDC_WINDOW]
    # Candidate cut positions (exclusive ends), sparse by construction.
    cuts = np.nonzero((windows & _CDC_MASK) == _CDC_MASK)[0] + _CDC_WINDOW
    spans: list[tuple[int, int]] = []
    pos = 0
    j = 0
    while pos < n:
        lo, hi = pos + _CDC_MIN, pos + _CDC_MAX
        while j < cuts.size and cuts[j] < lo:
            j += 1
        if j < cuts.size and cuts[j] <= hi:
            cut = int(cuts[j])
            j += 1
        else:
            cut = min(hi, n)
        spans.append((pos, cut))
        pos = cut
    return spans


def chunk_blob(blob: bytes) -> list[tuple[bytes, bytes]]:
    """``(digest, bytes)`` content-defined chunks of ``blob``, in order."""
    return [(hashlib.blake2b(blob[s:e], digest_size=_DIGEST_SIZE).digest(),
             blob[s:e])
            for s, e in _chunk_spans(blob)]


@dataclass(frozen=True)
class StateDelta:
    """A verified byte-level diff from one serialized snapshot to another.

    ``ops`` replays the target left to right: ``("c", digest)`` copies
    the base chunk with that digest; ``("d", bytes)`` inserts literal
    bytes (consecutive literals are coalesced).  ``base_digest`` /
    ``target_digest`` pin both endpoints, so :func:`apply_delta` either
    reconstructs the target bit-identically or raises.
    """

    base_digest: bytes
    target_digest: bytes
    target_size: int
    ops: tuple

    @property
    def literal_bytes(self) -> int:
        """Bytes that travel verbatim (the actual change size)."""
        return sum(len(op[1]) for op in self.ops if op[0] == "d")

    def wire_cost(self) -> int:
        """Approximate serialized size: literals plus per-op overhead."""
        return self.literal_bytes + 24 * len(self.ops) + 2 * _DIGEST_SIZE


def compute_delta(base: bytes, target: bytes) -> StateDelta:
    """Diff ``base`` → ``target`` over content-defined chunks.

    Any target chunk whose digest appears in the base becomes a copy
    op; everything else travels as literal bytes.  An unchanged prefix
    and suffix therefore cost one digest per ~1 KiB chunk, and the
    literal payload scales with the size of the actual edit — the
    property the socket state plane needs (state traffic ~ update
    size, not synopsis size).
    """
    base_digests = {digest for digest, _ in chunk_blob(base)}
    ops: list[tuple] = []
    literal = bytearray()
    for digest, chunk in chunk_blob(target):
        if digest in base_digests:
            if literal:
                ops.append(("d", bytes(literal)))
                literal = bytearray()
            ops.append(("c", digest))
        else:
            literal.extend(chunk)
    if literal:
        ops.append(("d", bytes(literal)))
    return StateDelta(base_digest=blob_digest(base),
                      target_digest=blob_digest(target),
                      target_size=len(target), ops=tuple(ops))


def apply_delta(base: bytes, delta: StateDelta) -> bytes:
    """Reconstruct the target blob from ``base`` + ``delta``.

    Raises :class:`DeltaMismatchError` unless ``base`` matches the
    delta's recorded base digest, every copy op resolves, and the
    reconstruction matches the recorded target digest and size —
    the bit-identity guarantee of the wire state plane.
    """
    if blob_digest(base) != delta.base_digest:
        raise DeltaMismatchError(
            "delta applied against the wrong base blob (digest mismatch)")
    chunks = {digest: chunk for digest, chunk in chunk_blob(base)}
    out = bytearray()
    for op in delta.ops:
        if op[0] == "c":
            chunk = chunks.get(op[1])
            if chunk is None:
                raise DeltaMismatchError(
                    "delta copies a chunk the base does not contain")
            out.extend(chunk)
        elif op[0] == "d":
            out.extend(op[1])
        else:
            raise DeltaMismatchError(f"unknown delta op {op[0]!r}")
    result = bytes(out)
    if len(result) != delta.target_size or \
            blob_digest(result) != delta.target_digest:
        raise DeltaMismatchError(
            "delta reconstruction does not match the target checksum")
    return result


# ---------------------------------------------------------------------------
# Semantic deltas: ship only the group vectors an update actually changed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemanticDelta:
    """A structured diff between two serialized :class:`ComponentState`\\ s.

    Instead of replaying target *bytes* (CDC), the receiver re-assembles
    the target *object*: reconstruct the partition (``partition`` op),
    recover unchanged group vectors from its base copy of the payload
    via :meth:`~repro.core.adapters.ServiceAdapter.payload_group_vector`,
    take the ``changed`` vectors off the wire, and run the adapter's
    ``assemble_payload``.  For a small edit this costs a few group
    vectors plus a small partition diff, well below a CDC delta (which
    must carry every pickled byte the edit perturbed, pickle framing
    included).

    Verification is two-layered.  The *sender* replays the
    reconstruction itself (:func:`compute_semantic_delta`) and checks
    the result **value-equal** to the published target — index file,
    every recovered group vector (order included), and a byte-pinned
    partition — falling back to CDC on any disagreement.  The
    ``target_digest`` then pins the sender's replay output, so the
    *receiver*'s reconstruction either matches the sender's replay
    byte-for-byte or :func:`apply_semantic_delta` raises.  The applied
    blob (identical on both sides) becomes the base for subsequent
    deltas.  It is not byte-identical to the sender's own pickled
    snapshot — pickle memoisation makes that unattainable — but it
    deserialises to a value-equal state, which is what bit-identical
    *serving results* require.
    """

    adapter: Any                 # stateless ServiceAdapter; pickles tiny
    n_groups: int                # target synopsis group count
    changed: dict                # slot -> target group vector
    groups: tuple | None         # target memberships; None = same as base
    partition: tuple             # ("same", None) | ("delta", StateDelta)
    #                            | ("full", bytes)
    level: int                   # target synopsis level
    n_original: int              # target synopsis n_original
    meta: dict                   # target synopsis meta
    base_digest: bytes
    target_digest: bytes         # digest of the sender's replay output
    target_size: int


def _group_vectors_equal(a, b) -> bool:
    """Value equality for opaque group vectors, iteration order included.

    Order matters: ``assemble_payload`` consumes vectors by iteration,
    so two bags with equal contents but different order can build
    payloads whose float accumulation order differs downstream.
    """
    if isinstance(a, tuple) and isinstance(b, tuple):
        return (len(a) == len(b)
                and all(np.array_equal(np.asarray(x), np.asarray(y))
                        for x, y in zip(a, b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a.items()) == list(b.items())
    return bool(a == b)


def _assemble_semantic(base_blob: bytes, delta: SemanticDelta) -> bytes:
    """The reconstruction both sides run; no final digest check."""
    base_state: ComponentState = pickle.loads(base_blob)
    adapter = delta.adapter
    kind, arg = delta.partition
    if kind == "same":
        partition = base_state.partition
    elif kind == "delta":
        p_base = pickle.dumps(base_state.partition, PICKLE_PROTOCOL)
        partition = pickle.loads(apply_delta(p_base, arg))
    elif kind == "full":
        partition = pickle.loads(arg)
    else:
        raise DeltaMismatchError(f"unknown partition op {kind!r}")
    if delta.groups is not None:
        groups = list(delta.groups)
    else:
        groups = base_state.synopsis.index.groups()
        if len(groups) != delta.n_groups:
            raise DeltaMismatchError(
                "semantic delta group count disagrees with the base index")
    base_payload = base_state.synopsis.payload
    vectors = [delta.changed[i] if i in delta.changed
               else adapter.payload_group_vector(base_payload, i)
               for i in range(delta.n_groups)]
    synopsis = Synopsis(index=IndexFile(groups),
                        payload=adapter.assemble_payload(partition, vectors),
                        level=delta.level, n_original=delta.n_original,
                        meta=dict(delta.meta))
    return pickle.dumps(ComponentState(partition=partition, synopsis=synopsis),
                        PICKLE_PROTOCOL)


def compute_semantic_delta(adapter, base_blob: bytes,
                           target_state: ComponentState,
                           hint: UpdateHint) -> tuple[SemanticDelta, bytes] | None:
    """Build a verified ``(delta, applied_blob)`` pair, or ``None``.

    ``base_blob`` is the serialized snapshot the receiver holds.
    ``hint.reaggregated`` marks slots whose vectors were recomputed with
    unchanged membership; membership-changed slots are found here by
    comparing the two index files directly.  The candidate delta is
    replayed against ``base_blob`` and kept only if the reconstruction
    is value-equal to ``target_state`` (see :class:`SemanticDelta`);
    ``applied_blob`` is that replay output — exactly the bytes the
    receiver will end up holding.  Any surprise (un-invertible payload,
    recovered-vector mismatch, broken adapter) returns ``None`` so
    callers fall back to CDC byte deltas.
    """
    try:
        base_state: ComponentState = pickle.loads(base_blob)
        base_syn, target_syn = base_state.synopsis, target_state.synopsis
        base_groups = base_syn.index.groups()
        target_groups = target_syn.index.groups()
        n_groups = len(target_groups)
        changed_slots = {int(s) for s in hint.reaggregated
                         if 0 <= int(s) < n_groups}
        membership_changed = len(base_groups) != n_groups
        for i, tg in enumerate(target_groups):
            if i >= len(base_groups) or not np.array_equal(base_groups[i], tg):
                changed_slots.add(i)
                membership_changed = True
        changed = {i: adapter.payload_group_vector(target_syn.payload, i)
                   for i in sorted(changed_slots)}
        p_base = pickle.dumps(base_state.partition, PICKLE_PROTOCOL)
        p_target = pickle.dumps(target_state.partition, PICKLE_PROTOCOL)
        if p_base == p_target:
            partition_op: tuple = ("same", None)
        else:
            pd = compute_delta(p_base, p_target)
            partition_op = (("delta", pd) if pd.wire_cost() < len(p_target)
                            else ("full", p_target))
        draft = SemanticDelta(
            adapter=adapter, n_groups=n_groups, changed=changed,
            groups=tuple(target_groups) if membership_changed else None,
            partition=partition_op, level=target_syn.level,
            n_original=target_syn.n_original, meta=dict(target_syn.meta),
            base_digest=blob_digest(base_blob), target_digest=b"",
            target_size=0)
        applied = _assemble_semantic(base_blob, draft)
        out_state: ComponentState = pickle.loads(applied)
        out_syn = out_state.synopsis
        if out_syn.index != target_syn.index:
            return None
        if (out_syn.level != target_syn.level
                or out_syn.n_original != target_syn.n_original
                or out_syn.meta != target_syn.meta):
            return None
        for i in range(n_groups):
            if not _group_vectors_equal(
                    adapter.payload_group_vector(out_syn.payload, i),
                    adapter.payload_group_vector(target_syn.payload, i)):
                return None
        delta = SemanticDelta(
            adapter=draft.adapter, n_groups=draft.n_groups,
            changed=draft.changed, groups=draft.groups,
            partition=draft.partition, level=draft.level,
            n_original=draft.n_original, meta=draft.meta,
            base_digest=draft.base_digest,
            target_digest=blob_digest(applied), target_size=len(applied))
        return delta, applied
    except Exception:
        return None


def apply_semantic_delta(base_blob: bytes, delta: SemanticDelta) -> bytes:
    """Re-assemble the target snapshot blob from ``base_blob`` + ``delta``.

    Raises :class:`DeltaMismatchError` unless the base digest matches
    and the reconstruction matches the digest and size of the sender's
    verified replay — so sender and receiver provably hold the same
    bytes afterwards.
    """
    if blob_digest(base_blob) != delta.base_digest:
        raise DeltaMismatchError(
            "semantic delta applied against the wrong base blob")
    try:
        blob = _assemble_semantic(base_blob, delta)
    except DeltaMismatchError:
        raise
    except Exception as exc:
        raise DeltaMismatchError(
            f"semantic reconstruction failed: {exc!r}") from exc
    if len(blob) != delta.target_size or \
            blob_digest(blob) != delta.target_digest:
        raise DeltaMismatchError(
            "semantic reconstruction does not match the sender's replay")
    return blob
