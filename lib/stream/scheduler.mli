(** The epoch micro-batcher: pops queued updates, logs them durably
    (WAL append + sync before any view applies them), coalesces per
    (relation, tuple) with the ring add — sound by batch commutativity
    (Sec. 2) — and feeds the registry. The batch cap adapts to observed
    epoch apply latency: halved over 1.5x target, doubled when a full
    epoch runs under half the target. *)

type item = { update : int Ivm_data.Update.t; enqueued_at : float }

val item : int Ivm_data.Update.t -> item
(** Stamp an update with the current time — what producers enqueue. *)

type t

val create :
  ?wal:Wal.Z.t ->
  ?target_latency:float ->
  ?min_batch:int ->
  ?max_batch:int ->
  ?initial_batch:int ->
  ?sync_retries:int ->
  ?self_check_every:int ->
  ?on_apply:(epoch:int -> (string * int Ivm_data.Update.t list) list -> unit) ->
  queue:item Queue.t ->
  registry:Registry.t ->
  metrics:Metrics.t ->
  unit ->
  t
(** Defaults: 2 ms target latency, batch cap adapting within
    [16, 65536] starting at 1024. Without [wal] the runtime is
    in-memory only. A failed WAL fsync is retried [sync_retries]
    (default 3) times before the epoch errors out. With
    [self_check_every], the registry fingerprint self-check runs every
    that many epochs. [on_apply] is called after every non-empty epoch
    with the per-relation coalesced delta front the views just absorbed
    (the same value {!delta_front} then serves) — the delta
    subscription fan-out of the network server; it runs on the
    scheduler domain, so it must be fast and must not raise. *)

val batch_limit : t -> int
(** The current adaptive batch cap. *)

val applied : t -> int
(** Updates applied so far (before coalescing). *)

val metrics : t -> Metrics.t
val registry : t -> Registry.t

val delta_front : t -> (string * int Ivm_data.Update.t list) list
(** The per-relation coalesced delta front of the most recently applied
    epoch: relation → the coalesced updates the views absorbed for it.
    This is the single authoritative grouping of an epoch's delta —
    consumers (delta fan-out, dataflow graphs, the cluster barrier
    path) read it here instead of re-deriving it from a flat batch.
    Valid from within [on_apply] and until the next epoch applies; the
    scheduler domain owns it, so cross-domain readers must fence (e.g.
    {!barrier}) first. *)

val coalesce_front : t -> item list -> (string * int Ivm_data.Update.t list) list
(** Per-(relation, tuple) ring-add coalescing with zero elision,
    grouped per relation, relations in the order the epoch first
    touched them. The accumulators are owned by the scheduler and
    reused across epochs; only the ones the epoch wrote are folded and
    cleared (capacity preserved), so the cost is O(items + relations
    touched), independent of how many relations the stream has ever
    carried. Exposed for tests. *)

val coalesce : t -> item list -> int Ivm_data.Update.t list
(** {!coalesce_front} flattened — relations concatenated. *)

val step : t -> (bool, Errors.t) result
(** Run one epoch; [Ok false] means the stream ended (queue closed and
    drained). [Error _] is a durability failure: the popped updates
    were {e not} applied — crash-and-recover semantics, they replay
    from the last durable state. View failures never surface here;
    the registry's supervision absorbs them. *)

val run : ?on_epoch:(t -> unit) -> t -> (unit, Errors.t) result
(** Drain the stream to its end, calling [on_epoch] after every epoch
    (live stats, periodic checkpoints); stops at the first durability
    error. *)

val barrier : t -> (int, string) result
(** Epoch fence: block until every update the queue had admitted at the
    moment of this call has been applied (and, with a WAL, synced —
    durability precedes apply), then return the epoch counter. Callers
    wanting a cluster-consistent cut pause ingest first, fence every
    node, and only then read. Safe from any domain; fails instead of
    hanging if the scheduler loop exits (stream end or durability
    error) before the fence is reached. *)

val abort : t -> unit
(** Mark the scheduler finished and wake every {!barrier} waiter (they
    fail cleanly). For supervisors whose driving loop died via an
    exception that bypassed {!step}'s own finished signal. *)
