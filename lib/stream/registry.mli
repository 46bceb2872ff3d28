(** The multi-view server: N registered views maintained off one shared
    update stream, with per-view supervision. The registry owns the
    authoritative base database (what checkpoints snapshot) and
    rebuilds any view from its registration factory — on {!restore}
    after a crash, and whenever a view's engine fails at runtime. A
    failing view is degraded (its updates stop flowing; the base
    database still absorbs them), retried with exponential backoff and
    jitter, poison updates are isolated and dead-lettered, and a view
    failing past the threshold is quarantined — all without ever
    blocking the healthy views. *)

module Db = Ivm_data.Database.Z
module M = Ivm_engine.Maintainable

type health = Healthy | Degraded | Quarantined

val health_name : health -> string

type t

val create :
  ?metrics:Metrics.t ->
  ?backoff_base:float ->
  ?max_failures:int ->
  ?seed:int ->
  ?dead_wal:Wal.Z.t ->
  Db.t ->
  t
(** [backoff_base] (default 10 ms) is the first retry delay, doubled
    per consecutive failure with seeded jitter; after [max_failures]
    (default 5) consecutive failures a view is quarantined. [dead_wal]
    receives every dead-lettered poison update. *)

val db : t -> Db.t

val read : t -> (unit -> 'a) -> 'a
(** Run [f] under the registry's shared (read) lock: no epoch apply,
    heal, self-check or registration runs concurrently, so [f] sees an
    epoch-consistent snapshot of the base database and every view.
    Concurrent [read]s proceed in parallel; the lock is
    writer-preferring, so readers never starve the maintenance loop.
    The plain accessors below do not lock — wrap them in [read] when
    other domains may be applying updates. Do not nest [read] calls. *)

val register : t -> name:string -> (Db.t -> M.t) -> unit
(** Build a view from the current base database and serve it from now
    on. The factory is kept for {!restore} and for runtime recovery. A
    factory that fails leaves the view degraded (to be retried), not
    the registry broken.
    @raise Invalid_argument on a duplicate name. *)

val declare_table : t -> string -> Ivm_data.Schema.t -> (unit, string) result
(** Declare a new empty base relation in the authoritative database,
    under the exclusive lock — what the SQL front end's [CREATE TABLE]
    goes through. [Error] on a duplicate name. *)

val views : t -> (string * M.t) list
(** In registration order. *)

val view_count : t -> int

val find : t -> string -> M.t
(** @raise Invalid_argument when absent. *)

type stamp
(** A view's change stamp: a counter bumped (under the exclusive lock)
    whenever the view's state may have changed — when an epoch hands it
    a non-empty sub-front, and when it is (re)installed by recovery,
    {!heal}, a {!self_check} reinstall or a dead-letter rebuild. Epochs
    that touch only other views leave it alone, so it is the per-view
    invalidation key of the network server's snapshot cache. *)

val stamp : t -> string -> stamp
(** The named view's stamp handle, stable for the registry's lifetime.
    @raise Invalid_argument when absent. *)

val stamp_value : stamp -> int
(** The current value; lock-free. Read under {!read}, equal values
    before and after guarantee the view's state did not change in
    between. *)

(** {1 Output-delta consumers} *)

val track : t -> string -> size:int -> unit
(** Declare a consumer of the named view's output deltas (the network
    server's snapshot cache) and restart its pending delta, empty, at
    the view's current stamp. Call under {!read}, right after
    materializing the view, with the [size] (entries) it materialized.
    From now on every epoch that touches the view folds the output
    change it reports into the pending delta. A pending delta with
    more than [2 * size + 16] entries — more than a rewrite of every
    row, each a retraction plus an insertion — is dropped. Views never
    tracked collect nothing.
    @raise Invalid_argument when absent. *)

val pending_delta : t -> string -> since:int -> (Ivm_data.Tuple.t * int) list option
(** Under {!read}: the view's folded output change since stamp value
    [since] — [None] when it cannot be patched: the view is not tracked
    from [since], its pending delta went over the bound, or it failed
    or was reinstalled (recovery, {!heal}, a {!self_check} reinstall,
    a dead-letter rebuild) since. The caller then rebuilds and
    re-{!track}s.
    @raise Invalid_argument when absent. *)

val pending_size : t -> string -> int option
(** Entries in the view's pending delta; [None] while no consumer
    tracks it. *)

val counts : t -> (string * int) list
val fingerprints : t -> (string * int) list

val health : t -> string -> health
(** @raise Invalid_argument when absent. *)

val statuses : t -> (string * health) list
val last_error : t -> string -> string option

val dead_letters : t -> (string * (string * Ivm_data.Tuple.t) list) list
(** Per view, the (relation, tuple) pairs dead-lettered out of it, in
    dead-letter order. *)

val apply_front : t -> (string * int Ivm_data.Update.t list) list -> unit
(** Apply one epoch's per-relation delta front (the shape
    {!Scheduler.delta_front} serves) to the base database and to every
    healthy registered view consuming one of its relations — each such
    view gets the concatenation of the relation groups it consumes.
    Groups are routed
    through a relation → views index kept current on every register
    and install, so views the epoch does not touch cost nothing: the
    work is O(relations and views touched), not O(views registered).
    A view whose engine raises is degraded and scheduled for recovery;
    this call itself never raises on view failure. A view that is not
    healthy is charged, in its [skipped] metric, the updates on its own
    relations (the whole epoch only while it is the relation-less stub
    of a failed initial build). *)

val apply_batch : t -> int Ivm_data.Update.t list -> unit
(** {!apply_front} of a flat batch, grouped per relation (order
    preserved within each relation — sound because ring payloads make
    the updates of one batch commute). The recovery-replay and test
    entry point; the scheduler itself routes its front directly. *)

val heal : t -> string list
(** Force a recovery attempt on every non-healthy view, ignoring
    backoff timers and quarantine; returns the names still not healthy
    afterwards. The convergence point a driver calls at end of
    stream. *)

val self_check : t -> string list
(** Verify every healthy view's fingerprint against a fresh rebuild
    from the base state, installing the rebuild on divergence; returns
    the diverged names. Expensive — run off the hot path. *)

val restore : ?metrics:Metrics.t -> t -> Db.t -> t
(** A fresh registry over [db] with every view rebuilt by its
    registration factory — the rebuild step of {!Durable.recover},
    before the WAL suffix replay. Dead-letter sets carry over. *)
