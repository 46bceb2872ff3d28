(** The TCP view server: an accept loop plus per-connection handlers on
    a fixed pool of handler domains, serving the {!Wire} protocol against a
    {!Ivm_stream.Registry}.

    The one read op, [Lookup], serves the latest completed
    materialization of the view: a per-view snapshot cache keyed by the
    view's own change stamp ({!Ivm_stream.Registry.stamp}), so epochs
    that touch only other views never invalidate it. A stale entry is refreshed
    stale-while-revalidate (one request pays the refresh under
    {!Ivm_stream.Registry.read}, the shared side of the registry's
    writer-preferring lock; concurrent ones serve the previous epoch's
    snapshot). The refresh patches the stale snapshot with the view's
    pending output delta ({!Ivm_stream.Registry.pending_delta}),
    re-framing only the chunks it touches — snapshots are
    copy-on-write, so readers of the old one are unaffected — and
    re-enumerates the view only on a first read or when the registry
    dropped the delta (over its size bound, or after a failure,
    recovery, heal, self-check reinstall or dead-letter rebuild).
    Entries are served in an unspecified order, and never with a zero
    payload. Every answer is an epoch-consistent snapshot — taken at
    an epoch boundary, never a half-applied batch. Point lookups with a
    bound first variable answer in O(answer) from a hash index on that
    field, built once per snapshot on its first keyed lookup; whole-view
    reads never build it. Every answer opens with a [Token] frame: the
    served watermark the entries were materialized at. A gated [Lookup]
    whose token is ahead of an unchanged view's cached watermark
    re-stamps the watermark in O(1) rather than rebuilding. The [Token]
    also names the snapshot's version: a nonce drawn at {!start}
    combined with the view's stamp, so no other server instance (a
    restart, a failed-over replacement) ever serves the same one. A
    whole-view [Lookup] whose [since] is the served version is answered
    with the shared empty terminator; one whose [since] is the version
    the served snapshot was patched from gets the canonical delta that
    patch applied (kept with the snapshot, framed on request). Every other
    read — a first read, a dropped delta, a reinstall, an older
    [since], a prefix — gets the whole answer. Cache hits,
    stale serves, revalidations, patches, rebuilds and index builds are
    counted in
    {!Ivm_stream.Metrics}. Bytes go out
    after the lock is released. Ingested updates flow through the [ingest] callback into
    the scheduler's bounded queue — the queue policy is the server's
    backpressure. Delta subscribers are pushed one frame per applied
    epoch via {!publish_delta}; a subscriber that stays unwritable past
    the socket send timeout is disconnected (a half-written frame
    cannot be resynchronized, and a slow consumer must not stall the
    maintenance loop). *)

type t

val start :
  ?host:string ->
  port:int ->
  ?chunk_size:int ->
  ?snd_timeout:float ->
  ?handlers:int ->
  ?ingest:(int Ivm_data.Update.t list -> int * int) ->
  ?ingest_rw:(int Ivm_data.Update.t list -> int * int * int) ->
  ?served:(unit -> int) ->
  ?checkpoint:(unit -> (int, string) result) ->
  ?sql:(string -> (string, string) result) ->
  ?barrier:(unit -> (int, string) result) ->
  ?on_shutdown:(unit -> unit) ->
  registry:Ivm_stream.Registry.t ->
  metrics:Ivm_stream.Metrics.t ->
  unit ->
  (t, Wire.error) result
(** Bind [host] (default loopback) on [port] — [port = 0] picks an
    ephemeral port, read back with {!port} — and start serving on
    [handlers] (default 4) worker domains; at most that many
    connections are served concurrently, further ones queue.
    [chunk_size] (default 512) bounds entries per enumeration frame;
    [snd_timeout] (default 5 s, [0.] disables) is the slow-subscriber
    bound. [ingest] admits a batch into the update queue and reports
    [(admitted, dropped)] — without it the server is read-only.
    [ingest_rw] additionally returns the queue watermark after the
    batch was admitted — the epoch token answered to [Ingest_rw] that a
    read-your-writes session threads into a gated [Lookup]; [served]
    reports the scheduler's served watermark (items applied), which
    gates [Lookup]s with [token > 0] and stamps every snapshot (0
    without it). Wire them to {!Ivm_stream.Queue.pushed} after the push
    and {!Ivm_stream.Scheduler.applied} respectively; without them
    [Ingest_rw] and gated reads answer [Err]. An armed
    ["net.stale_read"] failpoint makes a gated [Lookup] skip its gate
    while still reporting the honest watermark — the injection seam
    for read-your-writes violation tests.
    [checkpoint] runs the admin checkpoint and returns the WAL offset
    it is current through. [sql] executes a [Sql] script (DDL, DML,
    [SELECT] and [EXPLAIN] alike) against the server's SQL session and
    returns its output text — without them the corresponding ops
    answer [Err].
    [barrier] answers the [Barrier] op: it must return only once every
    update admitted before the call has been applied, yielding the
    epoch at which the fence held — wire it to
    {!Ivm_stream.Scheduler.barrier}. [on_shutdown] runs once when a
    [Shutdown] request is accepted — typically closing the update queue
    so the scheduler drains and the driver can call {!stop}.

    The accept loop survives transient failures: [ECONNABORTED]
    continues immediately, fd exhaustion ([EMFILE]/[ENFILE]) backs off
    and continues; only a closed listener exits it. *)

val port : t -> int
(** The actually-bound port. *)

val connections : t -> int
val subscriber_count : t -> int
val stopping : t -> bool

val snapshot_frames : t -> string -> (Bytes.t list, string) result
(** The preserialized chunk frames a cache-hit ungated [Lookup] with
    an empty prefix writes after its [Token] frame, refreshing the cache
    (and counting the read) exactly as a request would. While the view's stamp is unchanged, repeated calls
    return the {e physically} same buffers — the zero-copy property;
    exposed so tests can assert it. *)

val answer_frames : t -> string -> since:int -> (Wire.response * Bytes.t list, string) result
(** What an ungated whole-view [Lookup] with [since] writes: its
    [Token] response and the chunk frames after it — the whole answer
    ([base = 0]), the kept delta from [since], or, when [since] is the
    served version, the server-lifetime shared empty terminator. Counts
    the read as a request would. *)

val lookup_frames : t -> string -> Ivm_data.Value.t -> (Bytes.t list, string) result
(** Same, for a [Lookup] of the one-field prefix [key] (building the
    snapshot's key index if this is its first keyed lookup); a key with
    no group returns the server-lifetime shared empty terminator
    frame. *)

val publish_delta : t -> epoch:int -> (string * int Ivm_data.Update.t list) list -> unit
(** Push one [Delta] frame (the front flattened into the wire's flat
    update list) to every subscriber — wire this to
    {!Ivm_stream.Scheduler}'s [on_apply], which hands exactly this
    per-relation delta front. Runs on the caller's domain; cost is one
    bounded socket write per subscriber. *)

val stop : ?grace:float -> t -> unit
(** Stop accepting, drain, and join the pool. Requests already being
    handled get up to [grace] seconds (default 1 s; [0.] for an abrupt
    stop) to write their responses before connections are shut — a
    shutdown must not cut off answers in flight. Must not be called
    from a handler (a [Shutdown] request instead flags the server and
    runs [on_shutdown]; the driver then calls [stop]). *)
