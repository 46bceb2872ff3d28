(** The blocking OCaml client for the view server. One connection per
    value; not domain-safe — give each domain its own connection.
    Every call is result-typed over {!Wire.error}; a server-reported
    failure surfaces as [Error (Remote _)]. A whole-view {!lookup} can
    name the version of the answer it already holds and be sent only
    the delta from it. *)

type t

val connect : ?host:string -> ?timeout:float -> port:int -> unit -> (t, Wire.error) result
(** Default host is loopback; a host name is resolved with
    {!Wire.address}, and one that does not resolve is [Error (Io _)].
    The socket is closed on every error. [timeout] (seconds) sets [SO_RCVTIMEO]
    and [SO_SNDTIMEO] before connecting, so the connect itself and
    every subsequent call is bounded — an expired deadline surfaces as
    [Error Timeout] instead of hanging on a dead peer. Omit it to block
    forever (the historical behaviour). *)

val set_timeout : t -> float option -> unit
(** Adjust the per-op deadline on a live connection; [None] (or [0.])
    removes it. Best-effort: a failure to set the socket option is
    swallowed. *)

val retryable : Wire.error -> bool
(** Whether a failed op is safe to retry on a fresh connection:
    [Timeout]/[Closed]/[Eof]/[Truncated]/[Io] mean the request may
    never have reached the server; [Remote] (and decode-level errors)
    mean it did and was answered — retrying repeats the answer. *)

val close : t -> unit
(** Idempotent; further calls on the value return [Error Closed]. *)

val ping : t -> (unit, Wire.error) result

type answer = {
  watermark : int;  (** the served watermark the entries were materialized at *)
  version : int;  (** the version of the snapshot served (never 0) *)
  delta : bool;
      (** the entries are the delta from the requested [since] to
          [version], not the whole answer *)
  entries : (Ivm_data.Tuple.t * int) list;
      (** ascending and zero-free, as the server sends them *)
}

val lookup :
  ?token:int ->
  ?timeout_ms:int ->
  ?since:int ->
  t ->
  view:string ->
  prefix:Ivm_data.Tuple.t ->
  (answer, Wire.error) result
(** CQAP point access: the entries of [view] whose first
    [arity prefix] output columns equal [prefix], collected across
    chunk frames, with the served watermark they were materialized at
    and the snapshot's version. A [token > 0] (default 0: ungated)
    gates the read on the server's served watermark reaching it,
    waiting server-side up to [timeout_ms] (default 5000). A whole-view
    read with [since] (default 0: none), the [version] of an answer
    this caller holds from the same server, may come back as the delta
    from it ([delta = true]; empty when nothing changed): the server
    sends one only when [since] is the snapshot it serves or the one
    that snapshot was patched from, and the whole answer otherwise. *)

val snapshot : t -> view:string -> ((Ivm_data.Tuple.t * int) list, Wire.error) result
(** The full output of [view] at one epoch boundary: an ungated
    {!lookup} with the empty prefix. *)

val ingest : t -> int Ivm_data.Update.t list -> (int * int, Wire.error) result
(** Feed updates to the server's queue; [(admitted, dropped)]. *)

val subscribe : t -> (unit, Wire.error) result
(** Switch this connection to push mode: the server sends one [Delta]
    frame per applied epoch from now on; read them with {!next_delta}.
    Do not issue further requests on a subscribed connection. *)

val next_delta : t -> (int * int Ivm_data.Update.t list, Wire.error) result
(** Block for the next pushed delta: [(epoch, coalesced updates)]. *)

val stats : t -> (string, Wire.error) result
(** The server's Prometheus text exposition. *)

val health : t -> ((string * string * string option) list, Wire.error) result
(** Per view: (name, health, last error). *)

val fingerprints : t -> ((string * int) list, Wire.error) result
val heal : t -> (string list, Wire.error) result

val checkpoint : t -> (int, Wire.error) result
(** Ask the server to checkpoint durably; returns the WAL offset the
    checkpoint is current through. *)

val shutdown : t -> (unit, Wire.error) result
(** Ask the server to shut down; [Ok ()] once the server acked with
    [Bye]. *)

val barrier : t -> (int, Wire.error) result
(** Epoch fence: returns only once every update admitted before this
    call has been applied (and, on a durable server, WAL-synced). The
    result is the scheduler epoch at which the fence held — the cluster
    router compares these across nodes for consistent snapshots. *)

val sql : t -> string -> (string, Wire.error) result
(** Execute a SQL script on the server ([CREATE TABLE], [CREATE
    MATERIALIZED VIEW], [INSERT], [DELETE], [SELECT], [EXPLAIN]);
    returns every statement's output, one after the other. *)

val ingest_rw : t -> int Ivm_data.Update.t list -> (int * int * int, Wire.error) result
(** Like {!ingest}, but returns [(admitted, dropped, token)] where
    [token] is the server's ingest-queue watermark after this batch:
    once the served watermark reaches it, every update of the batch is
    visible to reads. *)

(** Read-your-writes sessions over one connection: the epoch token of
    the session's last acknowledged write rides every read, and the
    watermark the server reports is re-checked client-side — a server
    that served stale state (failpoint, bug, failover to a lagging
    replica) is caught, not trusted. *)
module Session : sig
  type client := t
  type t

  val create : client -> t
  (** A fresh session with token 0 (reads are ungated until the first
      write). *)

  val client : t -> client
  val token : t -> int
  (** The queue watermark of the last acknowledged {!write}. *)

  val reattach : t -> client -> t
  (** The same session (same token) on a new connection — how a session
      survives a reconnect or server restart: the restarted server must
      expose a served watermark on the same scale (e.g. restored base +
      newly applied) for the token to stay meaningful. *)

  val write : t -> int Ivm_data.Update.t list -> (int * int, Wire.error) result
  (** {!ingest_rw} + advance the session token; [(admitted, dropped)]. *)

  val read :
    ?timeout_ms:int ->
    t ->
    view:string ->
    prefix:Ivm_data.Tuple.t ->
    ((Ivm_data.Tuple.t * int) list, Wire.error) result
  (** {!lookup} gated on the session token; fails with [Remote] if the
      served answer's watermark is behind the token — the
      read-your-writes guarantee, enforced on both ends. *)
end
