(** One durable serving process: WAL + periodic and admin checkpoints
    + supervised registry + epoch scheduler + SQL session + TCP server,
    bundled behind start/kill/stop. In-process (domains + loopback
    TCP), but the only way in is the wire protocol — the router never
    touches a node's state directly. A cluster shard and [ivm_cli
    serve] both run on it.

    The server answers every wire op: [Checkpoint] parks until the next
    epoch boundary that covers the request (a zero-payload tick forces
    one on an idle stream) and answers the WAL offset the checkpoint is
    current through, or an error if the node stops, is killed or fails
    first. The tick counts as a stream record, in {!applied},
    {!recovered} and the watermarks alike. [Create_view]/[Explain] run
    against one SQL session over the node's registry. The epoch-token
    watermarks ([Ingest_rw]'s token and the served watermark) continue
    from {!recovered}, so a session token survives a restart (DESIGN
    §7).

    Recovery is {!Ivm_stream.Durable.recover}: each checkpoint stores
    the WAL byte offset it is current through and how many stream
    records it covers, recovery replays the log from that offset, and
    {!recovered} reports the durable record count (checkpointed plus
    replayed) — the resume point a router needs to re-send the lost
    tail of its send log after promoting this node. *)

module St = Ivm_stream

type spec = {
  name : string;
  dir : string;  (** holds [node.wal] and [node.ckpt]; created if absent *)
  port : int;  (** 0 picks an ephemeral port *)
  handlers : int;
  queue_capacity : int;
  checkpoint_every : int;  (** durable records between auto-checkpoints; 0 = never *)
  declare : St.Registry.t -> unit;
      (** declare tables + register views; runs against both fresh and
          checkpoint-restored databases, so ignore duplicate-table
          results *)
  seed_from : string option;
      (** warm-start from this directory's checkpoint + WAL (read-only)
          instead of [dir]'s own; the node's own log starts fresh and
          {!recovered} reports 0 — the standby bootstrap *)
}

val spec :
  ?port:int ->
  ?handlers:int ->
  ?queue_capacity:int ->
  ?checkpoint_every:int ->
  ?seed_from:string ->
  name:string ->
  dir:string ->
  (St.Registry.t -> unit) ->
  spec
(** Defaults: ephemeral port, 2 handlers, queue capacity 8192 (Block
    policy — admission is lossless), no auto-checkpoints. *)

type health = Running | Stopped | Failed of string

val health_name : health -> string

type t

val start : spec -> (t, string) result
(** Recover from [dir] (or [seed_from]): load the checkpoint if one
    exists, replay the WAL past it, then serve. Starting over a fresh
    directory is a cold start; over a killed node's directory it is the
    promotion path. *)

val wal_file : string -> string
(** The node's WAL in a directory: [dir/node.wal]. *)

val ckpt_file : string -> string
(** The node's checkpoint in a directory: [dir/node.ckpt]. *)

val port : t -> int
val name : t -> string
val dir : t -> string
val applied : t -> int
val recovered : t -> int
(** Durable records replayed at start — where re-sends resume. *)

val registry : t -> St.Registry.t
val metrics : t -> St.Metrics.t
val health : t -> health

val ingest : t -> int Ivm_data.Update.t list -> int * int
(** Push straight into the node's queue, bypassing the wire —
    [(admitted, dropped)]. The standby feeder's path. *)

val kill : t -> unit
(** Crash simulation: drop buffered WAL bytes, close the queue, stop
    the server with zero grace. Idempotent. What a power cut leaves
    behind; {!start} over the same directory recovers it. *)

val stop : t -> unit
(** Graceful: close the queue, drain the scheduler, stop the server,
    close the WAL. Idempotent. *)
