(** A driver's exactly-once send log over a {!Router}: per shard, every
    record the shard has acknowledged, in the order it admitted them
    (DESIGN §8). Node acks mean queue-admitted, not durable, so a
    primary that dies can lose an acked tail; the router publishes it
    as a lost range of indices into this log, and the log re-sends
    exactly those records to that one shard.

    The protocol, per {!send}:
    - an ack appends the admitted prefix of the batch;
    - after an ack, published lost ranges are cut out of the log,
      oldest first (each cut re-aligns the indices the next range was
      published in), and their records are re-sent;
    - a transport error is ambiguous (the batch may have landed before
      the connection died), so it is resolved through
      {!Router.reconcile_sent}: only the part of the batch the
      shard's absorbed count proves landed is credited, and the rest
      is re-sent;
    - a short ack (a dying node's closed queue) retries the rest.

    Re-sent records may interleave with fresh ones — sound because
    ring batches commute. *)

type t

val create : Router.t -> t
(** An empty log per shard. *)

val send : t -> shard:int -> int Ivm_data.Update.t list -> (unit, string) result
(** Send a batch to one shard ({!Router.ingest_shard}) until all of it
    is admitted exactly once, or 8 attempts (re-sends included) run
    out. *)

val route : t -> int Ivm_data.Update.t list -> (unit, string) result
(** Split a batch by {!Topology.owners} and {!send} each shard its
    part, in shard order. Updates with no owner are skipped. *)

val settle : t -> (unit, string) result
(** Re-send every published lost range, fence the cluster
    ({!Router.barrier}) and repeat until a fence passes with nothing
    lost (at most 10 rounds) — then check that every
    shard's {!Router.shard_sent} equals its log length, the
    exactly-once invariant. *)

val length : t -> shard:int -> int
(** Records logged as admitted by the shard. *)
