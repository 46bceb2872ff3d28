(** Runtime metrics: counters and log-bucketed latency histograms
    (geometric buckets, ≤ 12% relative quantile error, allocation-free
    recording) for the serving loop's p50/p99 reporting. *)

module Hist : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val add_ns : t -> int -> unit
  (** [add] of a sample given in nanoseconds; allocates nothing. *)

  val count : t -> int
  val mean : t -> float
  val max_value : t -> float

  val percentile : t -> float -> float
  (** [percentile t q] for [q] in [0,1]: the upper edge of the bucket
      holding the [q]-quantile sample; 0 when empty. *)

  val merge_into : into:t -> t -> unit

  val sum : t -> float
  (** Total of all recorded samples (the histogram [_sum]). *)

  val to_buckets : t -> (float * int) list
  (** Non-empty buckets as [(upper_edge_seconds, count)], ascending —
      the raw form a text exposition renders cumulatively. *)
end

type view = {
  mutable updates : int;
  mutable batches : int;
  mutable failures : int;  (** apply or rebuild failures observed *)
  mutable rebuilds : int;  (** successful recovery / self-check rebuilds *)
  mutable dead_letters : int;  (** poison updates quarantined out of the view *)
  mutable skipped : int;  (** updates skipped while degraded or quarantined *)
  apply : Hist.t;
}

type t = {
  latency : Hist.t;  (** enqueue → applied, per update *)
  mutable epochs : int;
  mutable ingested : int;  (** updates popped off the queue *)
  mutable coalesced : int;  (** updates left after per-epoch coalescing *)
  views : (string, view) Hashtbl.t;
  ops : (string, Hist.t) Hashtbl.t;
      (** per-op-class service latency (network lookups, ingest, ...) *)
  view_ops : (string, (string, Hist.t) Hashtbl.t) Hashtbl.t;
      (** view → op → service latency — the per-tenant series of a
          multi-view server, so one tenant's tail latency is not
          averaged away in the per-process histogram *)
  ops_mutex : Mutex.t;
  cache_hits : int Atomic.t;
      (** network reads answered from a current cached snapshot (the
          view unchanged since it was built) *)
  cache_stale_serves : int Atomic.t;
      (** reads answered from the previous snapshot of a changed view
          while another read refreshes it (stale-while-revalidate) *)
  cache_revalidations : int Atomic.t;
      (** read-your-writes reads answered by re-stamping the watermark
          of an unchanged view's cached snapshot — O(1), no rebuild *)
  cache_patches : int Atomic.t;
      (** stale snapshots brought current by applying the view's pending
          output delta — the touched chunks re-framed, nothing
          re-enumerated *)
  cache_rebuilds : int Atomic.t;
      (** snapshot re-materialisations: a first read, or a view whose
          pending delta was dropped (over its bound, or the view failed
          or was reinstalled) *)
  cache_index_builds : int Atomic.t;
      (** per-first-field key indexes built — once per snapshot, on its
          first keyed lookup *)
}

val create : unit -> t

val view : t -> string -> view
(** The named view's counters, created on first use. *)

val view_names : t -> string list

val op : t -> string -> Hist.t
(** The named op class's latency histogram, created on first use. *)

val record_op : t -> string -> int -> unit
(** Record one service-latency sample, in nanoseconds, for an op
    class; allocates nothing once the class exists. Safe to call
    from concurrent handler domains (serialized on [ops_mutex]); the
    view and latency histograms stay single-writer. *)

val op_names : t -> string list

val record_view_op : t -> view:string -> op:string -> int -> unit
(** Record one service-latency sample, in nanoseconds, for an op on a
    specific view, allocating nothing once the pair exists —
    the per-tenant label pair of the [ivm_view_op_seconds] exposition.
    Same concurrency contract as {!record_op}. *)

val view_op : t -> view:string -> op:string -> Hist.t
(** The [(view, op)] histogram, created on first use. *)

val view_op_series : t -> (string * string) list
(** Every [(view, op)] pair recorded so far, sorted. *)

val render : t -> string
(** Prometheus-style text exposition: every counter as a plain sample,
    every histogram as cumulative [le]-buckets plus [_sum]/[_count] —
    served on the stats wire op and dumped by [ivm_cli serve]. *)

val pp : Format.formatter -> t -> unit
