(** Cluster data placement: per-relation partitioning policies and
    per-view read routes over a power-of-two shard count, all driven by
    one shard function: the upper bits of {!Ivm_data.Tuple.hash},
    masked to the shard count. It is the only sharding in the codebase.

    Soundness: queries are linear per relation but only multilinear
    jointly, so a view may split at most one relation by arbitrary
    tuple hash ({!Hash_tuple}) with the rest {!Broadcast}, or
    co-partition several relations on a shared join column
    ({!Hash_col}); either way the true answer is the ring sum of
    per-shard answers ({!Scattered}) or lives wholly on an owner shard
    ({!Keyed}). Views whose relations are all {!Broadcast} are fully
    replicated on every shard and must read {!Replicated} — one
    healthy node, never a sum. An extremum is not a ring sum, so a
    MIN/MAX view partitions its input by the group column
    ({!Hash_col}): each group lives wholly on one shard, and the
    {!Scattered} sum of the shards' disjoint rows is exact. *)

module Tuple = Ivm_data.Tuple
module Value = Ivm_data.Value

type policy =
  | Hash_col of int
      (** partition by the value in this column: relations sharing a
          join variable can co-partition on it, making every join
          match shard-local *)
  | Hash_tuple
      (** partition by whole-tuple hash; sound for at most one
          relation of any given view *)
  | Broadcast  (** replicate every update to all shards *)

type route =
  | Keyed
      (** outputs partitioned by first output column: a bound prefix
          routes to its one owner shard *)
  | Scattered  (** per-shard partial answers; reads ring-sum them *)
  | Replicated  (** full copy everywhere; reads pick one healthy node *)

val policy_name : policy -> string
val route_name : route -> string

type t

val create :
  shards:int -> policies:(string * policy) list -> routes:(string * route) list -> t
(** [shards] is rounded up to a power of two. Unlisted views default to
    {!Scattered}; updates on unlisted relations find no owner (the
    router dead-letters them). *)

val shard_count : t -> int
val all_shards : t -> int list
val policy : t -> string -> policy option
val route : t -> string -> route
val relations : t -> (string * policy) list

val key_owner : t -> Value.t -> int
(** The owner shard of a partition-key value — where a {!Keyed} lookup
    with this bound first column goes. Agrees with {!owners} on any
    tuple carrying the value in its hash column. *)

val owners : t -> rel:string -> Tuple.t -> int list option
(** The shards an update on [rel] must reach: one for hash policies,
    all for {!Broadcast}. [None] when the relation is unknown or the
    hash column is out of range — no owner exists. *)
