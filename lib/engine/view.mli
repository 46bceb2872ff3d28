(** Materialized views over the ring of integer multiplicities: a
    relation plus lazily created secondary group indexes, kept in sync
    under updates. See Sec. 2 of the paper for the data model. *)

module Rel = Ivm_data.Relation.Z
module Schema = Ivm_data.Schema
module Tuple = Ivm_data.Tuple

type t

val create : Schema.t -> t
(** An empty view over the given schema. *)

val of_relation : Rel.t -> t
(** Wrap an existing relation; the view takes ownership. *)

val schema : t -> Schema.t
val relation : t -> Rel.t
val size : t -> int

val get : t -> Tuple.t -> int
(** Payload of a tuple; [0] when absent. Amortized O(1). *)

val mem : t -> Tuple.t -> bool
val to_seq : t -> (Tuple.t * int) Seq.t
val iter : (Tuple.t -> int -> unit) -> t -> unit

val scalar : t -> int
(** The payload of the empty tuple — the value of a fully aggregated
    view. *)

val index_on : t -> Schema.t -> Rel.Index.t
(** [index_on v key] returns the group index of [v] on the sub-schema
    [key], creating and backfilling it on first request. Subsequent
    {!update}s maintain every requested index. *)

val update : t -> Tuple.t -> int -> unit
(** [update v t p] merges delta payload [p] for tuple [t] into the view
    and all its indexes (insert for positive [p], delete for negative).
    Amortized O(1). [t] may be a {!Tuple.scratch} probe key: only a new
    entry allocates, one copy shared by the view and its indexes. *)

val apply_delta : t -> Rel.t -> unit
(** Merge a delta relation with the same positional schema. *)

val clear : t -> unit
val pp : Format.formatter -> t -> unit
