(** The four IVM strategies compared in Fig. 4, sharing one view tree:

    - eager vs lazy: propagate updates immediately, or defer the work
      to the next enumeration (lazy-fact queues the updates and replays
      them through the view tree, lazy-list touches only the base
      relations and recomputes);
    - fact vs list: keep the output factorized over the views, or
      materialize it flat.

    eager-list ≈ DBToaster, eager-fact ≈ F-IVM, lazy-list ≈ classical
    delta queries, lazy-fact is the hybrid. *)

module Rel = Ivm_data.Relation.Z
module Tuple = Ivm_data.Tuple
module Cq = Ivm_query.Cq
module Vo = Ivm_query.Variable_order

type kind = Eager_fact | Eager_list | Lazy_fact | Lazy_list

val kind_name : kind -> string

type t

val create : kind -> Cq.t -> Vo.forest -> Ivm_data.Database.Z.t -> t
val kind : t -> kind
val query : t -> Cq.t

val tree : t -> View_tree.t
(** The shared view tree (its leaves are the maintained base relations;
    lazy-fact's lag behind until its next refresh). *)

val apply : t -> int Ivm_data.Update.t -> unit

val enumerate : t -> (Tuple.t * int) Seq.t
(** An enumeration request: lazy strategies refresh first (lazy-fact by
    replaying its queued updates, lazy-list by recomputing). *)

val count_output : t -> int
(** Drain an enumeration request, returning the output size — the
    access pattern of the Fig. 4 experiment. *)

val output : t -> Rel.t
(** Materialized output, for cross-checking strategies in tests. *)
