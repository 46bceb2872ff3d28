(** View trees — the factorized maintenance structure of F-IVM
    (Sec. 4.1, Fig. 3).

    A view tree follows a variable order: each variable X carries a view
    V_X keyed by dep(X) ∪ {X} (the join of the atoms anchored at X and
    of the child aggregates) and an aggregate A_X keyed by dep(X) that
    marginalizes X. Every atom's single-tuple update is compiled at
    {!build} into a hop plan along its leaf-to-root path: at each node a
    sibling view is either looked up on the bound variables or iterated
    over its group on them. For q-hierarchical queries every factor is
    a lookup and every hop is O(1). The query output is factorized over
    the views and enumerated with constant delay when the free
    variables form a connex top fragment.

    Maintenance guarantees assume *valid* update sequences (Sec. 2): all
    base multiplicities non-negative. *)

module Rel = Ivm_data.Relation.Z
module Tuple = Ivm_data.Tuple
module Cq = Ivm_query.Cq
module Vo = Ivm_query.Variable_order

type t

val build : Cq.t -> Vo.forest -> Ivm_data.Database.Z.t -> t
(** Preprocess: copy the base relations, materialize every view
    bottom-up, and create the enumeration indexes — O(N) for
    q-hierarchical queries with their canonical order.
    @raise Invalid_argument when the order is invalid for the query. *)

val base_view : t -> string -> View.t
(** The maintained leaf relation of an atom. *)

val node_count : t -> int

val views_size : t -> int
(** Total entries across all materialized views (excluding leaves). *)

val apply_update : t -> int Ivm_data.Update.t -> unit
(** Single-tuple insert (positive payload) or delete (negative) through
    the relation's hop plan (the delta view tree of Fig. 3). An update
    of stored tuples allocates nothing; only entries new to a view do.
    @raise Invalid_argument when no atom reads the relation. *)

val work : t -> int
(** Index probes plus iterated group entries of all updates so far: the
    update time, counted (a q-hierarchical update does a constant
    number, Sec. 4.1). *)

val total_aggregate : t -> int
(** The value of a query with no free variables (e.g. a count). *)

val enumerate : t -> (Tuple.t * int) Seq.t
(** Constant-delay enumeration of (output tuple, aggregate payload).
    @raise Invalid_argument when the free variables are not a connex top
    fragment of the order. *)

val iter_output : t -> (Tuple.t -> int -> unit) -> unit
(** Same traversal as {!enumerate} with a slot-array environment and
    reusable key buffers: the fast path driven by the benchmarks. *)

val output_relation : t -> Rel.t
val output_count : t -> int

val apply_batch_enumerating : t -> int Ivm_data.Update.t list -> (Tuple.t * int) list
(** Delta enumeration (the paper's footnote 2): apply the updates and
    return only the change to the query output (a tuple may repeat).
    Exact also through invalid intermediate states (a negative base
    multiplicity), where it falls back to diffing whole-output walks.
    @raise Invalid_argument when the output is not enumerable (free
    variables not a connex top fragment), as {!enumerate}. *)
