(** A uniform handle over every maintenance engine in this library, so
    the multi-view server of [lib/stream] can keep N heterogeneous views
    (view trees, dataflow graphs, triangle engines) current off one
    shared update stream. *)

module Rel = Ivm_data.Relation.Z
module Cq = Ivm_query.Cq

type delta = (Ivm_data.Tuple.t * int) list
(** A change to a view's output, as Z-set entries. *)

type t = {
  name : string;
  relations : string list;  (** base relations this view consumes *)
  apply_batch : int Ivm_data.Update.t list -> unit;
      (** Apply a batch of single-tuple updates, all on [relations]. *)
  apply_delta : int Ivm_data.Update.t list -> delta;
      (** Apply a batch exactly like [apply_batch] and return the change
          it made to the output ({!enumerate} after = before + delta).
          A tuple may occur more than once; consumers fold. *)
  output_count : unit -> int;  (** current output size (tuples or count) *)
  fingerprint : unit -> int;
      (** Order-independent digest of the current output state, for
          crash-recovery equality checks: two engines over the same
          query agree iff their outputs are extensionally equal. *)
  enumerate : unit -> (Ivm_data.Tuple.t * int) list;
      (** Materialize the current output — what the network layer
          serves for snapshots and CQAP lookups. A scalar view (e.g. a
          count) reports itself as the single entry [(Tuple.unit, v)].
          Concurrent readers are safe; readers must exclude writers
          externally. *)
}

val relation_fingerprint : Rel.t -> int
(** Order-independent digest of a relation's entries. *)

val entries_fingerprint : (Ivm_data.Tuple.t * int) list -> int
(** The same digest over an explicit entry list — what the cluster
    router computes over a cross-shard merge so it can compare against
    a single node's {!relation_fingerprint}-based view digest. *)

val iter_fingerprint : ((Ivm_data.Tuple.t -> int -> unit) -> unit) -> int
(** The same digest over an iterator of the entries. *)

val map_batch :
  (int Ivm_data.Update.t list -> int Ivm_data.Update.t list) -> t -> t
(** Rewrite every incoming batch (renaming, filtering) before both
    [apply_batch] and [apply_delta] see it; a batch rewritten to
    nothing does not reach the engine. *)

val of_view_tree : name:string -> Cq.t -> View_tree.t -> t
(** Wrap a factorized view tree; the query supplies the consumed
    relation names. Output deltas come from
    {!View_tree.apply_batch_enumerating}. *)

val of_dataflow : name:string -> Ivm_dataflow.Graph.t -> t
(** Wrap a compiled operator graph, reading the view registered on it
    under the same [name]. The fingerprint is {!entries_fingerprint} of
    the view's output — the cross-engine convention — not the graph's
    operator-state digest. *)

val of_triangle :
  name:string ->
  ?relations:string * string * string ->
  (module Triangle.ENGINE) ->
  Ivm_data.Database.Z.t ->
  t
(** [of_triangle ~name ~relations:(r, s, t) (module E) db] creates an
    [E] engine and loads it with [r], [s] and [t] from [db] (a relation
    absent from [db] starts empty); [relations] defaults to
    [("R", "S", "T")]. Tuples are binary integer edges in the triangle
    schema order R(A,B), S(B,C), T(C,A). A batch is applied one edge at
    a time; the count is the output, and its delta is the old count
    retracted and the new one inserted. *)
