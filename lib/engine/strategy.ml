(** The four IVM strategies compared in Fig. 4, all sharing one view
    tree and differing on two axes:

    - eager vs lazy: propagate updates through the view tree immediately,
      or defer the work to the next enumeration (lazy-fact queues the
      updates and replays them through the tree, lazy-list touches only
      the base relations and recomputes);
    - fact vs list: keep the output factorized over the views, or
      materialize it as a flat list of tuples.

    eager-list is DBToaster-style higher-order maintenance of the listed
    output; eager-fact is F-IVM; lazy-list is classical delta queries
    with recomputation on request; lazy-fact is the hybrid. *)

module Rel = Ivm_data.Relation.Z
module Schema = Ivm_data.Schema
module Tuple = Ivm_data.Tuple
module Update = Ivm_data.Update
module Cq = Ivm_query.Cq
module Vo = Ivm_query.Variable_order

type kind = Eager_fact | Eager_list | Lazy_fact | Lazy_list

let kind_name = function
  | Eager_fact -> "eager-fact"
  | Eager_list -> "eager-list"
  | Lazy_fact -> "lazy-fact"
  | Lazy_list -> "lazy-list"

type t = {
  kind : kind;
  query : Cq.t;
  tree : View_tree.t;
  out : Rel.t; (* flat output, list strategies only *)
  mutable queued : int Update.t list; (* lazy-fact's updates since refresh, newest first *)
}

let create kind query forest db =
  let tree = View_tree.build query forest db in
  let out =
    match kind with
    | Eager_list -> View_tree.output_relation tree
    | Eager_fact | Lazy_fact | Lazy_list -> Rel.create (Schema.of_list query.Cq.free)
  in
  { kind; query; tree; out; queued = [] }

let kind t = t.kind
let query t = t.query

(** The shared view tree (its leaves are the maintained base relations;
    lazy-fact's lag behind until its next refresh). *)
let tree t = t.tree

let apply (t : t) (u : int Update.t) : unit =
  match t.kind with
  | Eager_fact -> View_tree.apply_update t.tree u
  | Eager_list ->
      (* First-order delta of the flat output (Sec. 3.1), computed with
         index lookups against the current base relations, then applied
         to both the stored output and the tree leaves. *)
      let schema = Schema.of_list (Cq.find_atom t.query u.Update.rel).Cq.vars in
      let d = Rel.create ~size:1 schema in
      Rel.add_entry d u.Update.tuple u.Update.payload;
      let d_out =
        Eval.delta t.query
          ~lookup:(fun rel -> View_tree.base_view t.tree rel)
          ~changed:u.Update.rel ~delta:d
      in
      Rel.iter (fun tp p -> Rel.add_entry t.out tp p) d_out;
      View.apply_delta (View_tree.base_view t.tree u.Update.rel) d
  | Lazy_list ->
      let bv = View_tree.base_view t.tree u.Update.rel in
      View.update bv u.Update.tuple u.Update.payload
  | Lazy_fact ->
      (* Fail fast on a relation the query does not read. *)
      ignore (View_tree.base_view t.tree u.Update.rel : View.t);
      t.queued <- u :: t.queued

(* Lazy-fact refresh: replay the queued updates through the tree. *)
let refresh_lazy_fact t =
  let queued = t.queued in
  t.queued <- [];
  List.iter (View_tree.apply_update t.tree) (List.rev queued)

let enumerate (t : t) : (Tuple.t * int) Seq.t =
  match t.kind with
  | Eager_fact -> View_tree.enumerate t.tree
  | Eager_list -> Rel.to_seq t.out
  | Lazy_fact ->
      refresh_lazy_fact t;
      View_tree.enumerate t.tree
  | Lazy_list ->
      let out =
        Eval.aggregate t.query ~lookup:(fun rel -> View_tree.base_view t.tree rel)
      in
      Rel.to_seq out

(** Drain the enumeration, returning the number of output tuples — the
    access pattern of the Fig. 4 experiment. Factorized strategies use
    the fast callback enumerator. *)
let count_output (t : t) : int =
  match t.kind with
  | Eager_fact -> View_tree.output_count t.tree
  | Lazy_fact ->
      refresh_lazy_fact t;
      View_tree.output_count t.tree
  | Eager_list ->
      (* The stored flat output is scanned: enumeration delivers every
         tuple, it does not just report a size. *)
      Rel.fold (fun _ _ n -> n + 1) t.out 0
  | Lazy_list -> Seq.fold_left (fun n _ -> n + 1) 0 (enumerate t)

(** The output as a relation, for cross-checking strategies in tests. *)
let output (t : t) : Rel.t =
  match t.kind with
  | Eager_fact -> View_tree.output_relation t.tree
  | Lazy_fact ->
      refresh_lazy_fact t;
      View_tree.output_relation t.tree
  | Eager_list | Lazy_list ->
      let out = Rel.create (Schema.of_list t.query.Cq.free) in
      Seq.iter (fun (tp, p) -> Rel.add_entry out tp p) (enumerate t);
      out
