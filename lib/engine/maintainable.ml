(** A uniform handle over every maintenance engine in this library, so
    the multi-view server of [lib/stream] can keep N heterogeneous views
    (factorized view trees, dataflow graphs, triangle engines) current
    off one shared update stream.

    A maintainable is a record of closures rather than a first-class
    module: the registry only ever needs "apply this batch", "how big is
    your output" and "a fingerprint of your state", and closures let one
    constructor per engine family capture whatever private state the
    engine keeps. [relations] names the base relations the view consumes
    — the registry routes each view only the updates it understands.

    Every engine can also report the change a batch made to its output
    (the paper's footnote 2): view trees by delta enumeration, dataflow
    graphs by their view node's epoch delta, triangle engines as the old
    count retracted and the new one inserted. Every constructor reports
    one, so a consumer of a view's output never re-enumerates it after a
    batch. The Fig. 4 strategies ({!Strategy}) are the paper's
    comparison, not served engines: eager-fact is {!of_view_tree}. *)

module Rel = Ivm_data.Relation.Z
module Db = Ivm_data.Database.Z
module Value = Ivm_data.Value
module Tuple = Ivm_data.Tuple
module Update = Ivm_data.Update
module Cq = Ivm_query.Cq

type delta = (Tuple.t * int) list

type t = {
  name : string;
  relations : string list;  (** base relations this view consumes *)
  apply_batch : int Update.t list -> unit;
      (** Apply a batch of single-tuple updates, all on [relations]. *)
  apply_delta : int Update.t list -> delta;
      (** [apply_batch] that also reports the change the batch made to
          the output, as Z-set entries (a tuple may repeat; consumers
          fold). Only views with a delta consumer are applied this way. *)
  output_count : unit -> int;  (** current output size (tuples or count) *)
  fingerprint : unit -> int;
      (** Order-independent digest of the current output state, for
          crash-recovery equality checks: two engines over the same
          query agree iff their outputs are extensionally equal. *)
  enumerate : unit -> (Tuple.t * int) list;
      (** Materialize the current output — what the network layer
          serves for snapshots and CQAP lookups. A scalar view (e.g. a
          count) reports itself as the single entry [(Tuple.unit, v)].
          Safe to call from concurrent reader domains. *)
}

(* The per-entry digest every fingerprint sums: summing makes the fold
   order (hash-table iteration) irrelevant. *)
let mix acc tp p = acc + (Tuple.hash tp lxor (p * 0x9E3779B9)) land max_int

let relation_fingerprint (r : Rel.t) : int = Rel.fold (fun tp p acc -> mix acc tp p) r 0 land max_int

let entries_fingerprint (entries : (Tuple.t * int) list) : int =
  List.fold_left (fun acc (tp, p) -> mix acc tp p) 0 entries land max_int

(* The same digest over an iterator, so no engine builds a throwaway
   copy of its output just to be fingerprinted. *)
let iter_fingerprint iter =
  let acc = ref 0 in
  iter (fun tp p -> acc := mix !acc tp p);
  !acc land max_int

(* Skips the inner engine when the rewrite leaves nothing. *)
let map_batch f m =
  {
    m with
    apply_batch = (fun batch -> match f batch with [] -> () | b -> m.apply_batch b);
    apply_delta = (fun batch -> match f batch with [] -> [] | b -> m.apply_delta b);
  }

(* The output delta is the paper's footnote-2 delta enumeration; reads
   walk the factorized output directly. *)
let of_view_tree ~name (q : Cq.t) (tree : View_tree.t) : t =
  {
    name;
    relations = Cq.relation_names q;
    apply_batch = (fun batch -> List.iter (View_tree.apply_update tree) batch);
    apply_delta = View_tree.apply_batch_enumerating tree;
    output_count = (fun () -> View_tree.output_count tree);
    fingerprint = (fun () -> iter_fingerprint (View_tree.iter_output tree));
    enumerate =
      (fun () ->
        let out = ref [] in
        View_tree.iter_output tree (fun tp p -> out := (tp, p) :: !out);
        !out);
  }

(* A dataflow graph already speaks batch updates and materialized
   Z-set outputs, so the wrapper is direct: the output delta is the
   view node's own epoch delta. The fingerprint is the entries-based
   digest — the convention every other engine shares, so a served
   dataflow view compares fingerprint-equal against a from-scratch
   recompute by a different engine. The graph's deeper
   [state_fingerprint] (operator-internal state) is exposed separately
   for checkpoint/restore equivalence checks. *)
let of_dataflow ~name (g : Ivm_dataflow.Graph.t) : t =
  let module G = Ivm_dataflow.Graph in
  {
    name;
    relations = G.relations g;
    apply_batch = (fun batch -> G.apply g batch);
    apply_delta = (fun batch -> G.apply_delta g batch ~view:name);
    output_count = (fun () -> G.output_count g name);
    fingerprint = (fun () -> iter_fingerprint (G.iter_output g name));
    enumerate = (fun () -> G.entries g name);
  }

(* Triangle engines speak (relation, a, b, multiplicity) edges over the
   fixed schema R(A,B), S(B,C), T(C,A); [relations] names the caller's
   R, S and T, and each update is translated and applied one edge at a
   time. The count is the whole output, so it is also the digest. *)
let of_triangle ~name ?(relations = ("R", "S", "T")) (module E : Triangle.ENGINE) (db : Db.t) =
  let r, s, t = relations in
  let side rel =
    if String.equal rel r then Triangle.R
    else if String.equal rel s then Triangle.S
    else if String.equal rel t then Triangle.T
    else invalid_arg ("Maintainable.of_triangle: unknown relation " ^ rel)
  in
  let eng = E.create () in
  let update side tp m =
    E.update eng side
      ~a:(Value.to_int (Tuple.get tp 0))
      ~b:(Value.to_int (Tuple.get tp 1))
      m
  in
  List.iter
    (fun rel ->
      let side = side rel in
      if Db.mem db rel then Rel.iter (fun tp m -> update side tp m) (Db.find db rel))
    [ r; s; t ];
  let apply_batch batch =
    List.iter
      (fun (u : int Update.t) -> update (side u.Update.rel) u.Update.tuple u.Update.payload)
      batch
  in
  {
    name;
    relations = [ r; s; t ];
    apply_batch;
    apply_delta =
      (fun batch ->
        (* The old count retracted, the new one inserted. *)
        let before = E.count eng in
        apply_batch batch;
        let after = E.count eng in
        if after = before then [] else [ (Tuple.unit, -before); (Tuple.unit, after) ]);
    output_count = (fun () -> E.count eng);
    fingerprint = (fun () -> E.count eng land max_int);
    enumerate = (fun () -> [ (Tuple.unit, E.count eng) ]);
  }
