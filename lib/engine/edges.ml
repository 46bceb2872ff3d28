(** Binary relations over integer keys with group indexes on both
    columns — the storage shared by all triangle engines (Sec. 3) and by
    the heavy/light partitions of IVM^ε (Sec. 3.3).

    Probes ([get], degrees, adjacency iteration, [intersect]) go through
    domain-local scratch tuples: the triangle delta loops issue one
    probe per neighbour, and a reused buffer keeps them allocation-free
    ([intersect] boxes its two endpoints once and probes with the
    neighbour values the adjacency lists already store). The buffers
    are domain-local (one set per domain, shared by every [t]) because
    one process can apply views on several domains at once: cluster
    nodes in one process each run their own scheduler domain. An
    update probes with the scratch buffer too; only a new edge
    allocates its stored tuple. *)

module Rel = Ivm_data.Relation.Z
module Schema = Ivm_data.Schema
module Tuple = Ivm_data.Tuple
module Value = Ivm_data.Value

type t = { view : View.t; by_fst : Rel.Index.t; by_snd : Rel.Index.t }

let create name_fst name_snd =
  let view = View.create (Schema.of_list [ name_fst; name_snd ]) in
  let by_fst = View.index_on view (Schema.of_list [ name_fst ]) in
  let by_snd = View.index_on view (Schema.of_list [ name_snd ]) in
  { view; by_fst; by_snd }

let tup2 a b = Tuple.of_list [ Value.of_int a; Value.of_int b ]
let key1 a = Tuple.of_list [ Value.of_int a ]

(* Domain-local probe buffers, one per arity. A probe fills the buffer,
   looks up, and never retains it past the call. *)
let probe2_key = Domain.DLS.new_key (fun () -> Tuple.scratch 2)
let probe1_key = Domain.DLS.new_key (fun () -> Tuple.scratch 1)

let probe2v a b =
  let t = Domain.DLS.get probe2_key in
  Tuple.set t 0 a;
  Tuple.set t 1 b;
  t

let probe1v a =
  let t = Domain.DLS.get probe1_key in
  Tuple.set t 0 a;
  t

let probe2 a b = probe2v (Value.of_int a) (Value.of_int b)
let probe1 a = probe1v (Value.of_int a)

(* The view copies the probe key only when (a, b) is a new edge. *)
let update e a b m = View.update e.view (probe2 a b) m
let get e a b = View.get e.view (probe2 a b)
let size e = View.size e.view
let deg_fst e a = Rel.Index.group_size e.by_fst (probe1 a)
let deg_snd e b = Rel.Index.group_size e.by_snd (probe1 b)

(* Iterate the tuples with first column = a, as (a, b, payload). The
   probe buffer is released before the callbacks run (the group lookup
   happens first), so callbacks may themselves probe. *)
let iter_fst e a f =
  Rel.Index.iter_group e.by_fst (probe1 a) (fun t p ->
      f (Value.to_int (Tuple.get t 1)) p)

(* Iterate the tuples with second column = b, as their first column. *)
let iter_snd e b f =
  Rel.Index.iter_group e.by_snd (probe1 b) (fun t p ->
      f (Value.to_int (Tuple.get t 0)) p)

let iter e f =
  View.iter
    (fun t p -> f (Value.to_int (Tuple.get t 0)) (Value.to_int (Tuple.get t 1)) p)
    e.view

let fst_keys e f = Rel.Index.iter_keys e.by_fst (fun k -> f (Value.to_int (Tuple.get k 0)))

(* Σ_x e1(k1, x) * e2(x, k2): intersect the adjacency list of k1 in e1
   (by first column) with that of k2 in e2 (by second column), iterating
   the smaller list — the cost model of Sec. 3.1 and 3.3. Each endpoint
   is boxed once; the probes reuse the x values the lists store. *)
let intersect (e1 : t) (k1 : int) (e2 : t) (k2 : int) =
  let v1 = Value.of_int k1 and v2 = Value.of_int k2 in
  let deg1 = Rel.Index.group_size e1.by_fst (probe1v v1) in
  if deg1 <= Rel.Index.group_size e2.by_snd (probe1v v2) then
    Rel.Index.fold_group e1.by_fst (probe1v v1)
      (fun t p acc -> acc + (p * View.get e2.view (probe2v (Tuple.get t 1) v2)))
      0
  else
    Rel.Index.fold_group e2.by_snd (probe1v v2)
      (fun t p acc -> acc + (p * View.get e1.view (probe2v v1 (Tuple.get t 0))))
      0
