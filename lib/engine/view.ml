(** Materialized views over the ring of integer multiplicities: a
    relation together with lazily created secondary group indexes that
    are kept in sync with the relation under updates.

    Every engine in this library works over the ℤ ring (Sec. 2): counts
    for maintenance, positivity tests for Boolean queries. *)

module Rel = Ivm_data.Relation.Z
module Schema = Ivm_data.Schema
module Tuple = Ivm_data.Tuple

type t = {
  rel : Rel.t;
  mutable indexes : (string * Rel.Index.t) list;
      (* keyed by a canonical string of the index key schema *)
}

let canon (s : Schema.t) = String.concat "\x00" (Schema.to_list s)

let create schema = { rel = Rel.create schema; indexes = [] }
let of_relation rel = { rel; indexes = [] }
let schema v = Rel.schema v.rel
let relation v = v.rel
let size v = Rel.size v.rel
let get v t = Rel.get v.rel t
let mem v t = Rel.mem v.rel t
let to_seq v = Rel.to_seq v.rel
let iter f v = Rel.iter f v.rel
let scalar v = Rel.scalar v.rel

(** [index_on v key] returns the group index of [v] keyed by [key],
    creating and backfilling it on first request. *)
let index_on v key =
  let c = canon key in
  match List.assoc_opt c v.indexes with
  | Some ix -> ix
  | None ->
      let ix = Rel.Index.of_relation ~key v.rel in
      v.indexes <- (c, ix) :: v.indexes;
      ix

let rec update_indexes indexes t p =
  match indexes with
  | [] -> ()
  | (_, ix) :: rest ->
      Rel.Index.update ix t p;
      update_indexes rest t p

(** [update v t p] merges delta payload [p] for tuple [t] into the view
    and all its indexes. [t] may be a scratch probe key: the relation
    copies it only when it becomes a new entry, and the indexes share
    the stored key. *)
let update v t p = if p <> 0 then update_indexes v.indexes (Rel.merge v.rel t p) p

(** [apply_delta v d] merges a delta relation (same positional schema). *)
let apply_delta v (d : Rel.t) = Rel.iter (fun t p -> update v t p) d

let clear v =
  Rel.clear v.rel;
  List.iter (fun (_, ix) -> Rel.Index.clear ix) v.indexes

let pp ppf v = Rel.pp ppf v.rel
