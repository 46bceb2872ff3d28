(** Where data lives in the cluster: per-relation placement policies
    and per-view read routes over [2^k] shards.

    The shard function is {!shard_index}: the upper bits of
    {!Tuple.hash}, masked to the shard count. It is the only sharding in
    the codebase, so the router and every node agree on a tuple's owner
    by construction.

    Soundness is the paper's algebra, with one distributed caveat.
    Per-relation, every query is {e linear}: Q(..., R + ΔR, ...) =
    Q(..., R, ...) + Q(..., ΔR, ...). So splitting {e one} relation
    across shards and broadcasting the rest makes the true answer the
    ring sum of the per-shard answers ({!Scattered}). Joins are {e
    multilinear}, not jointly linear, so splitting {e two} relations is
    only sound when they are co-partitioned on a shared join variable
    ({!Hash_col} on both sides of the equality) — then every join match
    is local to one shard and the cross terms that naive tuple-hash
    splitting would lose cannot exist. A view over relations that are
    all {!Broadcast} is fully replicated: summing shard answers would
    multiply it by the shard count, so it must read {!Replicated} (any
    one healthy node). *)

module Tuple = Ivm_data.Tuple
module Value = Ivm_data.Value

type policy =
  | Hash_col of int  (** partition by one column — co-partitionable *)
  | Hash_tuple  (** partition by whole-tuple hash — at most one such
                    relation per view, or co-partition instead *)
  | Broadcast  (** replicate to every shard *)

type route =
  | Keyed
      (** outputs are partitioned by the view's first output column
          (the partitioned relations' shared join key): a bound-prefix
          lookup goes to exactly one owner shard *)
  | Scattered  (** outputs are disjoint across shards: read all, ring-sum *)
  | Replicated  (** every shard holds the full answer: read one healthy node *)

let policy_name = function
  | Hash_col i -> Printf.sprintf "hash_col(%d)" i
  | Hash_tuple -> "hash_tuple"
  | Broadcast -> "broadcast"

let route_name = function
  | Keyed -> "keyed"
  | Scattered -> "scattered"
  | Replicated -> "replicated"

type t = {
  shards : int;
  mask : int;
  policies : (string, policy) Hashtbl.t;
  routes : (string, route) Hashtbl.t;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ~shards ~policies ~routes =
  let shards = next_pow2 (max 1 shards) in
  let pt = Hashtbl.create 8 and rt = Hashtbl.create 8 in
  List.iter (fun (rel, p) -> Hashtbl.replace pt rel p) policies;
  List.iter (fun (view, r) -> Hashtbl.replace rt view r) routes;
  { shards; mask = shards - 1; policies = pt; routes = rt }

let shard_count t = t.shards
let all_shards t = List.init t.shards Fun.id
let policy t rel = Hashtbl.find_opt t.policies rel
let route t view = Option.value (Hashtbl.find_opt t.routes view) ~default:Scattered
let relations t = Hashtbl.fold (fun rel p acc -> (rel, p) :: acc) t.policies []

(* The one shard function: upper hash bits, because the stores the
   tuple lands in ({!Ivm_data.Flat_tbl} buckets) consume the lower ones.
   Computing it memoizes the tuple's hash. *)
let shard_index ~mask tuple = (Tuple.hash tuple lsr 16) land mask

(* A column key is hashed as the 1-tuple holding it, so the lookup side
   ([key_owner] on a bound prefix value) and the ingest side
   ([owners] on a full tuple's column) agree by construction. *)
let key_owner t v = shard_index ~mask:t.mask (Tuple.of_list [ v ])

let owners t ~rel tuple =
  match policy t rel with
  | None -> None (* unknown relation: the router dead-letters it *)
  | Some Broadcast -> Some (all_shards t)
  | Some Hash_tuple -> Some [ shard_index ~mask:t.mask tuple ]
  | Some (Hash_col i) ->
      if i < 0 || i >= Tuple.arity tuple then None
      else Some [ key_owner t (Tuple.get tuple i) ]
