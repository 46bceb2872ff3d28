(** A database is a named collection of relations over the same ring
    (Sec. 2). Its size is the sum of the sizes of its relations. *)

module type S = Database_intf.S

module Make (R : Ivm_ring.Sigs.SEMIRING) = struct
  module Rel = Relation.Make (R)

  type payload = R.t
  type rel = Rel.t
  type t = (string, Rel.t) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let add_relation (db : t) name rel =
    if Hashtbl.mem db name then invalid_arg ("Database.add_relation: duplicate " ^ name);
    Hashtbl.replace db name rel

  let declare (db : t) name schema =
    let rel = Rel.create schema in
    add_relation db name rel;
    rel

  (* [Hashtbl.find], not [find_opt]: every applied update looks its
     relation up here, and the option would be boxed each time. *)
  let find (db : t) name =
    match Hashtbl.find db name with
    | rel -> rel
    | exception Not_found -> invalid_arg ("Database.find: no relation " ^ name)

  let mem (db : t) name = Hashtbl.mem db name
  let relations (db : t) = Hashtbl.fold (fun name rel acc -> (name, rel) :: acc) db []
  let size (db : t) = Hashtbl.fold (fun _ rel acc -> acc + Rel.size rel) db 0

  let apply (db : t) (u : R.t Update.t) = Rel.add_entry (find db u.rel) u.tuple u.payload
  let apply_batch (db : t) batch = List.iter (apply db) batch

  let copy (db : t) : t =
    let db' = create () in
    Hashtbl.iter (fun name rel -> Hashtbl.replace db' name (Rel.copy rel)) db;
    db'
end

module Z = Make (Ivm_ring.Int_ring)
