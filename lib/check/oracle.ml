module Cq = Ivm_query.Cq
module Value = Ivm_data.Value
module Tuple = Ivm_data.Tuple
module Update = Ivm_data.Update
module Db = Ivm_data.Database.Z
module Rel = Ivm_data.Relation.Z
module Eval = Ivm_engine.Eval
module View = Ivm_engine.View

type t = { case : Case.t; db : Db.t }

let create (case : Case.t) = { case; db = Case.db_of case }
let apply t batch = Db.apply_batch t.db batch

let normalize entries =
  List.filter (fun (_, p) -> p <> 0) entries
  |> List.sort (fun (a, pa) (b, pb) ->
         match Tuple.compare a b with 0 -> compare pa pb | c -> c)

let equal_entries a b =
  List.equal (fun (ta, pa) (tb, pb) -> pa = pb && Tuple.equal ta tb) a b

let entries_of rel = Rel.fold (fun tp p acc -> (tp, p) :: acc) rel []

(* Fresh per-recompute views: indexes are rebuilt each epoch, so the
   oracle never maintains anything incrementally. *)
let recompute_query t q =
  let out = Eval.aggregate q ~lookup:(fun name -> View.of_relation (Db.find t.db name)) in
  entries_of out

let scalar v = if v = 0 then [] else [ (Tuple.unit, v) ]

(* Triangle count by explicit join over the (possibly namespaced) base
   relations R(A,B), S(B,C), T(C,A). *)
let triangle_count_in t ~r ~s ~tt =
  let r = Db.find t.db r and s = Db.find t.db s and tt = Db.find t.db tt in
  Rel.fold
    (fun rt rm acc ->
      let a = Tuple.get rt 0 and b = Tuple.get rt 1 in
      Rel.fold
        (fun st sm acc ->
          if Value.equal (Tuple.get st 0) b then
            let c = Tuple.get st 1 in
            acc + (rm * sm * Rel.get tt (Tuple.of_list [ c; a ]))
          else acc)
        s acc)
    r 0

let triangle_count t = triangle_count_in t ~r:"R" ~s:"S" ~tt:"T"

(* k-clique count by exhaustive subset enumeration — fine for the tiny
   graphs the generator produces. *)
let kclique_count t k =
  let e = Db.find t.db "E" in
  let nodes = Hashtbl.create 16 in
  Rel.iter
    (fun tp _ ->
      Hashtbl.replace nodes (Value.to_int (Tuple.get tp 0)) ();
      Hashtbl.replace nodes (Value.to_int (Tuple.get tp 1)) ())
    e;
  let vs = Hashtbl.fold (fun v () acc -> v :: acc) nodes [] |> List.sort compare in
  let adjacent u v =
    let a, b = if u < v then (u, v) else (v, u) in
    Rel.mem e (Tuple.of_ints [ a; b ])
  in
  let rec choose acc rest count =
    match rest with
    | _ when List.length acc = k -> count + 1
    | [] -> count
    | v :: tl ->
        let count =
          if List.for_all (adjacent v) acc then choose (v :: acc) tl count else count
        in
        choose acc tl count
  in
  choose [] vs 0

(* Per-group (g, min v, max v) rows, payload 1, straight off the
   integral of the single base relation — the row the dataflow extrema
   node emits. *)
let minmax_rows_in t rel_name =
  let rel = Db.find t.db rel_name in
  let tbl = Hashtbl.create 16 in
  Rel.iter
    (fun tp _ ->
      let g = Tuple.get tp 0 and v = Tuple.get tp 1 in
      let mn, mx =
        match Hashtbl.find_opt tbl g with
        | None -> (v, v)
        | Some (mn, mx) ->
            ( (if Value.compare v mn < 0 then v else mn),
              if Value.compare v mx > 0 then v else mx )
      in
      Hashtbl.replace tbl g (mn, mx))
    rel;
  Hashtbl.fold (fun g (mn, mx) acc -> (Tuple.of_list [ g; mn; mx ], 1) :: acc) tbl []

let minmax_rows t =
  minmax_rows_in t (match t.case.Case.schemas with (r, _) :: _ -> r | [] -> "R")

(* The mixed multi-tenant family: each tenant's view recomputed over its
   namespaced tables, every entry tagged with a leading view-name column
   — the same union shape the multi-view drivers enumerate. *)
let mixed_rows t =
  let module Mx = Ivm_workload.Mixed in
  let tag name entries =
    List.map (fun (tp, p) -> (Tuple.of_list (Value.Str name :: Tuple.to_list tp), p)) entries
  in
  List.concat_map
    (fun (tn : Mx.tenant) ->
      let tbl suffix = Mx.table tn suffix in
      let entries =
        match tn.Mx.kind with
        | Mx.Join ->
            recompute_query t
              (Cq.make ~name:tn.Mx.name ~free:[ "B" ]
                 [ Cq.atom (tbl "R") [ "A"; "B" ]; Cq.atom (tbl "S") [ "B"; "C" ] ])
        | Mx.Triangle -> scalar (triangle_count_in t ~r:(tbl "R") ~s:(tbl "S") ~tt:(tbl "T"))
        | Mx.Minmax -> minmax_rows_in t (tbl "R")
        | Mx.Economy ->
            (* Account balances are multiplicities of A(id); the view is
               the group-by-nothing ring sum — the conserved total. *)
            scalar (Rel.fold (fun _ p acc -> acc + p) (Db.find t.db (tbl "A")) 0)
        | Mx.Cascade | Mx.Window ->
            failwith ("mixed oracle: unsupported tenant kind " ^ Mx.kind_name tn.Mx.kind)
      in
      tag tn.Mx.name entries)
    (Mx.of_tables t.case.Case.schemas)

let enumerate t =
  normalize
    (match t.case.Case.family with
    | Case.Join | Case.Static_dynamic -> recompute_query t (Option.get t.case.Case.query)
    | Case.Triangle -> scalar (triangle_count t)
    | Case.Kclique -> scalar (kclique_count t t.case.Case.k)
    | Case.Minmax -> minmax_rows t
    | Case.Mixed -> mixed_rows t)
