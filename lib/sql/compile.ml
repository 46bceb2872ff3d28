module Rel = Ivm_data.Relation.Z
module Db = Ivm_data.Database.Z
module Tuple = Ivm_data.Tuple
module Value = Ivm_data.Value
module Update = Ivm_data.Update
module Cq = Ivm_query.Cq
module M = Ivm_engine.Maintainable
module View_tree = Ivm_engine.View_tree
module Triangle = Ivm_engine.Triangle
module Insert_only = Ivm_engine.Insert_only
module G = Ivm_dataflow.Graph

type source = (string * Rel.t) list

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let filters_for (l : Lower.t) rel =
  List.filter (fun (f : Lower.filter) -> f.Lower.rel = rel) l.Lower.filters

let passes fs tuple =
  List.for_all
    (fun (f : Lower.filter) ->
      Value.equal (Tuple.get tuple f.Lower.index) f.Lower.value)
    fs

(* The initial load of one atom: the table's current contents, filtered,
   under the atom's (renamed) schema — positions are unchanged by the
   renaming, so tuples carry over as-is. *)
let filtered_relation (l : Lower.t) (atom : Cq.atom) table =
  let fs = filters_for l atom.Cq.rel in
  let out = Rel.create (Cq.atom_schema atom) in
  Rel.iter (fun tp p -> if passes fs tp then Rel.add_entry out tp p) table;
  out

(* Fold Σ value·multiplicity out of the trailing (summed) column. *)
let fold_sum ~out_arity entries =
  let proj = Array.init out_arity (fun i -> i) in
  let tbl = Tuple.Tbl.create 64 in
  List.iter
    (fun (tp, mult) ->
      let key = Tuple.project tp proj in
      let v = Value.to_int (Tuple.get tp out_arity) in
      let cur = Option.value (Tuple.Tbl.find_opt tbl key) ~default:0 in
      Tuple.Tbl.replace tbl key (cur + (v * mult)))
    entries;
  Tuple.Tbl.fold (fun k v acc -> if v = 0 then acc else (k, v) :: acc) tbl []

(* Read-side residue: a SUM view reports grouped sums, not the raw
   graded relation the engine maintains. *)
let wrap_reads (l : Lower.t) (m : M.t) =
  if not l.Lower.sum then m
  else begin
    let out_arity = List.length l.Lower.cq.Cq.free - 1 in
    let folded () = fold_sum ~out_arity (m.M.enumerate ()) in
    {
      m with
      (* The fold is linear, so it maps the inner delta too. *)
      M.apply_delta = (fun batch -> fold_sum ~out_arity (m.M.apply_delta batch));
      M.enumerate = folded;
      M.output_count = (fun () -> List.length (folded ()));
      M.fingerprint = (fun () -> M.entries_fingerprint (folded ()));
    }
  end

(* Write-side residue: drop static relations and filtered-out tuples,
   then translate each update for the inner engine. *)
let wrap_writes (l : Lower.t) ~static ~relations ~translate (m : M.t) =
  let keep batch =
    List.filter_map
      (fun (u : int Update.t) ->
        if List.mem u.Update.rel static then None
        else if not (passes (filters_for l u.Update.rel) u.Update.tuple) then None
        else Some (translate u))
      batch
  in
  { (M.map_batch keep m) with M.relations }

let dynamic_relations (l : Lower.t) static =
  List.filter (fun r -> not (List.mem r static)) (Cq.relation_names l.Lower.cq)

let initial_database (l : Lower.t) source =
  let db = Db.create () in
  let* () =
    List.fold_left
      (fun acc (atom : Cq.atom) ->
        let* () = acc in
        match List.assoc_opt atom.Cq.rel source with
        | None -> fail "no data for table %s" atom.Cq.rel
        | Some table ->
            Db.add_relation db atom.Cq.rel (filtered_relation l atom table);
            Ok ())
      (Ok ()) l.Lower.cq.Cq.atoms
  in
  Ok db

let flip_tuple tp = Tuple.of_list (List.rev (Tuple.to_list tp))

let slot_translate ~slots (u : int Update.t) =
  match List.assoc_opt u.Update.rel slots with
  | Some (slot, flipped) ->
      {
        u with
        Update.rel = slot;
        tuple = (if flipped then flip_tuple u.Update.tuple else u.Update.tuple);
      }
  | None -> invalid_arg ("unexpected relation " ^ u.Update.rel)

let initial_updates (l : Lower.t) source =
  List.concat_map
    (fun (atom : Cq.atom) ->
      match List.assoc_opt atom.Cq.rel source with
      | None -> []
      | Some table ->
          Rel.fold
            (fun tp p acc ->
              Update.make ~rel:atom.Cq.rel ~tuple:tp ~payload:p :: acc)
            table [])
    l.Lower.cq.Cq.atoms

let load outer l source =
  match outer.M.apply_batch (initial_updates l source) with
  | () -> Ok outer
  | exception Invalid_argument m -> fail "initial load: %s" m

(* --- dataflow lowering ------------------------------------------------- *)

(* Left-deep natural joins over the FROM atoms, greedily appending an
   atom that shares a column with what is joined so far; constant WHERE
   filters become filter nodes directly above their source. *)
let joined_atoms (l : Lower.t) g =
  let node_of_atom (atom : Cq.atom) =
    let n = G.source g ~rel:atom.Cq.rel ~schema:atom.Cq.vars in
    match filters_for l atom.Cq.rel with
    | [] -> n
    | fs ->
        let label =
          String.concat " & "
            (List.map
               (fun (f : Lower.filter) ->
                 Printf.sprintf "%s=%s"
                   (List.nth atom.Cq.vars f.Lower.index)
                   (Value.to_string f.Lower.value))
               fs)
        in
        G.filter g ~label (passes fs) n
  in
  match l.Lower.cq.Cq.atoms with
  | [] -> fail "dataflow: empty FROM"
  | a0 :: rest ->
      let rec go node pending =
        match pending with
        | [] -> Ok node
        | _ -> (
            let schema = G.node_schema node in
            match
              List.partition
                (fun (a : Cq.atom) ->
                  List.exists (fun v -> List.mem v schema) a.Cq.vars)
                pending
            with
            | next :: later, disconnected ->
                go (G.join g node (node_of_atom next)) (later @ disconnected)
            | [], _ ->
                fail
                  "the dataflow engine needs a connected join graph (no \
                   cartesian products)")
      in
      go (node_of_atom a0) rest

(* The operator tail above the join: distinct, one extrema node for every
   MIN/MAX, or a windowed aggregate, grouped on the plain select columns. *)
let build_graph ~name (l : Lower.t) =
  let g = G.create () in
  let* base = joined_atoms l g in
  let group = l.Lower.out_vars in
  let col_index node c =
    match List.find_index (( = ) c) (G.node_schema node) with
    | Some i -> i
    | None -> invalid_arg ("dataflow: no column " ^ c)
  in
  let* tail =
    match (l.Lower.window, l.Lower.extrema) with
    | Some w, _ ->
        let lift =
          Option.map
            (fun c ->
              let i = col_index base c in
              fun tp -> Value.to_int (Tuple.get tp i))
            l.Lower.sum_var
        in
        Ok
          (G.window g ?lift ~time:w.Lower.time ~size:w.Lower.size ~group base)
    | None, (_ :: _ as extrema) ->
        Ok
          (G.extrema g ~group
             ~aggs:
               (List.map
                  (fun (e : Lower.extremum) ->
                    ((if e.Lower.minimize then G.Asc else G.Desc), e.Lower.ecol))
                  extrema)
             base)
    | None, [] ->
        if l.Lower.distinct then Ok (G.distinct g (G.project g ~cols:group base))
        else fail "internal: %s is not a dataflow select" name
  in
  G.output g ~name tail;
  Ok g

let dag ~name (l : Lower.t) =
  let* g = build_graph ~name l in
  Ok (G.describe g)

let build ~name (l : Lower.t) (plan : Planner.plan) source =
  let missing =
    List.filter
      (fun r -> not (List.mem_assoc r source))
      (Cq.relation_names l.Lower.cq)
  in
  let* () =
    if missing <> [] then fail "no data for table %s" (List.hd missing) else Ok ()
  in
  let static = plan.Planner.static in
  let relations = dynamic_relations l static in
  let identity u = u in
  match plan.Planner.choice with
  | Planner.Dataflow ->
      let* g = build_graph ~name l in
      (* Seed the graph directly — static relations must reach the
         operators even though [wrap_writes] drops them from the update
         stream; filter nodes take care of the constant predicates. *)
      let* () =
        match G.apply g (initial_updates l source) with
        | () -> Ok ()
        | exception Invalid_argument m -> fail "initial load: %s" m
      in
      Ok
        (M.of_dataflow ~name g
        |> wrap_writes l ~static ~relations ~translate:identity)
  | Planner.Tree forest ->
      let* db = initial_database l source in
      let* tree =
        match View_tree.build l.Lower.cq forest db with
        | t -> Ok t
        | exception Invalid_argument m -> fail "view tree: %s" m
      in
      Ok
        (M.of_view_tree ~name l.Lower.cq tree
        |> wrap_writes l ~static ~relations ~translate:identity
        |> wrap_reads l)
  | Planner.Triangle { r; s; t } ->
      let inner = M.of_triangle ~name (module Triangle.Delta) (Db.create ()) in
      let slots =
        [
          (r.Planner.rel, ("R", r.Planner.flipped));
          (s.Planner.rel, ("S", s.Planner.flipped));
          (t.Planner.rel, ("T", t.Planner.flipped));
        ]
      in
      let outer =
        wrap_writes l ~static ~relations ~translate:(slot_translate ~slots) inner
      in
      load outer l source
  | Planner.Monotone_path { r; s; t } ->
      let io = Insert_only.create () in
      let slots =
        [
          (r.Planner.rel, (`R, r.Planner.flipped));
          (s.Planner.rel, (`S, s.Planner.flipped));
          (t.Planner.rel, (`T, t.Planner.flipped));
        ]
      in
      let apply ?emit (u : int Update.t) =
        match List.assoc_opt u.Update.rel slots with
        | None -> invalid_arg ("unexpected relation " ^ u.Update.rel)
        | Some (slot, flipped) ->
            let x = Value.to_int (Tuple.get u.Update.tuple 0) in
            let y = Value.to_int (Tuple.get u.Update.tuple 1) in
            let x, y = if flipped then (y, x) else (x, y) in
            Insert_only.insert ?emit io slot ~x ~y u.Update.payload
      in
      let enumerate () = List.of_seq (Insert_only.enumerate io) in
      let inner =
        {
          M.name;
          relations;
          apply_batch = List.iter apply;
          apply_delta =
            (fun batch ->
              let delta = ref [] in
              List.iter (apply ~emit:(fun tp p -> delta := (tp, p) :: !delta)) batch;
              !delta);
          output_count = (fun () -> Insert_only.output_size io);
          fingerprint = (fun () -> M.entries_fingerprint (enumerate ()));
          enumerate;
        }
      in
      let outer = wrap_writes l ~static ~relations ~translate:identity inner in
      load outer l source
