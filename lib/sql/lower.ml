module Cq = Ivm_query.Cq
module Fd = Ivm_query.Fd
module Value = Ivm_data.Value

type catalog = (string * string list) list

type filter = { rel : string; index : int; value : Value.t }

type extremum = { ecol : string; minimize : bool }

type window = { time : string; size : int }

type t = {
  cq : Cq.t;
  input : string list;
  filters : filter list;
  output_cols : string list;
  param_vars : (int * string) list;
  sum : bool;
  sum_var : string option;  (* the summed column, when [sum] *)
  out_vars : string list;
      (* plain (non-aggregated) select columns under the unification
         renaming, in item order — the grouping columns of the dataflow
         tail operators *)
  distinct : bool;
  extrema : extremum list; (* in item order *)
  window : window option;
}

(* A select that uses MIN/MAX, DISTINCT or WINDOW can only be maintained
   by the dataflow operator-graph engine — the per-query engines have no
   delta rule for non-ring aggregates. *)
let needs_dataflow t = t.distinct || t.extrema <> [] || t.window <> None

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let rec dedup = function
  | [] -> []
  | x :: tl -> if List.mem x tl then x :: dedup (List.filter (( <> ) x) tl) else x :: dedup tl

(* Union-find over column names; the representative of a class is the
   name that occurs first in FROM-order column enumeration, so lowering
   is deterministic and the common case (no renaming) keeps the user's
   names. *)
module Uf = struct
  type t = { parent : (string, string) Hashtbl.t; rank : (string, int) Hashtbl.t }

  let create order =
    let rank = Hashtbl.create 16 in
    List.iteri (fun i c -> if not (Hashtbl.mem rank c) then Hashtbl.add rank c i) order;
    { parent = Hashtbl.create 16; rank }

  let rec find t c =
    match Hashtbl.find_opt t.parent c with
    | None -> c
    | Some p ->
        let r = find t p in
        if r <> p then Hashtbl.replace t.parent c r;
        r

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then begin
      let ka = Hashtbl.find t.rank ra and kb = Hashtbl.find t.rank rb in
      let keep, absorb = if ka <= kb then (ra, rb) else (rb, ra) in
      Hashtbl.replace t.parent absorb keep
    end
end

let select catalog ?(fds = []) ~name (sel : Ast.select) =
  (* FROM resolution. *)
  let* tables =
    List.fold_left
      (fun acc tb ->
        let* acc = acc in
        match List.assoc_opt tb catalog with
        | None -> fail "unknown table %s" tb
        | Some cols ->
            if List.mem_assoc tb acc then
              fail "table %s appears twice in FROM (self-joins are not supported)" tb
            else Ok (acc @ [ (tb, cols) ]))
      (Ok []) sel.Ast.from
  in
  let occurrence_order = List.concat_map snd tables in
  let known c = List.mem c occurrence_order in
  let uf = Uf.create occurrence_order in
  (* WHERE: unify column equalities, collect filters and input vars. *)
  let* () =
    List.fold_left
      (fun acc (p : Ast.pred) ->
        let* () = acc in
        if not (known p.Ast.col) then fail "unknown column %s in WHERE" p.Ast.col
        else
          match p.Ast.rhs with
          | Ast.Col c2 ->
              if not (known c2) then fail "unknown column %s in WHERE" c2
              else begin
                Uf.union uf p.Ast.col c2;
                Ok ()
              end
          | Ast.Const _ | Ast.Param _ -> Ok ())
      (Ok ()) sel.Ast.where
  in
  let repr c = Uf.find uf c in
  let filters =
    List.concat_map
      (fun (p : Ast.pred) ->
        match p.Ast.rhs with
        | Ast.Const v ->
            let target = repr p.Ast.col in
            List.concat_map
              (fun (rel, cols) ->
                List.filteri (fun _ c -> repr c = target) cols
                |> List.map (fun c ->
                       { rel; index = Option.get (List.find_index (( = ) c) cols); value = v }))
              tables
        | Ast.Col _ | Ast.Param _ -> [])
      sel.Ast.where
  in
  let input =
    dedup
      (List.filter_map
         (fun (p : Ast.pred) ->
           match p.Ast.rhs with Ast.Param _ -> Some (repr p.Ast.col) | _ -> None)
         sel.Ast.where)
  in
  (* Atoms: the table schemas under the unification renaming. *)
  let* atoms =
    List.fold_left
      (fun acc (rel, cols) ->
        let* acc = acc in
        match Cq.atom rel (List.map repr cols) with
        | atom -> Ok (acc @ [ atom ])
        | exception Invalid_argument _ ->
            fail "WHERE equalities collapse two columns of table %s onto one variable" rel)
      (Ok []) tables
  in
  (* SELECT items. *)
  let items =
    match sel.Ast.items with
    | [ Ast.Star ] -> List.map (fun c -> Ast.Column c) (dedup (List.map repr occurrence_order))
    | items -> items
  in
  let* () =
    List.fold_left
      (fun acc it ->
        let* () = acc in
        match it with
        | Ast.Column c | Ast.Sum c | Ast.Min c | Ast.Max c ->
            if known c then Ok () else fail "unknown column %s in SELECT" c
        | Ast.Count | Ast.Star -> Ok ())
      (Ok ()) items
  in
  let ring_aggs = List.filter (function Ast.Count | Ast.Sum _ -> true | _ -> false) items in
  let extrema_items = List.filter (function Ast.Min _ | Ast.Max _ -> true | _ -> false) items in
  let aggs = ring_aggs @ extrema_items in
  let* () =
    if List.length ring_aggs > 1 then fail "at most one aggregate per SELECT" else Ok ()
  in
  let* () =
    if ring_aggs <> [] && extrema_items <> [] then
      fail "MIN/MAX cannot be combined with COUNT or SUM in one SELECT"
    else Ok ()
  in
  let* () =
    match
      List.find_opt
        (fun it -> List.length (List.filter (( = ) it) extrema_items) > 1)
        extrema_items
    with
    | Some it -> fail "duplicate %s in SELECT" (Ast.print_item it)
    | None -> Ok ()
  in
  let plain_cols =
    List.filter_map (function Ast.Column c -> Some c | _ -> None) items
  in
  let group_vars = dedup (List.map repr sel.Ast.group_by) in
  let out_vars = dedup (List.map repr plain_cols) in
  let* () =
    List.fold_left
      (fun acc c ->
        let* () = acc in
        if known c then Ok () else fail "unknown column %s in GROUP BY" c)
      (Ok ()) sel.Ast.group_by
  in
  (* Grouping discipline: with an aggregate (or an explicit GROUP BY),
     the non-aggregated select columns and the GROUP BY set must
     coincide. *)
  let* () =
    if aggs <> [] || sel.Ast.group_by <> [] then begin
      if aggs = [] && group_vars <> out_vars then
        fail "GROUP BY without an aggregate must list exactly the selected columns"
      else if
        aggs <> []
        && (List.exists (fun v -> not (List.mem v group_vars)) out_vars
           || List.exists (fun v -> not (List.mem v out_vars)) group_vars)
      then fail "non-aggregated SELECT columns must match GROUP BY"
      else Ok ()
    end
    else Ok ()
  in
  let* () =
    if List.length (dedup plain_cols) <> List.length out_vars then
      fail "SELECT lists two columns made equal by WHERE; keep one of them"
    else Ok ()
  in
  let sum_col = List.find_map (function Ast.Sum c -> Some (repr c) | _ -> None) items in
  let* () =
    match sum_col with
    | Some s when List.mem s out_vars -> fail "SUM column cannot also be grouped"
    | Some _ when input <> [] -> fail "SUM combined with '?' parameters is not supported"
    | _ -> Ok ()
  in
  (* Dataflow-only features: MIN/MAX aggregates, DISTINCT, WINDOW. *)
  let extrema =
    List.filter_map
      (function
        | Ast.Min c -> Some { ecol = repr c; minimize = true }
        | Ast.Max c -> Some { ecol = repr c; minimize = false }
        | Ast.Star | Ast.Column _ | Ast.Count | Ast.Sum _ -> None)
      items
  in
  let* () =
    match List.find_opt (fun e -> List.mem e.ecol out_vars) extrema with
    | Some e -> fail "MIN/MAX column %s cannot also be grouped" e.ecol
    | None -> Ok ()
  in
  let* () =
    if sel.Ast.distinct && aggs <> [] then
      fail "DISTINCT cannot be combined with aggregates"
    else if sel.Ast.distinct && sel.Ast.group_by <> [] then
      fail "DISTINCT with GROUP BY is not supported"
    else Ok ()
  in
  let* window =
    match sel.Ast.window with
    | None -> Ok None
    | Some w ->
        if not (known w.Ast.wcol) then fail "unknown column %s in WINDOW" w.Ast.wcol
        else if sel.Ast.distinct then fail "WINDOW cannot be combined with DISTINCT"
        else if extrema <> [] then
          fail "WINDOW supports COUNT and SUM aggregates, not MIN/MAX"
        else if ring_aggs = [] then
          fail "WINDOW requires a COUNT(*) or SUM aggregate"
        else Ok (Some { time = repr w.Ast.wcol; size = w.Ast.wsize })
  in
  let dataflow = sel.Ast.distinct || extrema <> [] || window <> None in
  let* () =
    if dataflow && input <> [] then
      fail "MIN/MAX, DISTINCT and WINDOW are not supported with '?' parameters"
    else Ok ()
  in
  let input = List.filter (fun v -> not (List.mem v out_vars)) input in
  let free =
    if dataflow then
      (* The dataflow compiler reads columns positionally off the joined
         node's full schema; the head only needs to name every column the
         tail operators consume. *)
      dedup
        (out_vars
        @ List.map (fun e -> e.ecol) extrema
        @ (match sum_col with Some s -> [ s ] | None -> [])
        @ match window with Some w -> [ w.time ] | None -> [])
    else out_vars @ (match sum_col with Some s -> [ s ] | None -> input)
  in
  let* cq =
    match Cq.make ~name ~free atoms with
    | q -> Ok q
    | exception Invalid_argument m -> fail "%s" m
  in
  (* The user-facing header: plain columns in item order, the aggregate
     (if any) rendered last — matching the engine's tuple layout of
     output variables then payload. *)
  let output_cols =
    (match window with Some w -> [ "w_" ^ w.time ] | None -> [])
    @ dedup plain_cols
    @ List.filter_map
        (function
          | Ast.Count -> Some "COUNT(*)"
          | Ast.Sum c -> Some (Printf.sprintf "SUM(%s)" c)
          | Ast.Min c -> Some (Printf.sprintf "MIN(%s)" c)
          | Ast.Max c -> Some (Printf.sprintf "MAX(%s)" c)
          | Ast.Star | Ast.Column _ -> None)
        items
  in
  let param_vars =
    List.filter_map
      (fun (p : Ast.pred) ->
        match p.Ast.rhs with Ast.Param i -> Some (i, repr p.Ast.col) | _ -> None)
      sel.Ast.where
  in
  let renamed_fds =
    List.concat_map
      (fun (tb, tfds) ->
        if List.mem_assoc tb tables then
          List.map
            (fun (fd : Fd.t) ->
              Fd.make (List.map repr fd.Fd.lhs) (List.map repr fd.Fd.rhs))
            tfds
        else [])
      fds
  in
  Ok
    ( {
        cq;
        input;
        filters;
        output_cols;
        param_vars;
        sum = sum_col <> None;
        sum_var = sum_col;
        out_vars;
        distinct = sel.Ast.distinct;
        extrema;
        window;
      },
      renamed_fds )

let subst_params params (sel : Ast.select) =
  let* where =
    List.fold_left
      (fun acc (p : Ast.pred) ->
        let* acc = acc in
        match p.Ast.rhs with
        | Ast.Param i -> (
            match List.nth_opt params (i - 1) with
            | Some v -> Ok (acc @ [ { p with Ast.rhs = Ast.Const v } ])
            | None -> fail "parameter ?%d is unbound (give it with --param)" i)
        | Ast.Const _ | Ast.Col _ -> Ok (acc @ [ p ]))
      (Ok []) sel.Ast.where
  in
  Ok { sel with Ast.where }
