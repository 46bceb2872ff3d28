module Registry = Ivm_stream.Registry
module Db = Ivm_data.Database.Z
module Rel = Ivm_data.Relation.Z
module Schema = Ivm_data.Schema
module Tuple = Ivm_data.Tuple
module Value = Ivm_data.Value
module Update = Ivm_data.Update
module Cq = Ivm_query.Cq
module Fd = Ivm_query.Fd
module M = Ivm_engine.Maintainable

type table = { cols : string list; fds : Ast.fd list }

type view = {
  select : Ast.select;
  lower : Lower.t;
  plan : Planner.plan;
}

type t = {
  reg : Registry.t;
  mutable tables : (string * table) list;
  mutable views : (string * view) list;
}

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let create ?registry () =
  let reg =
    match registry with
    | Some r -> r
    | None -> Registry.create (Db.create ())
  in
  { reg; tables = []; views = [] }

let registry t = t.reg

type result_set = { header : string list; rows : (Value.t list * int) list }

type outcome = Msg of string | Rows of result_set | Explained of string

let catalog t = List.map (fun (n, tb) -> (n, tb.cols)) t.tables

let fds_catalog t =
  List.map
    (fun (n, tb) ->
      (n, List.map (fun (fd : Ast.fd) -> Fd.make fd.Ast.lhs [ fd.Ast.rhs_col ]) tb.fds))
    t.tables

let source_of db (l : Lower.t) =
  List.map (fun r -> (r, Db.find db r)) (Cq.relation_names l.Lower.cq)

let compare_row (a, pa) (b, pb) =
  match List.compare Value.compare a b with 0 -> compare pa pb | c -> c

let sort_rows rows = List.sort compare_row rows

(* SQL's COUNT over an empty group set is 0, not "no row": a scalar
   aggregate always reports one row. Dataflow views (MIN/MAX, DISTINCT,
   WINDOW) report exactly what the graph materializes — an empty
   extremum or window is genuinely no row. *)
let normalize_scalar (l : Lower.t) rows =
  if Lower.needs_dataflow l then rows
  else
  let out_arity =
    List.length l.Lower.cq.Cq.free
    - List.length l.Lower.input
    - if l.Lower.sum then 1 else 0
  in
  let agg = List.length l.Lower.output_cols > out_arity in
  if agg && out_arity = 0 && rows = [] then [ ([], 0) ] else rows

let rows_of_entries (l : Lower.t) entries =
  List.map (fun (tp, p) -> (Tuple.to_list tp, p)) entries
  |> normalize_scalar l |> sort_rows

(* --- statement execution ---------------------------------------------- *)

let name_free t name =
  if List.mem_assoc name t.tables then fail "%s already names a table" name
  else if List.mem_assoc name t.views then fail "%s already names a view" name
  else Ok ()

let create_table t table cols fds =
  let* () = name_free t table in
  let* schema =
    match Schema.of_list cols with
    | s -> Ok s
    | exception Invalid_argument _ -> fail "duplicate column in table %s" table
  in
  let* () =
    List.fold_left
      (fun acc (fd : Ast.fd) ->
        let* () = acc in
        match
          List.find_opt (fun c -> not (List.mem c cols)) (fd.Ast.rhs_col :: fd.Ast.lhs)
        with
        | Some c -> fail "FD mentions unknown column %s" c
        | None -> Ok ())
      (Ok ()) fds
  in
  let* () = Registry.declare_table t.reg table schema in
  t.tables <- t.tables @ [ (table, { cols; fds }) ];
  Ok (Msg (Printf.sprintf "CREATE TABLE %s" table))

let sizes t =
  Registry.read t.reg (fun () ->
      List.map (fun (r, rel) -> (r, Rel.size rel)) (Db.relations (Registry.db t.reg)))

let plan_select t ~name ~opts select =
  let* lower, fds = Lower.select (catalog t) ~fds:(fds_catalog t) ~name select in
  let* plan = Planner.plan ~sizes:(sizes t) ~fds ~opts lower in
  Ok (lower, plan)

let create_view t view opts select =
  let* () = name_free t view in
  let* () =
    List.fold_left
      (fun acc o ->
        let* () = acc in
        match o with
        | Ast.Static tb when not (List.mem tb select.Ast.from) ->
            fail "STATIC %s: not a FROM table of the view" tb
        | _ -> Ok ())
      (Ok ()) opts
  in
  let* lower, plan = plan_select t ~name:view ~opts select in
  (* Validate the build eagerly against the current state, so a bad view
     definition is an error here rather than a degraded registration. *)
  let* _probe =
    Registry.read t.reg (fun () ->
        Compile.build ~name:view lower plan (source_of (Registry.db t.reg) lower))
  in
  let* () =
    match
      Registry.register t.reg ~name:view (fun db ->
          match Compile.build ~name:view lower plan (source_of db lower) with
          | Ok m -> m
          | Error e -> failwith e)
    with
    | () -> Ok ()
    | exception Invalid_argument m -> fail "%s" m
  in
  t.views <- t.views @ [ (view, { select; lower; plan }) ];
  Ok
    (Msg
       (Printf.sprintf "CREATE MATERIALIZED VIEW %s (engine: %s)" view
          (Planner.engine_name plan)))

let mutate t ~table ~rows ~payload ~verb =
  let* tb =
    match List.assoc_opt table t.tables with
    | Some tb -> Ok tb
    | None -> fail "unknown table %s" table
  in
  let arity = List.length tb.cols in
  let* updates =
    List.fold_left
      (fun acc row ->
        let* acc = acc in
        if List.length row <> arity then
          fail "row arity %d does not match table %s(%d columns)"
            (List.length row) table arity
        else
          Ok
            (Update.make ~rel:table ~tuple:(Tuple.of_list row) ~payload :: acc))
      (Ok []) rows
  in
  Registry.apply_batch t.reg (List.rev updates);
  Ok (Msg (Printf.sprintf "%s %d row(s) %s %s" verb (List.length rows)
             (if verb = "INSERT" then "into" else "from") table))

(* A SELECT textually matching a created view (modulo parameter values)
   is a CQAP access-pattern lookup against the maintained view. *)
let matching_view t select =
  List.find_opt (fun (_, v) -> Ast.equal_select v.select select) t.views

let lookup_in_view t name (v : view) params =
  let l = v.lower in
  let* bindings =
    List.fold_left
      (fun acc (i, var) ->
        let* acc = acc in
        match List.nth_opt params (i - 1) with
        | Some value -> Ok ((var, value) :: acc)
        | None -> fail "parameter ?%d is unbound (give it with --param)" i)
      (Ok []) l.Lower.param_vars
  in
  let entries =
    Registry.read t.reg (fun () -> (Registry.find t.reg name).M.enumerate ())
  in
  let free = l.Lower.cq.Cq.free in
  let pos var =
    match List.find_index (( = ) var) free with Some i -> i | None -> 0
  in
  (* Dataflow views carry no '?' parameters and their tuples are already
     exactly the user-visible columns — serve them untruncated. *)
  let out_arity =
    if Lower.needs_dataflow l then max_int
    else List.length free - List.length l.Lower.input
  in
  let keep tp =
    List.for_all
      (fun (var, value) -> Value.equal (Tuple.get tp (pos var)) value)
      bindings
  in
  let rows =
    List.filter_map
      (fun (tp, p) ->
        if keep tp then
          Some (List.filteri (fun i _ -> i < out_arity) (Tuple.to_list tp), p)
        else None)
      entries
    |> normalize_scalar l |> sort_rows
  in
  Ok (Rows { header = l.Lower.output_cols; rows })

let one_shot t params select =
  let* select = Lower.subst_params params select in
  let* lower, plan = plan_select t ~name:"adhoc" ~opts:[] select in
  let* entries =
    Registry.read t.reg (fun () ->
        let* m =
          Compile.build ~name:"adhoc" lower plan
            (source_of (Registry.db t.reg) lower)
        in
        Ok (m.M.enumerate ()))
  in
  Ok (Rows { header = lower.Lower.output_cols; rows = rows_of_entries lower entries })

let run_select t params select =
  match matching_view t select with
  | Some (name, v) -> lookup_in_view t name v params
  | None -> one_shot t params select

(* A dataflow plan's EXPLAIN also shows the operator DAG the view would
   run on — one line per node in topological order. *)
let dag_report name (lower : Lower.t) (plan : Planner.plan) =
  match plan.Planner.choice with
  | Planner.Dataflow ->
      let* lines = Compile.dag ~name lower in
      Ok ("\noperator DAG:\n  " ^ String.concat "\n  " lines)
  | _ -> Ok ""

let rec explain t stmt =
  match stmt with
  | Ast.Explain inner -> explain t inner
  | Ast.Create_view { view; opts; select } ->
      let* lower, plan = plan_select t ~name:view ~opts select in
      let* dag = dag_report view lower plan in
      Ok
        (Explained
           (Printf.sprintf "view %s\n%s%s" view (Planner.explain plan) dag))
  | Ast.Select select ->
      let* lower, plan = plan_select t ~name:"adhoc" ~opts:[] select in
      let* dag = dag_report "adhoc" lower plan in
      Ok (Explained (Planner.explain plan ^ dag))
  | Ast.Create_table _ | Ast.Insert _ | Ast.Delete _ ->
      fail "EXPLAIN supports SELECT and CREATE MATERIALIZED VIEW"

let exec t ?(params = []) stmt =
  match stmt with
  | Ast.Create_table { table; cols; fds } -> create_table t table cols fds
  | Ast.Create_view { view; opts; select } -> create_view t view opts select
  | Ast.Insert { table; rows } -> mutate t ~table ~rows ~payload:1 ~verb:"INSERT"
  | Ast.Delete { table; rows } ->
      mutate t ~table ~rows ~payload:(-1) ~verb:"DELETE"
  | Ast.Select select -> run_select t params select
  | Ast.Explain inner -> explain t inner

let exec_text t ?(params = []) text =
  let* stmts = Parser.script text in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | s :: tl -> (
        match exec t ~params s with
        | Ok o -> go (i + 1) (o :: acc) tl
        | Error e -> fail "statement %d: %s" i e)
  in
  go 1 [] stmts

let view_names t = List.map fst t.views

let view_entries t name =
  match List.assoc_opt name t.views with
  | None -> fail "unknown view %s" name
  | Some _ ->
      Ok (Registry.read t.reg (fun () -> (Registry.find t.reg name).M.enumerate ()))

let explain_view t name =
  match List.assoc_opt name t.views with
  | None -> fail "unknown view %s" name
  | Some v ->
      Ok (Printf.sprintf "view %s\n%s" name (Planner.explain v.plan))

let render = function
  | Msg s | Explained s -> s
  | Rows { header; rows } ->
      let b = Buffer.create 128 in
      Buffer.add_string b (String.concat " | " header);
      let payload_is_column =
        List.length header > (match rows with (r, _) :: _ -> List.length r | [] -> max_int)
      in
      List.iter
        (fun (vals, p) ->
          Buffer.add_char b '\n';
          let cells = List.map Value.to_string vals in
          let cells =
            if payload_is_column then cells @ [ string_of_int p ]
            else if p <> 1 then cells @ [ Printf.sprintf "x%d" p ]
            else cells
          in
          Buffer.add_string b (String.concat " | " cells))
        rows;
      Buffer.contents b
