module D = Ivm_data
module U = D.Update
module Db = D.Database.Z
module Rel = D.Relation.Z
module Cq = Ivm_query.Cq
module M = Ivm_engine.Maintainable
module View_tree = Ivm_engine.View_tree
module Strategy = Ivm_engine.Strategy
module Tri = Ivm_engine.Triangle
module Kc = Ivm_engine.Kclique
module Sd = Ivm_engine.Static_dynamic_engine
module St = Ivm_stream
module N = Ivm_net
module Fp = Ivm_fault.Failpoint

type driver = {
  name : string;
  apply : int U.t list -> unit;
  enumerate : unit -> (D.Tuple.t * int) list;
  self_check : unit -> string option;
  finish : unit -> unit;
}

let bug_failpoint = "check.drop_delete"

(* The injectable engine bug: when the failpoint is armed, the wrapped
   driver silently ignores deletes — the canonical polarity regression
   the harness must catch, shrink and file. *)
let maybe_drop_deletes batch =
  match Fp.hit bug_failpoint with
  | Some _ -> List.filter (fun (u : int U.t) -> u.U.payload >= 0) batch
  | None -> batch

let entries rel = Rel.fold (fun tp p acc -> (tp, p) :: acc) rel []
let norm = Oracle.normalize

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ St.Errors.to_string e)

let ok_wire what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ N.Wire.error_to_string e)

let no_check () = None

let plain name apply enumerate =
  { name; apply; enumerate; self_check = no_check; finish = ignore }

(* --- join family ----------------------------------------------------- *)

let view_tree_driver (case : Case.t) =
  let q = Option.get case.Case.query and order = Option.get case.Case.order in
  let vt = View_tree.build q order (Case.db_of case) in
  plain "view-tree"
    (fun batch -> List.iter (View_tree.apply_update vt) (maybe_drop_deletes batch))
    (fun () -> norm (entries (View_tree.output_relation vt)))

let strategy_driver (case : Case.t) kind =
  let q = Option.get case.Case.query and order = Option.get case.Case.order in
  let s = Strategy.create kind q order (Case.db_of case) in
  plain (Strategy.kind_name kind)
    (List.iter (Strategy.apply s))
    (fun () -> norm (entries (Strategy.output s)))

(* --- graph engines --------------------------------------------------- *)

let tri_rel (u : int U.t) =
  match u.U.rel with
  | "R" -> Tri.R
  | "S" -> Tri.S
  | "T" -> Tri.T
  | r -> failwith ("triangle driver: unknown relation " ^ r)

let edge_ints (u : int U.t) =
  (D.Value.to_int (D.Tuple.get u.U.tuple 0), D.Value.to_int (D.Tuple.get u.U.tuple 1))

let scalar_enum count () = norm [ (D.Tuple.unit, count ()) ]

let tri_engine_driver (type e) name ~bug (module E : Tri.ENGINE with type t = e) =
  let eng = E.create () in
  plain name
    (fun batch ->
      let batch = if bug then maybe_drop_deletes batch else batch in
      List.iter
        (fun u ->
          let a, b = edge_ints u in
          E.update eng (tri_rel u) ~a ~b u.U.payload)
        batch)
    (scalar_enum (fun () -> E.count eng))

let kclique_driver (case : Case.t) ~recompute =
  let g = Kc.create ~k:case.Case.k in
  plain (if recompute then "kclique-recompute" else "kclique")
    (fun batch ->
      List.iter
        (fun u ->
          let a, b = edge_ints u in
          if u.U.payload > 0 then ignore (Kc.insert g a b) else ignore (Kc.delete g a b))
        batch)
    (scalar_enum (fun () -> if recompute then Kc.recompute g else Kc.count g))

(* --- static/dynamic -------------------------------------------------- *)

let sd_driver (case : Case.t) =
  let e = Sd.create (Case.db_of case) in
  plain "static-dynamic"
    (fun batch -> List.iter (Sd.apply_update e) batch)
    (fun () -> norm (entries (Sd.output e)))

let all_dynamic_driver (case : Case.t) =
  let e = Sd.All_dynamic.create (Case.db_of case) in
  plain "all-dynamic"
    (fun batch -> List.iter (Sd.All_dynamic.apply_update e) batch)
    (fun () -> norm (entries (Sd.All_dynamic.output e)))

let sd_view_tree_driver (case : Case.t) =
  let vt = View_tree.build Sd.query Sd.order (Case.db_of case) in
  plain "sd-view-tree"
    (fun batch -> List.iter (View_tree.apply_update vt) batch)
    (fun () -> norm (entries (View_tree.output_relation vt)))

(* --- dataflow operator graphs ---------------------------------------- *)

module Df = Ivm_dataflow.Graph

(* Mirror of the left-deep greedy graph build: every atom binds distinct
   columns and the join graph is connected — the only query shapes
   [Df.join] accepts (no cartesian products). *)
let connectable (q : Cq.t) =
  let distinct_vars (a : Cq.atom) =
    List.length (List.sort_uniq compare a.Cq.vars) = List.length a.Cq.vars
  in
  List.for_all distinct_vars q.Cq.atoms
  &&
  match q.Cq.atoms with
  | [] -> false
  | a :: rest ->
      let rec grow cols pending =
        pending = []
        ||
        let touches (a : Cq.atom) = List.exists (fun v -> List.mem v cols) a.Cq.vars in
        match List.partition touches pending with
        | [], _ -> false
        | next, rest ->
            grow
              (List.sort_uniq compare
                 (cols @ List.concat_map (fun (a : Cq.atom) -> a.Cq.vars) next))
              rest
      in
      grow a.Cq.vars rest

let seed_graph g db schemas =
  let updates =
    List.concat_map
      (fun (rel, _) ->
        Rel.fold (fun tp p acc -> U.make ~rel ~tuple:tp ~payload:p :: acc) (Db.find db rel) [])
      schemas
  in
  Df.apply g updates

(* The conjunctive query as an operator DAG: one source per atom,
   left-deep connected natural joins, then the multiplicity-summing
   projection onto the free variables — Eval.aggregate's ring
   semantics. *)
let query_graph (q : Cq.t) db schemas =
  let g = Df.create () in
  let joined =
    match List.map (fun (a : Cq.atom) -> Df.source g ~rel:a.Cq.rel ~schema:a.Cq.vars) q.Cq.atoms with
    | [] -> failwith "dataflow driver: no atoms"
    | n :: rest ->
        let rec grow acc pending =
          if pending = [] then acc
          else
            let cols = Df.node_schema acc in
            let touches n = List.exists (fun c -> List.mem c cols) (Df.node_schema n) in
            match List.partition touches pending with
            | [], _ -> failwith "dataflow driver: disconnected join graph"
            | next :: more, rest -> grow (Df.join g acc next) (more @ rest)
        in
        grow n rest
  in
  Df.output g ~name:"v" (Df.project g ~cols:q.Cq.free joined);
  seed_graph g db schemas;
  g

let dataflow_query_driver (case : Case.t) =
  let q = Option.get case.Case.query in
  let g = query_graph q (Case.db_of case) case.Case.schemas in
  plain "dataflow"
    (fun batch -> Df.apply g batch)
    (fun () -> norm (Df.entries g "v"))

(* The minmax view, shaped exactly like the SQL compiler's lowering of
   SELECT g, MIN(v), MAX(v) ... GROUP BY g: one extrema node over the
   shared source. *)
let minmax_graph (case : Case.t) db =
  let rel, cols = List.hd case.Case.schemas in
  let gcol, vcol =
    match cols with [ a; b ] -> (a, b) | _ -> failwith "minmax driver: schema is not (G, V)"
  in
  let g = Df.create () in
  let src = Df.source g ~rel ~schema:cols in
  Df.output g ~name:"v"
    (Df.extrema g ~group:[ gcol ] ~aggs:[ (Df.Asc, vcol); (Df.Desc, vcol) ] src);
  seed_graph g db case.Case.schemas;
  g

(* The direct graph driver also mirrors the stream into a plain database
   so its self_check can rebuild the whole graph from scratch and demand
   operator-state fingerprint equality — deleting a served extremum must
   leave the live indexes exactly where a cold build lands. *)
let dataflow_minmax_driver (case : Case.t) =
  let db = Case.db_of case in
  let g = minmax_graph case db in
  {
    name = "dataflow";
    apply =
      (fun batch ->
        Df.apply g batch;
        Db.apply_batch db batch);
    enumerate = (fun () -> norm (Df.entries g "v"));
    self_check =
      (fun () ->
        let fresh = minmax_graph case db in
        if Df.state_fingerprint fresh <> Df.state_fingerprint g then
          Some "state fingerprint diverges from a from-scratch rebuild"
        else None);
    finish = ignore;
  }

let minmax_factory (case : Case.t) : Db.t -> M.t =
 fun db -> M.of_dataflow ~name:"v" (minmax_graph case db)

(* --- maintainable factories for the streaming and net paths ---------- *)

let join_factory (case : Case.t) : Db.t -> M.t =
  let q = Option.get case.Case.query and order = Option.get case.Case.order in
  fun db -> M.of_view_tree ~name:"v" q (View_tree.build q order db)

let tri_factory (_ : Case.t) : Db.t -> M.t = M.of_triangle ~name:"v" (module Tri.Delta)

(* --- multi-view plumbing --------------------------------------------- *)

(* The streaming/net/cluster drivers are parameterized over a list of
   registered views. Historical families register exactly one view "v"
   and enumerate it raw; the [Mixed] family registers one view per
   tenant and enumerates the union with a leading view-name column on
   every entry — the same shape the mixed oracle recomputes. Tagging
   keys off the family (not the list length) so a case shrunk down to
   one live tenant still compares in tagged form. *)
let tag_view name entries =
  List.map
    (fun (tp, p) -> (D.Tuple.of_list (D.Value.Str name :: D.Tuple.to_list tp), p))
    entries

let multi_enum (case : Case.t) views find =
  match case.Case.family with
  | Case.Mixed ->
      norm (List.concat_map (fun (name, _) -> tag_view name (find name)) views)
  | _ -> norm (find (fst (List.hd views)))

let mixed_views (case : Case.t) =
  List.map
    (fun tn -> (tn.Ivm_workload.Mixed.name, Ivm_workload.Mixed.factory tn))
    (Ivm_workload.Mixed.of_tables case.Case.schemas)

(* The direct mixed driver: the same supervised registry the streaming
   path uses, minus WAL and scheduler — every tenant view maintained in
   process. This is the bug-susceptible driver of the family. *)
let mixed_direct_driver (case : Case.t) =
  let views = mixed_views case in
  let reg = St.Registry.create (Case.db_of case) in
  List.iter (fun (name, f) -> St.Registry.register reg ~name f) views;
  plain "mixed"
    (fun batch -> St.Registry.apply_batch reg (maybe_drop_deletes batch))
    (fun () ->
      multi_enum case views (fun name -> (St.Registry.find reg name).M.enumerate ()))

(* --- the streaming path: WAL + epoch scheduler + supervised registry,
   driven synchronously one epoch at a time. self_check replays the
   durable state two ways — full WAL from the initial database, and
   checkpoint + WAL suffix — and demands both equal the live run. ------ *)

let stream_driver ~dir ~views (case : Case.t) =
  let wal_path = Filename.concat dir "stream.wal" in
  let ckpt_path = Filename.concat dir "stream.ckpt" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ wal_path; ckpt_path ];
  let metrics = St.Metrics.create () in
  let reg = St.Registry.create ~metrics (Case.db_of case) in
  List.iter (fun (name, f) -> St.Registry.register reg ~name f) views;
  let wal = ok "wal open" (St.Wal.Z.open_log wal_path) in
  let queue = St.Queue.create ~capacity:8192 St.Queue.Block in
  let sched = St.Scheduler.create ~wal ~queue ~registry:reg ~metrics () in
  let save_ckpt () =
    ok "checkpoint save"
      (St.Checkpoint.Z.save ckpt_path ~db:(St.Registry.db reg)
         ~records:(St.Scheduler.applied sched) ~wal_offset:(St.Wal.Z.offset wal))
  in
  (* An initial checkpoint, so a stream short enough to never reach the
     mid-stream save still exercises restore-from-preprocessing. *)
  save_ckpt ();
  let mid = max 1 (List.length case.Case.stream / 2) in
  let epoch = ref 0 in
  let target = ref 0 in
  let enum_of r = multi_enum case views (fun name -> (St.Registry.find r name).M.enumerate ()) in
  let apply batch =
    incr epoch;
    if batch <> [] then begin
      List.iter (fun u -> ignore (St.Queue.push queue (St.Scheduler.item u))) batch;
      target := !target + List.length batch;
      while St.Scheduler.applied sched < !target do
        match St.Scheduler.step sched with
        | Ok true -> ()
        | Ok false -> failwith "stream driver: queue ended early"
        | Error e -> failwith ("stream driver epoch: " ^ St.Errors.to_string e)
      done
    end;
    if !epoch = mid then save_ckpt ()
  in
  let self_check () =
    match St.Wal.Z.sync wal with
    | Error e -> Some ("wal sync: " ^ St.Errors.to_string e)
    | Ok () -> (
        let live = enum_of reg in
        (* Kill-and-replay 1: the whole WAL over the initial database. *)
        let scratch = St.Registry.create (Case.db_of case) in
        List.iter (fun (name, f) -> St.Registry.register scratch ~name f) views;
        let pending = ref [] in
        match
          St.Wal.Z.replay wal_path ~from:St.Wal.header_len (fun u ->
              pending := u :: !pending)
        with
        | Error e -> Some ("wal replay: " ^ St.Errors.to_string e)
        | Ok _ -> (
            St.Registry.apply_batch scratch (List.rev !pending);
            if not (Oracle.equal_entries (enum_of scratch) live) then
              Some "full WAL replay diverges from the live run"
            else
              (* Kill-and-replay 2: checkpoint + WAL suffix. *)
              match
                St.Durable.recover ~wal:wal_path ~ckpt:ckpt_path
                  ~fresh:(fun () -> Case.db_of case)
                  (St.Registry.restore reg)
              with
              | Error e -> Some ("checkpoint + wal suffix recovery: " ^ St.Errors.to_string e)
              | Ok (restored, cursor) ->
                  if not (Oracle.equal_entries (enum_of restored) live) then
                    Some "checkpoint + WAL suffix replay diverges from the live run"
                  else if cursor.St.Checkpoint.records <> St.Scheduler.applied sched then
                    Some "checkpoint + WAL suffix recovers a different record count"
                  else None))
  in
  {
    name = "stream";
    apply;
    enumerate = (fun () -> enum_of reg);
    self_check;
    finish = (fun () -> St.Wal.Z.close wal);
  }

(* --- the net loopback path: a real TCP server over a live scheduler,
   epochs ingested and outputs snapshotted through a Net.Client. On a
   seeded third of the batches the outputs are read straight from the
   registry instead, so the server's cached snapshots fall several
   epochs behind and the next snapshot read patches them with a pending
   delta folded across those epochs — every read, either way, is still
   compared with the oracle. ------------------------------------------ *)

let net_driver ~views (case : Case.t) =
  let metrics = St.Metrics.create () in
  let reg = St.Registry.create ~metrics (Case.db_of case) in
  List.iter (fun (name, f) -> St.Registry.register reg ~name f) views;
  let queue = St.Queue.create ~capacity:8192 St.Queue.Block in
  let sched = St.Scheduler.create ~initial_batch:64 ~queue ~registry:reg ~metrics () in
  let runner = Domain.spawn (fun () -> St.Scheduler.run sched) in
  let ingest updates =
    List.fold_left
      (fun (a, d) u ->
        if St.Queue.push queue (St.Scheduler.item u) then (a + 1, d) else (a, d + 1))
      (0, 0) updates
  in
  let stop_runner () =
    St.Queue.close queue;
    ignore (Domain.join runner)
  in
  let srv =
    try
      ok_wire "server start"
        (N.Server.start ~port:0 ~handlers:2 ~chunk_size:64 ~ingest
           ~on_shutdown:(fun () -> St.Queue.close queue)
           ~registry:reg ~metrics ())
    with e ->
      stop_runner ();
      raise e
  in
  let client =
    try ok_wire "client connect" (N.Client.connect ~port:(N.Server.port srv) ())
    with e ->
      stop_runner ();
      N.Server.stop srv;
      raise e
  in
  let target = ref 0 in
  let skips = Random.State.make [| case.Case.seed; 0x6e6574 |] in
  let apply batch =
    if batch <> [] then begin
      let admitted, dropped = ok_wire "ingest" (N.Client.ingest client batch) in
      if dropped > 0 then failwith "net driver: server dropped updates";
      target := !target + admitted;
      let deadline = Unix.gettimeofday () +. 30. in
      while St.Scheduler.applied sched < !target && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.0005
      done;
      if St.Scheduler.applied sched < !target then failwith "net driver: apply timed out"
    end
  in
  {
    name = "net";
    apply;
    enumerate =
      (fun () ->
        if Random.State.int skips 3 = 0 then
          St.Registry.read reg (fun () ->
              multi_enum case views (fun name -> (St.Registry.find reg name).M.enumerate ()))
        else
          multi_enum case views (fun name ->
              ok_wire "snapshot" (N.Client.snapshot client ~view:name)));
    self_check = no_check;
    finish =
      (fun () ->
        N.Client.close client;
        stop_runner ();
        N.Server.stop srv);
  }

(* --- the cluster path: a 2-shard router over real loopback nodes,
   with a barrier-quiesced kill and promotion halfway through the
   stream, so every case exercises failover recovery. Partition
   soundness: views are multilinear in their atoms, so exactly one
   relation that occurs in exactly one atom may be split by tuple hash
   (the rest broadcast) and the per-node partial views ring-sum to the
   global answer; with no such relation everything is broadcast and
   the view is read from a single replica. ---------------------------- *)

module Cl = Ivm_cluster

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let cluster_policies (case : Case.t) =
  let rels = List.map fst case.Case.schemas in
  match case.Case.family with
  | Case.Mixed ->
      (* Per-tenant partition soundness: every tenant's view is linear
         in exactly one of its private tables — hash-partition that one
         (by the group column for minmax, so a group's whole multiset
         stays on one shard; by tuple for the economy's account ids and
         the joins' pivot), broadcast the rest, and ring-sum the
         scattered per-shard partials per view. *)
      let module Mx = Ivm_workload.Mixed in
      let tenants = Mx.of_tables case.Case.schemas in
      let policies =
        List.concat_map
          (fun (tn : Mx.tenant) ->
            List.map
              (fun (tbl, _) ->
                let policy =
                  match tn.Mx.kind with
                  | Mx.Minmax -> Cl.Topology.Hash_col 0
                  | Mx.Economy -> Cl.Topology.Hash_tuple
                  | Mx.Join | Mx.Triangle | Mx.Cascade ->
                      if String.equal tbl (Mx.table tn "R") then Cl.Topology.Hash_tuple
                      else Cl.Topology.Broadcast
                  | Mx.Window -> Cl.Topology.Broadcast
                in
                (tbl, policy))
              tn.Mx.tables)
          tenants
      in
      let routes =
        List.map
          (fun (tn : Mx.tenant) ->
            ( tn.Mx.name,
              (* Per-shard window watermarks retract panes at different
                 times, so window views replicate instead of scatter. *)
              match tn.Mx.kind with
              | Mx.Window -> Cl.Topology.Replicated
              | _ -> Cl.Topology.Scattered ))
          tenants
      in
      (policies, routes)
  | Case.Minmax ->
      (* Partition by the group column: a group's whole value multiset
         lives on one shard, so per-shard (g, min, max) rows are disjoint
         and ring-sum to the global answer. *)
      ( List.map (fun r -> (r, Cl.Topology.Hash_col 0)) rels,
        [ ("v", Cl.Topology.Scattered) ] )
  | _ -> (
      let atom_rels =
        match (case.Case.family, case.Case.query) with
        | Case.Triangle, _ -> [ "R"; "S"; "T" ]
        | _, Some q -> List.map (fun (a : Cq.atom) -> a.Cq.rel) q.Cq.atoms
        | _, None -> []
      in
      let occurrences r = List.length (List.filter (String.equal r) atom_rels) in
      match List.find_opt (fun r -> occurrences r = 1) rels with
      | Some pivot ->
          ( List.map
              (fun r ->
                ( r,
                  if String.equal r pivot then Cl.Topology.Hash_tuple
                  else Cl.Topology.Broadcast ))
              rels,
            [ ("v", Cl.Topology.Scattered) ] )
      | None ->
          ( List.map (fun r -> (r, Cl.Topology.Broadcast)) rels,
            [ ("v", Cl.Topology.Replicated) ] ))

let cluster_driver ~dir ~views (case : Case.t) =
  let base_dir = Filename.concat dir "cluster" in
  rm_rf base_dir;
  let policies, routes = cluster_policies case in
  let topology = Cl.Topology.create ~shards:2 ~policies ~routes in
  let declare reg =
    List.iter
      (fun (name, cols) ->
        ignore (St.Registry.declare_table reg name (D.Schema.of_list cols)))
      case.Case.schemas;
    List.iter (fun (name, f) -> St.Registry.register reg ~name f) views
  in
  let router =
    match
      Cl.Router.start ~handlers:1 ~standby:false ~probe_interval:0. ~base_dir ~topology
        ~declare ()
    with
    | Ok r -> r
    | Error m -> failwith ("cluster driver start: " ^ m)
  in
  let send what batch =
    match Cl.Router.ingest router batch with
    | Ok (_, 0) -> ()
    | Ok (_, d) -> failwith (Printf.sprintf "cluster driver %s: %d dead-lettered" what d)
    | Error m -> failwith ("cluster driver " ^ what ^ ": " ^ m)
  in
  send "init" (List.map Case.update_of_row case.Case.init);
  let mid = max 1 (List.length case.Case.stream / 2) in
  let epoch = ref 0 in
  let apply batch =
    incr epoch;
    send "ingest" batch;
    if !epoch = mid then begin
      (match Cl.Router.barrier router with
      | Ok _ -> ()
      | Error m -> failwith ("cluster driver barrier: " ^ m));
      Cl.Router.kill_primary router ~shard:0;
      match Cl.Router.fail_over router ~shard:0 with
      | Error m -> failwith ("cluster driver failover: " ^ m)
      | Ok _ ->
          if Cl.Router.take_lost router ~shard:0 <> [] then
            failwith "cluster driver: quiesced kill lost acked records"
    end
  in
  {
    name = "cluster";
    apply;
    enumerate =
      (fun () ->
        multi_enum case views (fun name ->
            match Cl.Router.snapshot router ~view:name with
            | Ok entries -> entries
            | Error m -> failwith ("cluster driver snapshot: " ^ m)));
    self_check = no_check;
    finish = (fun () -> Cl.Router.stop router);
  }

(* --- the SQL front end path: the case rendered as SQL text and pushed
   through lib/sql end to end — lexer, parser, lowering, cost-based
   planner and engine compilation all sit inside the checked loop, and
   the planner is free to pick any engine it likes; the oracle then
   holds it to the same answer as every hand-built driver. Data flows
   through printed INSERT/DELETE statements, so DML parsing and the
   executor's mutation path are fuzzed too. -------------------------- *)

let sql_value_literal = function
  | D.Value.Int i -> string_of_int i
  | D.Value.Real r -> Printf.sprintf "%.12g" r
  | D.Value.Str s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

let sql_of_update (u : int U.t) =
  let row =
    "(" ^ String.concat ", " (List.map sql_value_literal (D.Tuple.to_list u.U.tuple)) ^ ")"
  in
  let rows = String.concat ", " (List.init (abs u.U.payload) (fun _ -> row)) in
  if u.U.payload > 0 then Printf.sprintf "INSERT INTO %s VALUES %s;" u.U.rel rows
  else Printf.sprintf "DELETE FROM %s VALUES %s;" u.U.rel rows

let sql_select (q : Cq.t) =
  let items = match q.Cq.free with [] -> "COUNT(*)" | fs -> String.concat ", " fs in
  Printf.sprintf "SELECT %s FROM %s" items
    (String.concat ", " (List.map (fun (a : Cq.atom) -> a.Cq.rel) q.Cq.atoms))

let sql_view_text (case : Case.t) =
  match case.Case.family with
  | Case.Triangle -> "CREATE MATERIALIZED VIEW v AS SELECT COUNT(*) FROM R, S, T;"
  | Case.Minmax ->
      let rel, cols = List.hd case.Case.schemas in
      let g = List.nth cols 0 and v = List.nth cols 1 in
      Printf.sprintf
        "CREATE MATERIALIZED VIEW v AS SELECT %s, MIN(%s), MAX(%s) FROM %s GROUP BY %s;" g v
        v rel g
  | Case.Static_dynamic ->
      let statics =
        List.filter_map
          (fun (rel, k) -> if k = Ivm_query.Static_dynamic.Static then Some rel else None)
          Sd.adornment
      in
      Printf.sprintf "CREATE MATERIALIZED VIEW v WITH (%s) AS %s;"
        (String.concat ", " (List.map (fun rel -> "STATIC " ^ rel) statics))
        (sql_select Sd.query)
  | Case.Join | Case.Kclique | Case.Mixed ->
      Printf.sprintf "CREATE MATERIALIZED VIEW v AS %s;"
        (sql_select (Option.get case.Case.query))

let sql_driver (case : Case.t) =
  let sess = Ivm_sql.Exec.create () in
  let run what text =
    match Ivm_sql.Exec.exec_text sess text with
    | Ok _ -> ()
    | Error e -> failwith ("sql driver " ^ what ^ ": " ^ e)
  in
  List.iter
    (fun (rel, cols) ->
      run "create table"
        (Printf.sprintf "CREATE TABLE %s (%s);" rel (String.concat ", " cols)))
    case.Case.schemas;
  (* Initial rows land before the view exists, exercising the initial
     load of whatever engine the planner compiles the view onto. *)
  List.iter (fun r -> run "init" (sql_of_update (Case.update_of_row r))) case.Case.init;
  run "create view" (sql_view_text case);
  plain "sql"
    (fun batch ->
      List.iter (fun u -> if u.U.payload <> 0 then run "dml" (sql_of_update u)) batch)
    (fun () ->
      match Ivm_sql.Exec.view_entries sess "v" with
      | Ok es -> norm es
      | Error e -> failwith ("sql driver enumerate: " ^ e))

(* --- the matrix ------------------------------------------------------ *)

let join_builders : (string * (dir:string -> Case.t -> driver)) list =
  [
    ("view-tree", fun ~dir:_ c -> view_tree_driver c);
    ("eager-fact", fun ~dir:_ c -> strategy_driver c Strategy.Eager_fact);
    ("eager-list", fun ~dir:_ c -> strategy_driver c Strategy.Eager_list);
    ("lazy-fact", fun ~dir:_ c -> strategy_driver c Strategy.Lazy_fact);
    ("lazy-list", fun ~dir:_ c -> strategy_driver c Strategy.Lazy_list);
    ("stream", fun ~dir c -> stream_driver ~dir ~views:[ ("v", join_factory c) ] c);
    ("net", fun ~dir:_ c -> net_driver ~views:[ ("v", join_factory c) ] c);
    ("cluster", fun ~dir c -> cluster_driver ~dir ~views:[ ("v", join_factory c) ] c);
    ("sql", fun ~dir:_ c -> sql_driver c);
  ]

let triangle_builders : (string * (dir:string -> Case.t -> driver)) list =
  [
    ("tri-delta", fun ~dir:_ _ -> tri_engine_driver "tri-delta" ~bug:true (module Tri.Delta));
    ( "tri-one-view",
      fun ~dir:_ _ -> tri_engine_driver "tri-one-view" ~bug:false (module Tri.One_view) );
    ( "tri-eps",
      fun ~dir:_ _ ->
        tri_engine_driver "tri-eps" ~bug:false (module Ivm_eps.Triangle_count.Half) );
    ("stream", fun ~dir c -> stream_driver ~dir ~views:[ ("v", tri_factory c) ] c);
    ("net", fun ~dir:_ c -> net_driver ~views:[ ("v", tri_factory c) ] c);
    ("cluster", fun ~dir c -> cluster_driver ~dir ~views:[ ("v", tri_factory c) ] c);
    ("sql", fun ~dir:_ c -> sql_driver c);
  ]

let kclique_builders : (string * (dir:string -> Case.t -> driver)) list =
  [
    ("kclique", fun ~dir:_ c -> kclique_driver c ~recompute:false);
    ("kclique-recompute", fun ~dir:_ c -> kclique_driver c ~recompute:true);
  ]

let sd_builders : (string * (dir:string -> Case.t -> driver)) list =
  [
    ("static-dynamic", fun ~dir:_ c -> sd_driver c);
    ("all-dynamic", fun ~dir:_ c -> all_dynamic_driver c);
    ("sd-view-tree", fun ~dir:_ c -> sd_view_tree_driver c);
    ("sql", fun ~dir:_ c -> sql_driver c);
  ]

let minmax_builders : (string * (dir:string -> Case.t -> driver)) list =
  [
    ("dataflow", fun ~dir:_ c -> dataflow_minmax_driver c);
    ("stream", fun ~dir c -> stream_driver ~dir ~views:[ ("v", minmax_factory c) ] c);
    ("net", fun ~dir:_ c -> net_driver ~views:[ ("v", minmax_factory c) ] c);
    ("cluster", fun ~dir c -> cluster_driver ~dir ~views:[ ("v", minmax_factory c) ] c);
    ("sql", fun ~dir:_ c -> sql_driver c);
  ]

let mixed_builders : (string * (dir:string -> Case.t -> driver)) list =
  [
    ("mixed", fun ~dir:_ c -> mixed_direct_driver c);
    ("stream", fun ~dir c -> stream_driver ~dir ~views:(mixed_views c) c);
    ("net", fun ~dir:_ c -> net_driver ~views:(mixed_views c) c);
    ("cluster", fun ~dir c -> cluster_driver ~dir ~views:(mixed_views c) c);
  ]

let dataflow_entry : string * (dir:string -> Case.t -> driver) =
  ("dataflow", fun ~dir:_ c -> dataflow_query_driver c)

let builders (case : Case.t) =
  match case.Case.family with
  | Case.Join ->
      (* The operator graph cannot express cartesian products or atoms
         with repeated variables; it joins the matrix only on queries it
         can run, so a build failure stays a real divergence. *)
      join_builders
      @ (match case.Case.query with
        | Some q when connectable q -> [ dataflow_entry ]
        | _ -> [])
  | Case.Triangle -> triangle_builders
  | Case.Kclique -> kclique_builders
  | Case.Static_dynamic -> sd_builders @ [ dataflow_entry ]
  | Case.Minmax -> minmax_builders
  | Case.Mixed -> mixed_builders

let names case = List.map fst (builders case)

let all_names =
  List.sort_uniq compare
    (List.concat_map (List.map fst)
       [
         join_builders @ [ dataflow_entry ];
         triangle_builders;
         kclique_builders;
         sd_builders;
         minmax_builders;
         mixed_builders;
       ])

let build ~dir ?(select = []) (case : Case.t) =
  builders case
  |> List.filter (fun (n, _) -> select = [] || List.mem n select)
  |> List.map (fun (n, f) -> (n, fun () -> f ~dir case))
