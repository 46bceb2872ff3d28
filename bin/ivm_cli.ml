(* ivm-cli: classify queries along the paper's taxonomy and run the
   headline workloads from the command line.

   Examples:
     ivm_cli classify "Q(A, B) = R(A, B), S(B, C)"
     ivm_cli classify --fds "zip -> locn" \
       "Q(locn, zip) = Inventory(locn, d, k), Weather(locn, d), \
        Location(locn, zip), Census(zip), Demographics(zip)"
     ivm_cli classify --adorn "T: static" "Q(A,B,C) = R(A,D), S(A,B), T(B,C)"
     ivm_cli classify "Q(C | A, B) = E1(A,B), E2(B,C), E3(C,A)"
     ivm_cli tpch
     ivm_cli triangles --updates 50000 --nodes 500 *)

open Cmdliner

let classify_cmd =
  let query_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Query, e.g. \"Q(A | B) = S(A, B), T(B)\"; head variables \
                 after | are input variables (access pattern).")
  in
  let fds_arg =
    Arg.(value & opt string "" & info [ "fds" ] ~docv:"FDS"
           ~doc:"Functional dependencies, e.g. \"A -> B; C, D -> E\".")
  in
  let adorn_arg =
    Arg.(value & opt string "" & info [ "adorn" ] ~docv:"ADORNMENT"
           ~doc:"Static/dynamic adornment, e.g. \"T: static; R: dynamic\".")
  in
  let run query fds_s adorn_s =
    let ( let* ) r f = match r with Error e -> `Error (false, e) | Ok v -> f v in
    let* parsed = Ivm_query.Parse.query query in
    let* fds = Ivm_query.Parse.fds fds_s in
    let* adorn = Ivm_query.Parse.adornment adorn_s in
    let access = if parsed.Ivm_query.Parse.input = [] then None else Some parsed.Ivm_query.Parse.input in
    let adornment = if adorn = [] then None else Some adorn in
    let module Tx = Ivm_query.Taxonomy in
    let analysis = Tx.analyze ~fds ?access ?adornment parsed.Ivm_query.Parse.cq in
    Format.printf "%a@." Tx.pp_analysis analysis;
    (match analysis.Tx.verdict with
    | Tx.Best_possible { order = Some o; _ } ->
        Format.printf "view tree order: %a@." Ivm_query.Variable_order.pp o
    | Tx.Best_possible _ | Tx.Amortized_best _ | Tx.Worst_case_optimal _ | Tx.Delta_only _
      -> ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify a query along the paper's taxonomy (Sec. 4-5)")
    Term.(ret (const run $ query_arg $ fds_arg $ adorn_arg))

let tpch_cmd =
  let run () =
    let cs = Ivm_workload.Tpch.study () in
    List.iter
      (fun (c : Ivm_workload.Tpch.classification) ->
        Printf.printf "Q%-2d  boolean:%-5b +fds:%-5b  non-boolean:%-5b +fds:%-5b  q-hier+fds:%b\n"
          c.Ivm_workload.Tpch.id c.boolean_hier c.boolean_hier_fd c.nonboolean_hier
          c.nonboolean_hier_fd c.q_hier_fd)
      cs;
    let s = Ivm_workload.Tpch.summarize cs in
    Printf.printf
      "hierarchical: boolean %d/22 (paper: 8), non-boolean %d/22 (paper: 13)\n\
       with FDs:     boolean %d/22 (paper: 12), non-boolean %d/22 (paper: 17)\n"
      s.Ivm_workload.Tpch.boolean_total s.Ivm_workload.Tpch.nonboolean_total
      s.Ivm_workload.Tpch.boolean_fd_total s.Ivm_workload.Tpch.nonboolean_fd_total
  in
  Cmd.v (Cmd.info "tpch" ~doc:"Run the TPC-H classification study (Sec. 4.4)")
    Term.(const run $ const ())

let triangles_cmd =
  let updates_arg =
    Arg.(value & opt int 50_000 & info [ "updates" ] ~docv:"N" ~doc:"Stream length.")
  in
  let nodes_arg =
    Arg.(value & opt int 500 & info [ "nodes" ] ~docv:"K" ~doc:"Graph node count.")
  in
  let domains_arg =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"D"
           ~doc:"Domain-pool width for parallel batch maintenance; 1 runs \
                 the sequential single-tuple engines only.")
  in
  let batch_arg =
    Arg.(value & opt int 1_000 & info [ "batch" ] ~docv:"B"
           ~doc:"Batch size for the parallel engine (with --domains > 1).")
  in
  let run updates nodes domains batch =
    let module G = Ivm_workload.Graph_gen in
    let module T = Ivm_engine.Triangle in
    let module Tb = Ivm_engine.Triangle_batch in
    if domains < 1 then (prerr_endline "--domains must be >= 1"; exit 2);
    if batch < 1 then (prerr_endline "--batch must be >= 1"; exit 2);
    let spec = { G.nodes; skew = 1.1; delete_ratio = 0.2 } in
    let delta = T.Delta.create () in
    let eps = Ivm_eps.Triangle_count.create ~epsilon:0.5 () in
    let gen = G.create spec in
    let edges = ref [] in
    let t0 = Sys.time () in
    G.prefill gen updates (fun e ->
        let rel = match e.G.rel with 0 -> T.R | 1 -> T.S | _ -> T.T in
        T.Delta.update delta rel ~a:e.G.src ~b:e.G.dst e.G.mult;
        Ivm_eps.Triangle_count.update eps rel ~a:e.G.src ~b:e.G.dst e.G.mult;
        edges := (rel, e.G.src, e.G.dst, e.G.mult) :: !edges);
    let dt = Sys.time () -. t0 in
    Printf.printf "streamed %d updates in %.2fs (%.0f/s)\n" updates dt
      (float_of_int updates /. dt);
    Printf.printf "triangle count: %d (delta) = %d (ivm-eps)\n" (T.Delta.count delta)
      (Ivm_eps.Triangle_count.count eps);
    if T.Delta.count delta <> Ivm_eps.Triangle_count.count eps then exit 1;
    if domains > 1 then begin
      (* Replay the same stream batch-wise through the parallel front and
         cross-check the count: ring payloads make batches commute
         (Sec. 2), so the result must match the sequential engines. *)
      let stream = Array.of_list (List.rev !edges) in
      let n = Array.length stream in
      let count, dt_par =
        Ivm_par.Domain_pool.with_pool ~domains (fun pool ->
            let eng = Tb.Delta.create ~pool () in
            let t0 = Sys.time () in
            let i = ref 0 in
            while !i < n do
              let len = min batch (n - !i) in
              Tb.Delta.apply_batch eng
                (Array.to_list (Array.sub stream !i len));
              i := !i + len
            done;
            (Tb.Delta.count eng, Sys.time () -. t0))
      in
      Printf.printf
        "parallel batch replay: %d domains, batch %d: %.2fs (%.0f/s), count %d\n"
        domains batch dt_par (float_of_int n /. dt_par) count;
      if count <> T.Delta.count delta then begin
        prerr_endline "parallel count diverges from sequential"; exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "triangles" ~doc:"Maintain the triangle count over a random edge stream (Sec. 3)")
    Term.(const run $ updates_arg $ nodes_arg $ domains_arg $ batch_arg)

(* Exit with a clean one-line message instead of a backtrace when a
   durability operation fails for real. *)
let ok_or_die what = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "ivm_cli: %s: %s\n" what (Ivm_stream.Errors.to_string e);
      exit 1

(* The serving workload shared by [serve] and [chaos]: three binary
   edge relations and a heterogeneous set of views over them (delta
   kernel, view tree, two recomputation strategies). *)
module Views = struct
  module D = Ivm_data
  module Db = D.Database.Z
  module M = Ivm_engine.Maintainable
  module Tri = Ivm_engine.Triangle
  module Tb = Ivm_engine.Triangle_batch

  let schemas = [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]); ("T", [ "C"; "A" ]) ]

  let make_db () =
    let db = Db.create () in
    List.iter (fun (n, vars) -> ignore (Db.declare db n (D.Schema.of_list vars))) schemas;
    db

  let q_rs =
    Ivm_query.Cq.make ~name:"paths_rs" ~free:[ "B"; "A"; "C" ]
      [ Ivm_query.Cq.atom "R" [ "A"; "B" ]; Ivm_query.Cq.atom "S" [ "B"; "C" ] ]

  let q_st =
    Ivm_query.Cq.make ~name:"paths_st" ~free:[ "C"; "B"; "A" ]
      [ Ivm_query.Cq.atom "S" [ "B"; "C" ]; Ivm_query.Cq.atom "T" [ "C"; "A" ] ]

  let tri_factory (db : Db.t) : M.t =
    let eng = Tb.Delta.create () in
    List.iter
      (fun name ->
        let rel = match name with "R" -> Tri.R | "S" -> Tri.S | _ -> Tri.T in
        D.Relation.Z.iter
          (fun t p ->
            Tb.Delta.update eng rel
              ~a:(D.Value.to_int (D.Tuple.get t 0))
              ~b:(D.Value.to_int (D.Tuple.get t 1))
              p)
          (Db.find db name))
      [ "R"; "S"; "T" ];
    M.of_triangle_batch ~name:"tri-count" (module Tb.Delta) eng

  let tree_factory q name (db : Db.t) : M.t =
    let forest = Option.get (Ivm_query.Variable_order.canonical q) in
    M.of_view_tree ~name q (Ivm_engine.View_tree.build q forest db)

  let strategy_factory kind q name (db : Db.t) : M.t =
    let forest = Option.get (Ivm_query.Variable_order.canonical q) in
    M.of_strategy ~name (Ivm_engine.Strategy.create kind q forest db)

  let standard =
    [
      ("tri-count", tri_factory);
      ("paths-rs", tree_factory q_rs "paths-rs");
      ("paths-st", strategy_factory Ivm_engine.Strategy.Lazy_fact q_st "paths-st");
      ("paths-rs-eager", strategy_factory Ivm_engine.Strategy.Eager_fact q_rs "paths-rs-eager");
    ]

  (* A view whose engine fails on every apply: the supervision demo.
     Its factory succeeds, so recovery rebuilds it — and it fails
     again, until the registry quarantines it. *)
  let flaky_factory (_ : Db.t) : M.t =
    {
      M.name = "flaky";
      relations = [ "R" ];
      apply_batch = (fun _ -> failwith "flaky engine: injected apply failure");
      apply_delta = None;
      output_count = (fun () -> 0);
      fingerprint = (fun () -> 0);
      enumerate = (fun () -> []);
    }

  let register ?(flaky = false) reg =
    List.iter (fun (name, f) -> Ivm_stream.Registry.register reg ~name f) standard;
    if flaky then Ivm_stream.Registry.register reg ~name:"flaky" flaky_factory
end

let serve_cmd =
  let updates_arg =
    Arg.(value & opt int 100_000 & info [ "updates" ] ~docv:"N" ~doc:"Stream length.")
  in
  let nodes_arg =
    Arg.(value & opt int 200 & info [ "nodes" ] ~docv:"K" ~doc:"Graph node count.")
  in
  let producers_arg =
    Arg.(value & opt int 2 & info [ "producers" ] ~docv:"P"
           ~doc:"Producer domains feeding the queue concurrently.")
  in
  let domains_arg =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"D"
           ~doc:"Domain-pool width for fanning view maintenance out; 1 \
                 maintains the views sequentially.")
  in
  let queue_arg =
    Arg.(value & opt int 8_192 & info [ "queue" ] ~docv:"C" ~doc:"Queue capacity.")
  in
  let policy_arg =
    Arg.(value & opt (enum [ ("block", Ivm_stream.Queue.Block);
                             ("drop", Ivm_stream.Queue.Drop_newest);
                             ("latest", Ivm_stream.Queue.Drop_oldest) ])
           Ivm_stream.Queue.Block
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Backpressure policy: block (lossless), drop (reject when \
                   full) or latest (evict oldest).")
  in
  let target_ms_arg =
    Arg.(value & opt float 2.0 & info [ "target-ms" ] ~docv:"MS"
           ~doc:"Target epoch apply latency steering the adaptive batch cap.")
  in
  let dir_arg =
    Arg.(value & opt string "" & info [ "dir" ] ~docv:"DIR"
           ~doc:"Directory for the WAL and checkpoint (default: a fresh \
                 directory under the system temp dir).")
  in
  let stats_every_arg =
    Arg.(value & opt int 200 & info [ "stats-every" ] ~docv:"E"
           ~doc:"Print live stats every E epochs (0 disables).")
  in
  let listen_arg =
    Arg.(value & opt int (-1) & info [ "listen" ] ~docv:"PORT"
           ~doc:"Serve the wire protocol on this TCP port (0 picks an \
                 ephemeral port). The process then keeps serving after the \
                 internal producers finish, until a client sends Shutdown.")
  in
  let handlers_arg =
    Arg.(value & opt int 4 & info [ "handlers" ] ~docv:"H"
           ~doc:"Connection-handler domains for --listen (bounds concurrent \
                 connections).")
  in
  let run updates nodes producers domains queue_cap policy target_ms dir stats_every
      listen handlers =
    let module G = Ivm_workload.Graph_gen in
    let module D = Ivm_data in
    let module U = D.Update in
    let module Db = D.Database.Z in
    let module M = Ivm_engine.Maintainable in
    let module Tri = Ivm_engine.Triangle in
    let module Tb = Ivm_engine.Triangle_batch in
    let module St = Ivm_stream in
    if (updates < 1 && listen < 0) || updates < 0 || producers < 1 || domains < 1
       || queue_cap < 1
    then begin
      prerr_endline
        "--producers, --domains and --queue must be >= 1; --updates must be >= 1 \
         (>= 0 with --listen)";
      exit 2
    end;
    if handlers < 1 then begin
      prerr_endline "--handlers must be >= 1";
      exit 2
    end;
    let dir =
      if dir <> "" then dir
      else
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ivm_serve_%d" (Unix.getpid ()))
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let wal_path = Filename.concat dir "updates.wal" in
    let ckpt_path = Filename.concat dir "state.ckpt" in
    List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ wal_path; ckpt_path ];
    let pool =
      if domains > 1 then Some (Ivm_par.Domain_pool.create ~domains) else None
    in
    let finally () = Option.iter Ivm_par.Domain_pool.destroy pool in
    Fun.protect ~finally (fun () ->
        let metrics = St.Metrics.create () in
        let reg = St.Registry.create ?pool ~metrics (Views.make_db ()) in
        Views.register reg;
        (* SQL session grafted onto the serving registry: the wire's
           Create_view/Explain ops execute against it. Handler domains
           may issue SQL concurrently and the session catalog is not
           domain-safe, so the callbacks serialize on one mutex. The
           planner's read/write mix comes from the live metrics. *)
        let sql_session =
          Ivm_sql.Exec.create ~registry:reg
            ~stats:(fun () ->
              let count name = St.Metrics.Hist.count (St.Metrics.op metrics name) in
              { Ivm_sql.Planner.reads = count "lookup" + count "snapshot";
                writes = metrics.St.Metrics.ingested })
            ()
        in
        let sql_mutex = Mutex.create () in
        let with_sql f =
          Mutex.lock sql_mutex;
          Fun.protect ~finally:(fun () -> Mutex.unlock sql_mutex) f
        in
        let sql_create sql =
          with_sql (fun () ->
              match Ivm_sql.Exec.exec_text sql_session sql with
              | Ok outs ->
                  Ok (String.concat "\n" (List.map Ivm_sql.Exec.render outs))
              | Error e -> Error e)
        in
        let sql_explain sql =
          with_sql (fun () ->
              match Ivm_sql.Parser.stmt sql with
              | Error e -> Error e
              | Ok stmt ->
                  let stmt =
                    match stmt with
                    | Ivm_sql.Ast.Explain _ -> stmt
                    | s -> Ivm_sql.Ast.Explain s
                  in
                  (match Ivm_sql.Exec.exec sql_session stmt with
                  | Ok out -> Ok (Ivm_sql.Exec.render out)
                  | Error e -> Error e))
        in
        let wal = ok_or_die "open WAL" (St.Wal.Z.open_log wal_path) in
        let queue = St.Queue.create ~capacity:queue_cap policy in
        (* Delta subscribers are fed from the scheduler's epoch hook;
           the server does not exist yet when the scheduler is built,
           hence the forward reference. *)
        let server = ref None in
        let on_apply ~epoch front =
          match !server with
          | Some srv -> Ivm_net.Server.publish_delta srv ~epoch front
          | None -> ()
        in
        (* Admin-checkpoint rendezvous: a handler wanting a checkpoint
           must not snapshot mid-epoch (the WAL may then be ahead of the
           applied state), so it parks on this condition and pushes a
           zero-payload tick to force an epoch even on an idle stream;
           the scheduler's epoch hook performs the save at the boundary,
           where WAL offset and registry state coincide. *)
        let ck_mutex = Mutex.create () in
        let ck_cond = Condition.create () in
        let ck_requested = ref false in
        let ck_result = ref None in
        let checkpointed = ref false in
        let request_checkpoint () =
          Mutex.lock ck_mutex;
          ck_requested := true;
          let tick =
            U.make ~rel:"R" ~tuple:(D.Tuple.of_ints [ 0; 0 ]) ~payload:0
          in
          if not (St.Queue.push queue (St.Scheduler.item tick)) then begin
            ck_requested := false;
            Mutex.unlock ck_mutex;
            Error "server is shutting down"
          end
          else begin
            while !ck_result = None do
              Condition.wait ck_cond ck_mutex
            done;
            let r = Option.get !ck_result in
            ck_result := None;
            Mutex.unlock ck_mutex;
            r
          end
        in
        let finish_checkpoint r =
          Mutex.lock ck_mutex;
          if !ck_requested then begin
            ck_requested := false;
            ck_result := Some r;
            Condition.broadcast ck_cond
          end;
          Mutex.unlock ck_mutex
        in
        let save_checkpoint ~records =
          St.Checkpoint.Z.save ckpt_path ~db:(St.Registry.db reg) ~records
            ~wal_offset:(St.Wal.Z.offset wal)
        in
        let epoch_checkpoint ~records =
          if !ck_requested then
            finish_checkpoint
              (match save_checkpoint ~records with
              | Ok () ->
                  checkpointed := true;
                  Ok (St.Wal.Z.offset wal)
              | Error e -> Error (St.Errors.to_string e))
        in
        let sched =
          St.Scheduler.create ~wal ~target_latency:(target_ms /. 1_000.) ~queue
            ~registry:reg ~metrics ~on_apply ()
        in
        if listen >= 0 then begin
          let ingest ups =
            List.fold_left
              (fun (a, d) u ->
                if St.Queue.push queue (St.Scheduler.item u) then (a + 1, d)
                else (a, d + 1))
              (0, 0) ups
          in
          let ingest_rw ups =
            let admitted, dropped = ingest ups in
            (admitted, dropped, St.Queue.pushed queue)
          in
          let srv =
            match
              Ivm_net.Server.start ~port:listen ~handlers ~ingest ~ingest_rw
                ~served:(fun () -> St.Scheduler.applied sched)
                ~checkpoint:request_checkpoint ~create_view:sql_create
                ~explain:sql_explain
                ~on_shutdown:(fun () -> St.Queue.close queue)
                ~registry:reg ~metrics ()
            with
            | Ok srv -> srv
            | Error e ->
                Printf.eprintf "ivm_cli: listen: %s\n" (Ivm_net.Wire.error_to_string e);
                exit 1
          in
          server := Some srv;
          Printf.printf "listening on 127.0.0.1:%d (%d handler domains)\n%!"
            (Ivm_net.Server.port srv) handlers
        end;
        Printf.printf
          "serving %d views | %d updates, %d producer(s), %d domain(s), queue %d (%s)\n\
           wal: %s\n%!"
          (St.Registry.view_count reg) updates producers domains queue_cap
          (St.Queue.policy_name policy) wal_path;
        let per_producer = updates / producers in
        let producer_domains =
          List.init producers (fun p ->
              let n = if p = 0 then updates - (per_producer * (producers - 1)) else per_producer in
              Domain.spawn (fun () ->
                  let gen = G.create ~seed:(41 + p) { G.nodes; skew = 1.1; delete_ratio = 0.2 } in
                  for _ = 1 to n do
                    let e = G.next gen in
                    let rel = match e.G.rel with 0 -> "R" | 1 -> "S" | _ -> "T" in
                    let u =
                      U.make ~rel ~tuple:(D.Tuple.of_ints [ e.G.src; e.G.dst ]) ~payload:e.G.mult
                    in
                    ignore (St.Queue.push queue (St.Scheduler.item u))
                  done))
        in
        let closer =
          Domain.spawn (fun () ->
              List.iter Domain.join producer_domains;
              (* With a network listener the stream outlives the internal
                 producers: the queue closes when a client asks for
                 Shutdown, not when the synthetic load runs out. *)
              if listen < 0 then St.Queue.close queue)
        in
        let t0 = Unix.gettimeofday () in
        St.Scheduler.run
          ~on_epoch:(fun s ->
            let applied = St.Scheduler.applied s in
            epoch_checkpoint ~records:applied;
            if updates > 0 && (not !checkpointed) && applied >= updates / 2 then begin
              checkpointed := true;
              ok_or_die "save checkpoint" (save_checkpoint ~records:applied);
              Printf.printf "checkpoint @ %d updates (wal offset %d)\n%!" applied
                (St.Wal.Z.offset wal)
            end;
            if stats_every > 0 && metrics.St.Metrics.epochs mod stats_every = 0 then
              Printf.printf
                "epoch %-6d applied %-8d batch cap %-6d p50 %.3fms p99 %.3fms\n%!"
                metrics.St.Metrics.epochs applied (St.Scheduler.batch_limit s)
                (St.Metrics.Hist.percentile metrics.St.Metrics.latency 0.5 *. 1e3)
                (St.Metrics.Hist.percentile metrics.St.Metrics.latency 0.99 *. 1e3))
          sched
        |> ok_or_die "stream epoch";
        let dt = Unix.gettimeofday () -. t0 in
        (* A checkpoint request racing the queue close would otherwise
           park its handler forever — and Server.stop below waits for
           handlers. *)
        finish_checkpoint (Error "stream ended before the checkpoint ran");
        Domain.join closer;
        Option.iter Ivm_net.Server.stop !server;
        St.Wal.Z.close wal;
        let applied = St.Scheduler.applied sched in
        Printf.printf
          "\ndrained %d updates in %.2fs (%.0f/s), %d epochs, %d coalesced, %d dropped\n"
          applied dt
          (float_of_int applied /. dt)
          metrics.St.Metrics.epochs metrics.St.Metrics.coalesced (St.Queue.dropped queue);
        Printf.printf "end-to-end latency: p50 %.3fms  p99 %.3fms  max %.3fms\n\n"
          (St.Metrics.Hist.percentile metrics.St.Metrics.latency 0.5 *. 1e3)
          (St.Metrics.Hist.percentile metrics.St.Metrics.latency 0.99 *. 1e3)
          (St.Metrics.Hist.max_value metrics.St.Metrics.latency *. 1e3);
        Printf.printf "%-16s %10s %8s %12s %12s %12s\n" "view" "updates" "batches"
          "through/s" "apply p50" "apply p99";
        List.iter
          (fun (name, _) ->
            let v = St.Metrics.view metrics name in
            Printf.printf "%-16s %10d %8d %12.0f %9.3f ms %9.3f ms\n" name
              v.St.Metrics.updates v.St.Metrics.batches
              (float_of_int v.St.Metrics.updates /. dt)
              (St.Metrics.Hist.percentile v.St.Metrics.apply 0.5 *. 1e3)
              (St.Metrics.Hist.percentile v.St.Metrics.apply 0.99 *. 1e3))
          (St.Registry.views reg);
        Printf.printf "\n--- metrics (Prometheus exposition, also on the stats op) ---\n%s%!"
          (St.Metrics.render metrics);
        (* Kill-and-restart verification: rebuild from the checkpoint and
           the WAL suffix, then compare fingerprints with the live run. *)
        if !checkpointed then begin
          let restored, cursor =
            ok_or_die "recover"
              (St.Durable.recover ~wal:wal_path ~ckpt:ckpt_path ~fresh:Views.make_db
                 (St.Registry.restore ?pool reg))
          in
          let live = St.Registry.fingerprints reg in
          let recov = St.Registry.fingerprints restored in
          let ok =
            List.for_all2 (fun (n, a) (n', b) -> n = n' && a = b) live recov
            && cursor.St.Checkpoint.records = applied
          in
          Printf.printf "\nrestart verification (checkpoint + wal replay): %s\n"
            (if ok then "state matches live run" else "MISMATCH");
          if not ok then begin
            Printf.eprintf "  records: live %d vs recovered %d\n" applied
              cursor.St.Checkpoint.records;
            List.iter2
              (fun (n, a) (_, b) ->
                if a <> b then Printf.eprintf "  %s: live %d vs recovered %d\n" n a b)
              live recov;
            exit 1
          end
        end
        else
          print_endline
            "\nrestart verification skipped (stream too short for a mid-run checkpoint)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Stream updates through the durable multi-view maintenance runtime \
             (WAL + epoch micro-batching + checkpoint/restore)")
    Term.(const run $ updates_arg $ nodes_arg $ producers_arg $ domains_arg
          $ queue_arg $ policy_arg $ target_ms_arg $ dir_arg $ stats_every_arg
          $ listen_arg $ handlers_arg)

(* ------------------------------------------------------------------ *)
(* chaos: soak the serve pipeline under seeded fault schedules and
   verify that the final per-view fingerprints equal a fault-free
   reference run of the same stream.                                   *)

module Chaos = struct
  module D = Ivm_data
  module U = D.Update
  module St = Ivm_stream
  module Fp = Ivm_fault.Failpoint
  module G = Ivm_workload.Graph_gen

  (* The deterministic input stream. [poison] splices in an update whose
     tuple carries a string where the triangle kernel expects ints — a
     decode-able, loggable update that only the consuming engine rejects. *)
  let make_stream ~updates ~nodes ~poison =
    let gen = G.create ~seed:7 { G.nodes; skew = 1.1; delete_ratio = 0.2 } in
    let arr =
      Array.init updates (fun _ -> U.make ~rel:"R" ~tuple:(D.Tuple.of_ints [ 0; 0 ]) ~payload:0)
    in
    for i = 0 to updates - 1 do
      arr.(i) <-
        (if poison && i = updates / 3 then
           U.make ~rel:"R"
             ~tuple:(D.Tuple.of_list [ D.Value.Str "poison"; D.Value.Int 0 ])
             ~payload:1
         else begin
           let e = G.next gen in
           let rel = match e.G.rel with 0 -> "R" | 1 -> "S" | _ -> "T" in
           U.make ~rel ~tuple:(D.Tuple.of_ints [ e.G.src; e.G.dst ]) ~payload:e.G.mult
         end)
    done;
    arr

  type outcome = {
    fingerprints : (string * int) list;
    crashes : int;
    unhealthy_seen : string list; (* views observed degraded/quarantined mid-run *)
    quarantined_seen : string list;
    dead_lettered : int;
    healthy_updates : int; (* updates absorbed by healthy views across the run *)
  }

  (* Run the stream to completion through WAL + checkpoint + supervised
     registry, treating every durability error as a process crash:
     drop WAL buffers, forget all in-memory state, and recover with
     [Durable.recover]. The stream resumes at the recovered record
     count — the checkpoint's count plus the WAL suffix replayed from
     its byte offset. *)
  let run_stream ~label ~dir ~stream ~flaky () =
    let wal_path = Filename.concat dir (label ^ ".wal") in
    let ckpt_path = Filename.concat dir (label ^ ".ckpt") in
    let dead_path = Filename.concat dir (label ^ ".dead.wal") in
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ wal_path; ckpt_path; ckpt_path ^ ".tmp"; dead_path ];
    let n = Array.length stream in
    let queue_cap = 512 in
    let ckpt_every = max 1 (n / 5) in
    let ( let* ) = Result.bind in
    let reg_prev = ref None in
    let current_wal = ref None in
    let crashes = ref 0 in
    let unhealthy = ref [] in
    let quarantined = ref [] in
    let observe reg =
      List.iter
        (fun (name, h) ->
          if h <> St.Registry.Healthy && not (List.mem name !unhealthy) then
            unhealthy := name :: !unhealthy;
          if h = St.Registry.Quarantined && not (List.mem name !quarantined) then
            quarantined := name :: !quarantined)
        (St.Registry.statuses reg)
    in
    let incarnation metrics =
      let* reg, { St.Checkpoint.records = resume; wal_offset } =
        St.Durable.recover ~wal:wal_path ~ckpt:ckpt_path ~fresh:Views.make_db (fun db ->
            match !reg_prev with
            | None ->
                let r = St.Registry.create ~metrics ~backoff_base:0.0005 ~seed:11 db in
                Views.register ~flaky r;
                r
            | Some old -> St.Registry.restore ~metrics old db)
      in
      reg_prev := Some reg;
      let* wal = St.Wal.Z.open_log ~from:wal_offset wal_path in
      current_wal := Some wal;
      let queue = St.Queue.create ~capacity:queue_cap St.Queue.Block in
      let sched =
        St.Scheduler.create ~wal ~queue ~registry:reg ~metrics ~self_check_every:32 ()
      in
      let fed = ref resume in
      let next_ckpt = ref ((resume / ckpt_every) + 1) in
      let rec chunks () =
        if !fed >= n then Ok ()
        else begin
          let len = min queue_cap (n - !fed) in
          for i = !fed to !fed + len - 1 do
            ignore (St.Queue.push queue (St.Scheduler.item stream.(i)))
          done;
          fed := !fed + len;
          let target = !fed - resume in
          let rec drain () =
            if St.Scheduler.applied sched >= target then Ok ()
            else
              let* more = St.Scheduler.step sched in
              if more then drain () else Ok ()
          in
          let* () = drain () in
          observe reg;
          let durable = resume + St.Scheduler.applied sched in
          let* () =
            if durable >= !next_ckpt * ckpt_every then begin
              incr next_ckpt;
              St.Checkpoint.Z.save ckpt_path ~db:(St.Registry.db reg) ~records:durable
                ~wal_offset:(St.Wal.Z.offset wal)
            end
            else Ok ()
          in
          chunks ()
        end
      in
      let* () = chunks () in
      St.Queue.close queue;
      let* () = St.Scheduler.run sched in
      Ok (wal, reg)
    in
    let metrics = St.Metrics.create () in
    let rec attempt k =
      if k > 50 then Error "chaos did not converge within 50 incarnations"
      else
        match incarnation metrics with
        | Ok (wal, reg) ->
            let leftover = St.Registry.heal reg in
            St.Wal.Z.close wal;
            if leftover <> [] then
              Error ("views still unhealthy after heal: " ^ String.concat ", " leftover)
            else begin
              let dead =
                List.fold_left (fun acc (_, ds) -> acc + List.length ds) 0
                  (St.Registry.dead_letters reg)
              in
              let healthy_updates =
                List.fold_left
                  (fun acc name ->
                    if name = "flaky" then acc else acc + (St.Metrics.view metrics name).St.Metrics.updates)
                  0
                  (St.Metrics.view_names metrics)
              in
              Ok
                {
                  fingerprints = St.Registry.fingerprints reg;
                  crashes = !crashes;
                  unhealthy_seen = List.rev !unhealthy;
                  quarantined_seen = List.rev !quarantined;
                  dead_lettered = dead;
                  healthy_updates;
                }
            end
        | Error (_ : St.Errors.t) ->
            (* Crash semantics: buffered WAL bytes are lost, all
               in-memory state is forgotten; recover and go again. *)
            incr crashes;
            Option.iter St.Wal.Z.crash !current_wal;
            current_wal := None;
            attempt (k + 1)
    in
    attempt 1

  type scenario = {
    sname : string;
    describe : string;
    poison : bool;
    flaky : bool;
    arm : updates:int -> unit;
    expect_crash : bool;
  }

  let scenarios ~updates:_ =
    [
      {
        sname = "torn-wal";
        describe = "short write tears the WAL tail mid-stream";
        poison = false;
        flaky = false;
        arm = (fun ~updates -> Fp.arm "wal.write" ~after:(updates / 2) ~times:1 (Fp.Short_write 7));
        expect_crash = true;
      };
      {
        sname = "ckpt-fsync";
        describe = "fsync of the checkpoint temp file fails";
        poison = false;
        flaky = false;
        arm = (fun ~updates:_ -> Fp.arm "ckpt.fsync" ~times:1 Fp.Fail);
        expect_crash = true;
      };
      {
        sname = "ckpt-rename";
        describe = "crash before the checkpoint rename installs";
        poison = false;
        flaky = false;
        arm = (fun ~updates:_ -> Fp.arm "ckpt.rename" ~times:1 Fp.Fail);
        expect_crash = true;
      };
      {
        sname = "bit-flip";
        describe = "bit flip corrupts a logged record, then a sync failure forces recovery";
        poison = false;
        flaky = false;
        arm =
          (fun ~updates ->
            Fp.arm "wal.write" ~after:(updates / 3) ~times:1 (Fp.Bit_flip 12);
            (* 4 consecutive fsync failures beat the scheduler's 3
               retries, forcing a crash that must recover across the
               corrupt record. *)
            Fp.arm "wal.fsync" ~after:(updates / 2 / 256) ~times:4 Fp.Fail);
        expect_crash = true;
      };
      {
        sname = "poison";
        describe = "a malformed update poisons one view; it is dead-lettered";
        poison = true;
        flaky = false;
        arm = (fun ~updates:_ -> ());
        expect_crash = false;
      };
      {
        sname = "flaky";
        describe = "an always-failing view is quarantined; healthy views keep serving";
        poison = false;
        flaky = true;
        arm = (fun ~updates:_ -> ());
        expect_crash = false;
      };
      {
        sname = "ckpt-over-corrupt";
        describe = "a checkpoint covers a bit-flipped record; two later crashes recover past it";
        poison = false;
        flaky = false;
        arm =
          (fun ~updates ->
            (* Saves land every ~updates/5 records: the flip sits
               between the first two, the third save's fsync fails (a
               crash over the covered corrupt record), and the second
               life's first save fails its rename — a second crash
               that again recovers from the checkpoint over the
               corrupt record. *)
            Fp.arm "wal.write" ~after:(updates * 3 / 10) ~times:1 (Fp.Bit_flip 12);
            Fp.arm "ckpt.fsync" ~after:2 ~times:1 Fp.Fail;
            Fp.arm "ckpt.rename" ~after:2 ~times:1 Fp.Fail);
        expect_crash = true;
      };
    ]

  let run_scenario ~dir ~updates ~nodes ~seed (sc : scenario) =
    let stream = make_stream ~updates ~nodes ~poison:sc.poison in
    (* Fault-free reference run of the identical stream. *)
    Fp.reset ();
    let reference =
      run_stream ~label:(sc.sname ^ ".ref") ~dir ~stream ~flaky:sc.flaky ()
    in
    (* The chaos run under this scenario's seeded fault schedule. *)
    Fp.enable ~seed ();
    sc.arm ~updates;
    let armed = List.map fst (Fp.armed ()) in
    let chaotic = run_stream ~label:sc.sname ~dir ~stream ~flaky:sc.flaky () in
    let vacuous =
      List.filter (fun name -> Fp.fired name = 0) armed
    in
    Fp.reset ();
    match (reference, chaotic) with
    | Error e, _ -> Error ("reference run failed: " ^ e)
    | _, Error e -> Error ("chaos run failed: " ^ e)
    | Ok r, Ok c ->
        if vacuous <> [] then
          Error ("armed failpoints never fired: " ^ String.concat ", " vacuous)
        else if sc.expect_crash && c.crashes = 0 then
          Error "expected at least one crash-recovery cycle, saw none"
        else if c.fingerprints <> r.fingerprints then begin
          List.iter2
            (fun (name, a) (_, b) ->
              if a <> b then
                Printf.eprintf "  %s: chaos fingerprint %d vs reference %d\n" name a b)
            c.fingerprints r.fingerprints;
          Error "final fingerprints diverge from the fault-free reference"
        end
        else if sc.poison && (c.dead_lettered = 0 || r.dead_lettered = 0) then
          Error "poison update was not dead-lettered"
        else if sc.flaky && not (List.mem "flaky" c.quarantined_seen) then
          Error "flaky view was never quarantined"
        else if sc.flaky && c.healthy_updates = 0 then
          Error "healthy views made no progress alongside the quarantined one"
        else Ok c
end

(* ------------------------------------------------------------------ *)
(* cluster: the sharded deployment path. A router partitions the
   standard Views workload across N loopback nodes, merges partial ring
   payloads on reads, and survives killed primaries via checkpoint+WAL
   promotion. Shared by `ivm_cli cluster` and `chaos --cluster`.       *)

module Cluster_cli = struct
  module D = Ivm_data
  module U = D.Update
  module M = Ivm_engine.Maintainable
  module St = Ivm_stream
  module Cl = Ivm_cluster
  module Fp = Ivm_fault.Failpoint

  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path

  let ( let* ) = Result.bind

  (* Placement for the standard Views workload. R(A,B) and S(B,C)
     co-partition on the join column B, so every R join S match is
     shard-local; T is broadcast, sound because each view uses T in a
     single atom (views are multilinear: split several relations on a
     shared key, or at most one by arbitrary hash). paths-rs and
     paths-rs-eager enumerate B first, so bound-prefix reads go
     straight to B's owner (Keyed); tri-count and paths-st fan out and
     ring-sum (Scattered). *)
  let topology ~shards =
    Cl.Topology.create ~shards
      ~policies:
        [
          ("R", Cl.Topology.Hash_col 1);
          ("S", Cl.Topology.Hash_col 0);
          ("T", Cl.Topology.Broadcast);
        ]
      ~routes:
        [
          ("tri-count", Cl.Topology.Scattered);
          ("paths-rs", Cl.Topology.Keyed);
          ("paths-st", Cl.Topology.Scattered);
          ("paths-rs-eager", Cl.Topology.Keyed);
        ]

  let declare ?(flaky = false) reg =
    List.iter
      (fun (n, cols) ->
        ignore (St.Registry.declare_table reg n (Ivm_data.Schema.of_list cols)))
      Views.schemas;
    Views.register ~flaky reg

  let view_names = List.map fst Views.standard

  (* The fault-free single-node reference: the same updates through one
     registry, no WAL, no network, no faults. Ring updates commute, so
     whatever interleaving the cluster admitted must produce these
     entries. *)
  let reference_fingerprints ?(flaky = false) updates =
    let reg = St.Registry.create (Views.make_db ()) in
    Views.register ~flaky reg;
    let rec chunks = function
      | [] -> ()
      | us ->
          let rec split k acc = function
            | rest when k = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | u :: rest -> split (k - 1) (u :: acc) rest
          in
          let batch, rest = split 512 [] us in
          St.Registry.apply_batch reg batch;
          chunks rest
    in
    chunks updates;
    (* Same convergence point as the cluster run: a view degraded by a
       poison update is rebuilt (with the poison isolated and
       dead-lettered) before its state counts as the reference. *)
    (match St.Registry.heal reg with
    | [] -> ()
    | leftover ->
        failwith ("reference views still unhealthy after heal: "
                  ^ String.concat ", " leftover));
    List.map
      (fun name ->
        (* Same canonical form as merged cluster reads: no explicit
           zero-payload entries. *)
        let entries =
          List.filter (fun (_, p) -> p <> 0) ((St.Registry.find reg name).M.enumerate ())
        in
        (name, M.entries_fingerprint entries))
      view_names

  let print_status router =
    List.iter
      (fun (s : Cl.Router.shard_status) ->
        Printf.printf
          "  shard %d: port %-5d %-7s %-16s sent %-8d applied %-8d failovers %d%s%s\n"
          s.Cl.Router.shard s.Cl.Router.port
          (if s.Cl.Router.alive then "alive" else "dead")
          s.Cl.Router.node_health s.Cl.Router.sent s.Cl.Router.applied
          s.Cl.Router.failovers
          (match s.Cl.Router.standby_lag with
          | Some lag when s.Cl.Router.has_standby -> Printf.sprintf " standby(lag %d)" lag
          | _ -> if s.Cl.Router.has_standby then " standby" else "")
          (if s.Cl.Router.lost_ranges <> [] then " LOST" else ""))
      (Cl.Router.status router)

  (* --- ivm_cli cluster: spawn, route, kill, verify ------------------ *)

  let run_demo ~shards ~updates ~nodes ~standby ~kill ~dir ~seed =
    let dir =
      if dir <> "" then dir
      else
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ivm_cluster_%d" (Unix.getpid ()))
    in
    rm_rf dir;
    let router =
      match
        Cl.Router.start ~standby
          ~checkpoint_every:(max 256 (updates / 5))
          ~seed ~base_dir:dir ~topology:(topology ~shards) ~declare:(declare ~flaky:false)
          ()
      with
      | Ok r -> r
      | Error m ->
          Printf.eprintf "ivm_cli: cluster start failed: %s\n" m;
          exit 1
    in
    Printf.printf "cluster: %d shard(s) up under %s\n" (Cl.Router.shard_count router) dir;
    print_status router;
    let stream = Chaos.make_stream ~updates ~nodes ~poison:false in
    let n = Array.length stream in
    let batch_size = 256 in
    let mid = n / 2 in
    let fed = ref 0 in
    let fail msg =
      Printf.eprintf "ivm_cli: %s\n" msg;
      Cl.Router.stop router;
      exit 1
    in
    while !fed < n do
      let len = min batch_size (n - !fed) in
      let batch = Array.to_list (Array.sub stream !fed len) in
      (match Cl.Router.ingest router batch with
      | Ok (_, 0) -> ()
      | Ok (_, d) -> fail (Printf.sprintf "%d update(s) dead-lettered" d)
      | Error m -> fail ("ingest: " ^ m));
      let was = !fed in
      fed := !fed + len;
      if kill >= 0 && was < mid && !fed >= mid then begin
        Printf.printf "killing shard %d's primary at update %d (quiesced)...\n%!" kill !fed;
        match
          Cl.Router.quiesced router (fun () ->
              Cl.Router.kill_primary router ~shard:kill;
              Cl.Router.fail_over router ~shard:kill)
        with
        | Ok (Ok (dt, recovered)) ->
            Printf.printf "promoted replacement in %.1f ms (%d records recovered)\n"
              (dt *. 1e3) recovered;
            if Cl.Router.take_lost router ~shard:kill <> [] then
              fail "quiesced kill lost acked records"
        | Ok (Error m) -> fail ("failover: " ^ m)
        | Error m -> fail ("barrier: " ^ m)
      end
    done;
    Printf.printf "\nview                 entries    fingerprint  vs single-node reference\n";
    let reference = reference_fingerprints (Array.to_list stream) in
    let bad = ref 0 in
    List.iter
      (fun (name, ref_fp) ->
        match Cl.Router.snapshot router ~view:name with
        | Error m -> fail (Printf.sprintf "snapshot %s: %s" name m)
        | Ok entries ->
            let fp = M.entries_fingerprint entries in
            let same = fp = ref_fp in
            if not same then incr bad;
            Printf.printf "%-20s %-10d %-12d %s\n" name (List.length entries) fp
              (if same then "match" else Printf.sprintf "MISMATCH (reference %d)" ref_fp))
      reference;
    print_newline ();
    print_status router;
    let dead = Cl.Router.dead_letter_count router in
    if dead > 0 then Printf.printf "dead letters: %d\n" dead;
    Cl.Router.stop router;
    if !bad > 0 then begin
      Printf.printf "%d view(s) diverged from the single-node reference\n" !bad;
      exit 1
    end
    else Printf.printf "all views match the single-node reference\n"

  (* --- chaos --cluster: the six fault scenarios against the router --- *)

  type outcome = {
    fingerprints : (string * int) list;
    failovers : int;
    dead_lettered : int;
    flaky_quarantined : bool;
    shard_accounts : (int * int * int) array;
        (* per shard: (stream updates owned, send-log length, node absorbed) —
           printed on divergence to separate lost records from duplicates *)
    status_lines : string list;
  }

  (* Like [Chaos.run_stream] but through the router, with per-shard
     send logs for exactly-once re-send: an abrupt node death can lose
     an acked-but-unsynced tail, promotion reports the durable count,
     and [reconcile] re-sends exactly the lost log range to that one
     shard. Re-sent batches may interleave with fresh ones — sound
     because ring batches commute. *)
  let run_stream_cluster ~label ~dir ~stream ~flaky () : (outcome, string) result =
    let base = Filename.concat dir (label ^ ".cluster") in
    rm_rf base;
    let shards = 2 in
    let n = Array.length stream in
    let* router =
      Cl.Router.start ~standby:false ~probe_interval:0.02 ~probe_failures:2
        ~checkpoint_every:(max 1 (n / 5))
        ~timeout:5.0 ~base_dir:base ~topology:(topology ~shards) ~declare:(declare ~flaky)
        ()
    in
    let finish r =
      Cl.Router.stop router;
      r
    in
    let logs = Array.init shards (fun _ -> ref []) (* newest first *) in
    let append i batch = List.iter (fun u -> logs.(i) := u :: !(logs.(i))) batch in
    let trace_on = Sys.getenv_opt "IVM_CLUSTER_TRACE" <> None in
    let trace msg =
      if trace_on then
        Printf.eprintf "[%.4f harness] %s\n%!" (Unix.gettimeofday ()) (msg ())
    in
    let rec take k = function
      | u :: rest when k > 0 -> u :: take (k - 1) rest
      | _ -> []
    in
    let rec drop k = function
      | xs when k <= 0 -> xs
      | [] -> []
      | _ :: rest -> drop (k - 1) rest
    in
    (* Send with bounded retry: admission can come up short only while
       a node is dying (its queue closed before its server stopped);
       the next attempt runs after reconciliation, against the promoted
       node. *)
    let rec send_shard ~tries i batch =
      if batch = [] then Ok ()
      else
        match Cl.Router.ingest_shard router ~shard:i batch with
        | Ok admitted ->
            append i (take admitted batch);
            if admitted < List.length batch then
              trace (fun () ->
                  Printf.sprintf "shard %d short ack: batch=%d admitted=%d len=%d" i
                    (List.length batch) admitted
                    (List.length !(logs.(i))));
            let rest = drop admitted batch in
            if rest = [] then Ok ()
            else if tries = 0 then Error "shard kept dropping admissions"
            else begin
              Unix.sleepf 0.01;
              let* () = reconcile ~tries:3 i in
              send_shard ~tries:(tries - 1) i rest
            end
        | Error m ->
            (* A transport error is ambiguous: the node may have
               admitted the batch before the connection died, so a
               blind retry would duplicate records. Ask the router for
               the shard's authoritative absorbed count and re-send
               only the part that provably never landed. *)
            if tries = 0 then Error m
            else begin
              trace (fun () ->
                  Printf.sprintf "shard %d send error: batch=%d len=%d err=%s" i
                    (List.length batch)
                    (List.length !(logs.(i)))
                    m);
              Unix.sleepf 0.02;
              let* absorbed = resolve ~tries:3 i in
              let len = List.length !(logs.(i)) in
              if absorbed < len then
                Error "shard absorbed fewer records than logged"
              else begin
                let landed = min (absorbed - len) (List.length batch) in
                trace (fun () ->
                    Printf.sprintf "shard %d resolved: absorbed=%d len=%d landed=%d" i
                      absorbed len landed);
                append i (take landed batch);
                send_shard ~tries:(tries - 1) i (drop landed batch)
              end
            end
    and reconcile ~tries i =
      match Cl.Router.take_lost router ~shard:i with
      | [] -> Ok ()
      | ranges -> cut ~tries i ranges
    and cut ~tries i ranges =
      (* The log mirrors the order the shard's WAL admitted our
         sends; each [from, upto) died unsynced. Cut the range out
         and re-send it as fresh records. Oldest range first: each
         cut re-aligns log indices with the router's post-promotion
         send counter, which is the index space the next range was
         recorded in (appends never shift indices below them). *)
      let rec cut_ranges = function
        | [] -> Ok ()
        | (from, upto) :: rest ->
            let arr = Array.of_list (List.rev !(logs.(i))) in
            let durable = ref [] and lost = ref [] in
            Array.iteri
              (fun j u ->
                if j >= from && j < upto then lost := u :: !lost
                else durable := u :: !durable)
              arr;
            logs.(i) := !durable;
            trace (fun () ->
                Printf.sprintf "shard %d cut (%d,%d): len=%d resending=%d" i from upto
                  (List.length !durable) (List.length !lost));
            let* () = send_shard ~tries i (List.rev !lost) in
            cut_ranges rest
      in
      cut_ranges ranges
    and resolve ~tries i =
      (* Settle the shard onto a live primary with an authoritative
         send count: cut any published lost ranges, fence via
         [reconcile_sent], and loop if the fence itself triggered a
         promotion that published more ranges. *)
      let* () = reconcile ~tries:3 i in
      match Cl.Router.reconcile_sent router ~shard:i with
      | Error m ->
          if tries = 0 then Error m
          else begin
            Unix.sleepf 0.05;
            resolve ~tries:(tries - 1) i
          end
      | Ok absorbed -> (
          match Cl.Router.take_lost router ~shard:i with
          | [] -> Ok absorbed
          | ranges ->
              let* () = cut ~tries:3 i ranges in
              if tries = 0 then Error "shard would not settle on a live primary"
              else resolve ~tries:(tries - 1) i)
    in
    let topo = Cl.Router.topology router in
    let rec feed fed =
      if fed >= n then Ok ()
      else begin
        let len = min 256 (n - fed) in
        let buckets = Array.make shards [] in
        for j = fed + len - 1 downto fed do
          let u = stream.(j) in
          match Cl.Topology.owners topo ~rel:u.U.rel u.U.tuple with
          | None -> () (* unknown relation: router would dead-letter it *)
          | Some os -> List.iter (fun i -> buckets.(i) <- u :: buckets.(i)) os
        done;
        let rec shards_go i =
          if i >= shards then Ok ()
          else begin
            let* () = reconcile ~tries:3 i in
            let* () = send_shard ~tries:5 i buckets.(i) in
            shards_go (i + 1)
          end
        in
        let* () = shards_go 0 in
        feed (fed + len)
      end
    in
    (* Settle: promote anything dead, re-send anything lost, and fence;
       repeat until a fence passes with no new losses (the fault
       schedule is finite, so this converges). *)
    let rec settle tries =
      if tries = 0 then Error "cluster did not settle after the fault schedule"
      else begin
        let rec reconcile_all i =
          if i >= shards then Ok ()
          else
            let* () = reconcile ~tries:3 i in
            reconcile_all (i + 1)
        in
        let* () = reconcile_all 0 in
        match Cl.Router.barrier router with
        | Error _ ->
            (* A node that crashed after feed (applied lag means the
               armed fault can fire during settle, not mid-stream)
               fails the fence instantly — connection refused costs
               microseconds, while the prober needs two probe
               intervals to declare it dead and promote. Burning all
               the retries before detection is a false "did not
               settle": pace the loop instead. *)
            Unix.sleepf 0.05;
            settle (tries - 1)
        | Ok _ ->
            (* A draining [take_lost] here would discard any range a
               prober promotion published after [reconcile_all] ran —
               peek without consuming and let the retry's reconcile
               cut and re-send it. *)
            if List.exists
                 (fun i -> Cl.Router.has_lost router ~shard:i)
                 (List.init shards Fun.id)
            then settle (tries - 1)
            else Ok ()
      end
    in
    (* Quarantine needs [max_failures] failed applies, each gated by the
       supervisor's backoff — a stream that ends first leaves the flaky
       view merely degraded. Nudge it over the threshold with net-zero
       ring traffic (an insert cancelled by its delete in the same
       batch): every nudge batch fails flaky's apply, while the
       cancellation leaves every real view's state untouched, so the
       final fingerprints still match the fault-free reference. *)
    let nudge_flaky () =
      let quarantined () =
        List.exists
          (fun i ->
            List.exists
              (fun (name, h) -> name = "flaky" && h = St.Registry.Quarantined)
              (St.Registry.statuses
                 (Ivm_cluster.Node.registry (Cl.Router.primary router ~shard:i))))
          (List.init shards Fun.id)
      in
      let tuple = D.Tuple.of_ints [ 0; 1 ] in
      let shard =
        match Cl.Topology.owners topo ~rel:"R" tuple with Some (i :: _) -> i | _ -> 0
      in
      (* The insert and its cancelling delete must land in different
         epochs — the scheduler ring-coalesces per (relation, tuple),
         and a batch summing to zero never reaches any view. The
         barrier in between forces the epoch break (and the backoff
         lapse happens while we wait on it). *)
      let send payload =
        let* () = send_shard ~tries:3 shard [ U.make ~rel:"R" ~tuple ~payload ] in
        match Cl.Router.barrier router with
        | Ok _ -> Ok ()
        | Error m -> Error ("flaky nudge barrier: " ^ m)
      in
      let rec go tries =
        if quarantined () then Ok ()
        else if tries = 0 then Ok () (* leave the verdict to the scenario check *)
        else begin
          let* () = send 1 in
          let* () = send (-1) in
          Unix.sleepf 0.03; (* let the backoff lapse so the next apply is attempted *)
          go (tries - 1)
        end
      in
      go 50
    in
    (* The end-of-stream convergence point, mirroring the single-node
       harness: force a recovery attempt on every unhealthy view
       (isolating and dead-lettering poison), so final snapshots read
       rebuilt views, not degraded stubs mid-backoff. Runs after the
       quarantine verdict is captured — heal un-quarantines the flaky
       view (its build succeeds), which must not erase the evidence. *)
    let heal_all () =
      let rec go i =
        if i >= shards then Ok ()
        else
          let reg = Ivm_cluster.Node.registry (Cl.Router.primary router ~shard:i) in
          match St.Registry.heal reg with
          | [] -> go (i + 1)
          | leftover ->
              Error
                (Printf.sprintf "shard %d views still unhealthy after heal: %s" i
                   (String.concat ", " leftover))
      in
      go 0
    in
    (match
       let* () = feed 0 in
       let* () = settle 10 in
       let* () = if flaky then nudge_flaky () else Ok () in
       let per_primary f =
         List.exists
           (fun i -> f (Cl.Router.primary router ~shard:i))
           (List.init shards Fun.id)
       in
       let flaky_quarantined =
         per_primary (fun node ->
             List.exists
               (fun (name, h) -> name = "flaky" && h = St.Registry.Quarantined)
               (St.Registry.statuses (Ivm_cluster.Node.registry node)))
       in
       let* () = heal_all () in
       let* () = settle 10 in
       let rec snaps acc = function
         | [] -> Ok (List.rev acc)
         | name :: rest ->
             let* entries = Cl.Router.snapshot router ~view:name in
             snaps ((name, M.entries_fingerprint entries) :: acc) rest
       in
       let* fingerprints = snaps [] view_names in
       let failovers =
         List.fold_left
           (fun acc (s : Cl.Router.shard_status) -> acc + s.Cl.Router.failovers)
           0 (Cl.Router.status router)
       in
       let dead_lettered =
         List.fold_left
           (fun acc i ->
             let reg = Ivm_cluster.Node.registry (Cl.Router.primary router ~shard:i) in
             List.fold_left
               (fun acc (_, ds) -> acc + List.length ds)
               acc (St.Registry.dead_letters reg))
           0 (List.init shards Fun.id)
       in
       let shard_accounts =
         Array.init shards (fun i ->
             let owned =
               Array.fold_left
                 (fun acc (u : int U.t) ->
                   match Cl.Topology.owners topo ~rel:u.U.rel u.U.tuple with
                   | Some os when List.mem i os -> acc + 1
                   | _ -> acc)
                 0 stream
             in
             let node = Cl.Router.primary router ~shard:i in
             ( owned,
               List.length !(logs.(i)),
               Ivm_cluster.Node.recovered node + Ivm_cluster.Node.applied node ))
       in
       let status_lines =
         List.map
           (fun (s : Cl.Router.shard_status) ->
             Printf.sprintf
               "shard %d: health=%s failovers=%d sent=%d applied=%d lost_ranges=[%s]"
               s.Cl.Router.shard s.Cl.Router.node_health s.Cl.Router.failovers
               s.Cl.Router.sent s.Cl.Router.applied
               (String.concat ";"
                  (List.map
                     (fun (a, b) -> Printf.sprintf "%d,%d" a b)
                     s.Cl.Router.lost_ranges)))
           (Cl.Router.status router)
       in
       Ok
         {
           fingerprints;
           failovers;
           dead_lettered;
           flaky_quarantined;
           shard_accounts;
           status_lines;
         }
     with
    | r -> finish r
    | exception e -> finish (Error (Printexc.to_string e)))

  (* The single-node schedules mostly carry over; bit-flip's fsync
     burst is lengthened so one node's retry run (3 retries) is beaten
     even when the global hit sequence interleaves both nodes. *)
  let scenarios ~updates =
    List.map
      (fun (sc : Chaos.scenario) ->
        if sc.Chaos.sname = "bit-flip" then
          {
            sc with
            Chaos.arm =
              (fun ~updates ->
                Fp.arm "wal.write" ~after:(updates / 3) ~times:1 (Fp.Bit_flip 12);
                Fp.arm "wal.fsync" ~after:(updates / 2 / 256) ~times:8 Fp.Fail);
          }
        else sc)
      (Chaos.scenarios ~updates)

  let run_scenario_cluster ~dir ~updates ~nodes ~seed (sc : Chaos.scenario) =
    let stream = Chaos.make_stream ~updates ~nodes ~poison:sc.Chaos.poison in
    Fp.reset ();
    let reference = reference_fingerprints ~flaky:sc.Chaos.flaky (Array.to_list stream) in
    Fp.enable ~seed ();
    sc.Chaos.arm ~updates;
    let armed = List.map fst (Fp.armed ()) in
    let chaotic =
      run_stream_cluster ~label:sc.Chaos.sname ~dir ~stream ~flaky:sc.Chaos.flaky ()
    in
    let vacuous = List.filter (fun name -> Fp.fired name = 0) armed in
    Fp.reset ();
    match chaotic with
    | Error e -> Error ("cluster chaos run failed: " ^ e)
    | Ok c ->
        if vacuous <> [] then
          Error ("armed failpoints never fired: " ^ String.concat ", " vacuous)
        else if sc.Chaos.expect_crash && c.failovers = 0 then
          Error "expected at least one failover, saw none"
        else if c.fingerprints <> reference then begin
          List.iter2
            (fun (name, a) (_, b) ->
              if a <> b then
                Printf.eprintf "  %s: cluster fingerprint %d vs reference %d\n" name a b)
            c.fingerprints reference;
          Array.iteri
            (fun i (owned, logged, absorbed) ->
              Printf.eprintf
                "  shard %d: %d stream updates owned, %d logged as sent, %d absorbed by node\n"
                i owned logged absorbed)
            c.shard_accounts;
          List.iter (fun l -> Printf.eprintf "  %s\n" l) c.status_lines;
          Error "final fingerprints diverge from the fault-free reference"
        end
        else if sc.Chaos.poison && c.dead_lettered = 0 then
          Error "poison update was not dead-lettered"
        else if sc.Chaos.flaky && not c.flaky_quarantined then
          Error "flaky view was never quarantined on any shard"
        else Ok c
end

let chaos_cmd =
  let updates_arg =
    Arg.(value & opt int 20_000 & info [ "updates" ] ~docv:"N" ~doc:"Stream length.")
  in
  let nodes_arg =
    Arg.(value & opt int 100 & info [ "nodes" ] ~docv:"K" ~doc:"Graph node count.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S"
           ~doc:"Base fault seed; scenario i runs under seed S+i.")
  in
  let scenario_arg =
    Arg.(value & opt string "all" & info [ "scenario" ] ~docv:"NAME"
           ~doc:"Scenario to run (torn-wal, ckpt-fsync, ckpt-rename, bit-flip, \
                 ckpt-over-corrupt, poison, flaky) or 'all'.")
  in
  let dir_arg =
    Arg.(value & opt string "" & info [ "dir" ] ~docv:"DIR"
           ~doc:"Working directory (default: a fresh directory under the \
                 system temp dir).")
  in
  let cluster_arg =
    Arg.(value & flag & info [ "cluster" ]
           ~doc:"Run the same fault scenarios against the sharded router path \
                 (2 loopback nodes, failover on node death, per-shard send-log \
                 re-send) instead of the single-process pipeline.")
  in
  let run updates nodes seed scenario dir cluster =
    if updates < 100 then begin
      prerr_endline "--updates must be >= 100";
      exit 2
    end;
    let dir =
      if dir <> "" then dir
      else
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ivm_chaos_%d" (Unix.getpid ()))
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let all =
      if cluster then Cluster_cli.scenarios ~updates else Chaos.scenarios ~updates
    in
    let chosen =
      if scenario = "all" then all
      else
        match List.filter (fun (s : Chaos.scenario) -> s.Chaos.sname = scenario) all with
        | [] ->
            Printf.eprintf "ivm_cli: unknown scenario %s\n" scenario;
            exit 2
        | l -> l
    in
    Printf.printf "chaos soak: %d updates, %d scenario(s), dir %s\n%!" updates
      (List.length chosen) dir;
    let failures = ref 0 in
    List.iteri
      (fun i (sc : Chaos.scenario) ->
        let seed = seed + i in
        Printf.printf "[%-17s] seed %-3d %s ...%!" sc.Chaos.sname seed sc.Chaos.describe;
        if cluster then
          match Cluster_cli.run_scenario_cluster ~dir ~updates ~nodes ~seed sc with
          | Ok c ->
              Printf.printf " PASS (%d failover(s), %d dead-lettered%s)\n%!"
                c.Cluster_cli.failovers c.Cluster_cli.dead_lettered
                (if c.Cluster_cli.flaky_quarantined then ", flaky quarantined" else "")
          | Error msg ->
              incr failures;
              Printf.printf " FAIL: %s\n%!" msg
        else
          match Chaos.run_scenario ~dir ~updates ~nodes ~seed sc with
          | Ok c ->
              Printf.printf
                " PASS (%d crash-recoveries, %d dead-lettered%s)\n%!"
                c.Chaos.crashes c.Chaos.dead_lettered
                (if c.Chaos.quarantined_seen <> [] then
                   ", quarantined: " ^ String.concat "," c.Chaos.quarantined_seen
                 else "")
          | Error msg ->
              incr failures;
              Printf.printf " FAIL: %s\n%!" msg)
      chosen;
    if !failures > 0 then begin
      Printf.printf "%d scenario(s) failed\n" !failures;
      exit 1
    end
    else Printf.printf "all scenarios converged to the fault-free reference state\n"
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Soak the durable serving pipeline under seeded fault injection \
             (torn writes, failed fsyncs, bit flips, poison updates) and \
             verify convergence to a fault-free reference run")
    Term.(const run $ updates_arg $ nodes_arg $ seed_arg $ scenario_arg $ dir_arg
          $ cluster_arg)

(* ------------------------------------------------------------------ *)
(* cluster: spawn a sharded loopback cluster, route a workload through
   the fault-tolerant router, optionally kill a primary mid-run, and
   verify against a single-node reference.                             *)

let cluster_cmd =
  let shards_arg =
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc:"Shard count \
           (rounded up to a power of two).")
  in
  let updates_arg =
    Arg.(value & opt int 50_000 & info [ "updates" ] ~docv:"N" ~doc:"Stream length.")
  in
  let nodes_arg =
    Arg.(value & opt int 200 & info [ "nodes" ] ~docv:"K" ~doc:"Graph node count.")
  in
  let no_standby_arg =
    Arg.(value & flag & info [ "no-standby" ]
           ~doc:"Do not keep a warm standby per shard.")
  in
  let kill_arg =
    Arg.(value & opt int 0 & info [ "kill" ] ~docv:"SHARD"
           ~doc:"Kill this shard's primary halfway through and promote a \
                 replacement; -1 disables the kill.")
  in
  let dir_arg =
    Arg.(value & opt string "" & info [ "dir" ] ~docv:"DIR"
           ~doc:"Cluster state directory (default: fresh under the temp dir).")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Retry-jitter seed.")
  in
  let run shards updates nodes no_standby kill dir seed =
    Cluster_cli.run_demo ~shards ~updates ~nodes ~standby:(not no_standby) ~kill ~dir
      ~seed
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Spawn an N-shard loopback cluster behind the fault-tolerant \
             router, stream the standard graph workload through it (killing \
             and failing over one primary mid-run), and verify every view \
             against a single-node reference")
    Term.(const run $ shards_arg $ updates_arg $ nodes_arg $ no_standby_arg $ kill_arg
          $ dir_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* fuzz: the differential oracle harness of lib/check.                 *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let module Ck = Ivm_check in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S"
           ~doc:"Master seed; with --runs 1 the case seed itself, so a \
                 reported failure replays exactly.")
  in
  let runs_arg =
    Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N" ~doc:"Cases to execute.")
  in
  let minutes_arg =
    Arg.(value & opt float 0. & info [ "minutes" ] ~docv:"M"
           ~doc:"Wall-clock budget; 0 means unbounded. The loop stops at \
                 whichever of --runs/--minutes is hit first.")
  in
  let engines_arg =
    Arg.(value & opt string "" & info [ "engines" ] ~docv:"E1,E2"
           ~doc:"Restrict the matrix to these engines (comma-separated; \
                 default: every engine applicable to each case).")
  in
  let corpus_arg =
    Arg.(value & opt string "" & info [ "corpus-dir" ] ~docv:"DIR"
           ~doc:"Write shrunk reproducers (*.repro) here.")
  in
  let inject_arg =
    Arg.(value & flag & info [ "inject" ]
           ~doc:"Arm the check.drop_delete failpoint (susceptible engines \
                 silently lose deletes) and demand the harness catches it: \
                 exit 0 iff at least one divergence was found and shrunk to \
                 a small reproducer.")
  in
  let run seed runs minutes engines corpus_dir inject =
    let select =
      if engines = "" then []
      else String.split_on_char ',' engines |> List.map String.trim
           |> List.filter (fun s -> s <> "")
    in
    let unknown = List.filter (fun e -> not (List.mem e Ck.Engines.all_names)) select in
    if unknown <> [] then begin
      Printf.eprintf "ivm_cli: unknown engines: %s (known: %s)\n"
        (String.concat ", " unknown)
        (String.concat ", " Ck.Engines.all_names);
      exit 2
    end;
    if inject then begin
      Ivm_fault.Failpoint.enable ~seed ();
      Ivm_fault.Failpoint.arm Ck.Engines.bug_failpoint ~times:max_int
        Ivm_fault.Failpoint.Fail
    end;
    let minutes = if minutes <= 0. then None else Some minutes in
    let corpus_dir = if corpus_dir = "" then None else Some corpus_dir in
    let t0 = Unix.gettimeofday () in
    let s = Ck.Fuzz.run ?minutes ?corpus_dir ~runs ~select ~log:print_endline ~seed () in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "fuzz: seed %d, %d case(s) in %.1fs, %d failure(s)\n" seed s.Ck.Fuzz.runs
      dt
      (List.length s.Ck.Fuzz.failures);
    if inject then begin
      Ivm_fault.Failpoint.reset ();
      match s.Ck.Fuzz.failures with
      | [] ->
          print_endline "FUZZ-INJECT: FAIL (the armed delete-dropping bug went undetected)";
          exit 1
      | fs ->
          let best = List.fold_left (fun acc f -> min acc f.Ck.Fuzz.updates) max_int fs in
          Printf.printf
            "FUZZ-INJECT: OK (%d catch(es); smallest reproducer: %d update(s))\n"
            (List.length fs) best;
          exit 0
    end
    else if s.Ck.Fuzz.failures <> [] then begin
      List.iter
        (fun (f : Ck.Fuzz.failure) ->
          Printf.printf "FUZZ-FAIL seed=%d family=%s updates=%d\n" f.Ck.Fuzz.case_seed
            f.Ck.Fuzz.family f.Ck.Fuzz.updates)
        s.Ck.Fuzz.failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: random workloads checked across every \
             maintenance engine against a from-scratch oracle; divergences \
             are delta-debugged to minimal reproducers")
    Term.(const run $ seed_arg $ runs_arg $ minutes_arg $ engines_arg $ corpus_arg
          $ inject_arg)

let sql_cmd =
  let module Sql = Ivm_sql in
  let module V = Ivm_data.Value in
  let e_arg =
    Arg.(value & opt (some string) None & info [ "e"; "execute" ] ~docv:"SQL"
           ~doc:"Execute this SQL text and exit.")
  in
  let file_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Read SQL from this file ('-' for stdin). Without $(docv) \
                 and $(b,-e), reads statements interactively from stdin.")
  in
  let connect_arg =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT"
           ~doc:"Run against a live server over the wire protocol instead \
                 of an in-process session. DDL/DML go through the \
                 create_view op, EXPLAIN through the explain op; SELECT is \
                 served by the lookup/snapshot ops and is not routed here.")
  in
  let params_arg =
    Arg.(value & opt_all string [] & info [ "param" ] ~docv:"V"
           ~doc:"Value for the next ? placeholder, in order (repeatable). \
                 Parsed as an integer or real when possible, else a string.")
  in
  let parse_param s =
    match int_of_string_opt s with
    | Some i -> V.Int i
    | None -> (
        match float_of_string_opt s with Some f -> V.Real f | None -> V.Str s)
  in
  let run e file connect params =
    let params = List.map parse_param params in
    let fail msg =
      Printf.eprintf "ivm_cli: %s\n" msg;
      exit 2
    in
    let text =
      match (e, file) with
      | Some s, _ -> Some s
      | None, Some "-" -> Some (In_channel.input_all stdin)
      | None, Some f -> (
          match In_channel.with_open_text f In_channel.input_all with
          | s -> Some s
          | exception Sys_error m -> fail m)
      | None, None -> None
    in
    let remote =
      match connect with
      | None -> None
      | Some hp ->
          let host, port =
            match String.rindex_opt hp ':' with
            | Some i ->
                let h = String.sub hp 0 i in
                let p = String.sub hp (i + 1) (String.length hp - i - 1) in
                ( (if h = "" then "127.0.0.1" else h),
                  match int_of_string_opt p with
                  | Some p -> p
                  | None -> fail ("bad --connect port: " ^ p) )
            | None -> (
                ( "127.0.0.1",
                  match int_of_string_opt hp with
                  | Some p -> p
                  | None -> fail ("bad --connect (want HOST:PORT): " ^ hp) ))
          in
          (match Ivm_net.Client.connect ~host ~port () with
          | Ok c -> Some c
          | Error err -> fail (Ivm_net.Wire.error_to_string err))
    in
    let ok = ref true in
    let exec_text =
      match remote with
      | Some c ->
          fun text ->
            (match Sql.Parser.script text with
            | Error e ->
                Printf.eprintf "error: %s\n%!" e;
                ok := false
            | Ok stmts ->
                List.iter
                  (fun stmt ->
                    if !ok then
                      let r =
                        match stmt with
                        | Sql.Ast.Explain _ ->
                            Ivm_net.Client.explain c (Sql.Ast.print stmt)
                        | Sql.Ast.Select _ ->
                            Error
                              (Ivm_net.Wire.Remote
                                 "SELECT over --connect is not routed through \
                                  the SQL ops; use the lookup/snapshot wire \
                                  ops against the view name")
                        | _ -> Ivm_net.Client.create_view c (Sql.Ast.print stmt)
                      in
                      match r with
                      | Ok out -> print_endline out
                      | Error err ->
                          Printf.eprintf "error: %s\n%!"
                            (Ivm_net.Wire.error_to_string err);
                          ok := false)
                  stmts)
      | None ->
          let sess = Sql.Exec.create () in
          fun text ->
            (match Sql.Exec.exec_text sess ~params text with
            | Ok outs ->
                List.iter (fun o -> print_endline (Sql.Exec.render o)) outs
            | Error e ->
                Printf.eprintf "error: %s\n%!" e;
                ok := false)
    in
    (match text with
    | Some t -> exec_text t
    | None ->
        (* Line-oriented REPL: a statement is submitted once the buffer
           ends with ';'. Also serves piped stdin with no prompts. *)
        let interactive = Unix.isatty Unix.stdin in
        let buf = Buffer.create 256 in
        let prompt () =
          if interactive then begin
            print_string (if Buffer.length buf = 0 then "sql> " else "...> ");
            flush stdout
          end
        in
        let rec loop () =
          prompt ();
          match In_channel.input_line stdin with
          | None -> if interactive then print_newline ()
          | Some line ->
              let trimmed = String.trim line in
              if
                Buffer.length buf = 0
                && (trimmed = "\\q" || trimmed = "quit" || trimmed = "exit")
              then ()
              else begin
                Buffer.add_string buf line;
                Buffer.add_char buf '\n';
                let s = String.trim (Buffer.contents buf) in
                if s <> "" && s.[String.length s - 1] = ';' then begin
                  Buffer.clear buf;
                  exec_text s;
                  if interactive then ok := true
                end;
                loop ()
              end
        in
        loop ());
    Option.iter Ivm_net.Client.close remote;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:"SQL front end: CREATE TABLE / CREATE MATERIALIZED VIEW / \
             INSERT / DELETE / SELECT / EXPLAIN against an in-process \
             session, or against a live server via --connect")
    Term.(const run $ e_arg $ file_arg $ connect_arg $ params_arg)

let () =
  let doc = "incremental view maintenance toolbox (PODS 2024 survey reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "ivm_cli" ~version:Core.Ivm.version ~doc)
          [
            classify_cmd; tpch_cmd; triangles_cmd; serve_cmd; chaos_cmd; cluster_cmd;
            fuzz_cmd; sql_cmd;
          ]))
