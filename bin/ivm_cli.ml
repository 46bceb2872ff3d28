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
  let run updates nodes =
    let module G = Ivm_workload.Graph_gen in
    let module T = Ivm_engine.Triangle in
    let spec = { G.nodes; skew = 1.1; delete_ratio = 0.2 } in
    let delta = T.Delta.create () in
    let eps = Ivm_eps.Triangle_count.create ~epsilon:0.5 () in
    let gen = G.create spec in
    let t0 = Sys.time () in
    G.prefill gen updates (fun e ->
        let rel = match e.G.rel with 0 -> T.R | 1 -> T.S | _ -> T.T in
        T.Delta.update delta rel ~a:e.G.src ~b:e.G.dst e.G.mult;
        Ivm_eps.Triangle_count.update eps rel ~a:e.G.src ~b:e.G.dst e.G.mult);
    let dt = Sys.time () -. t0 in
    Printf.printf "streamed %d updates in %.2fs (%.0f/s)\n" updates dt
      (float_of_int updates /. dt);
    Printf.printf "triangle count: %d (delta) = %d (ivm-eps)\n" (T.Delta.count delta)
      (Ivm_eps.Triangle_count.count eps);
    if T.Delta.count delta <> Ivm_eps.Triangle_count.count eps then exit 1
  in
  Cmd.v
    (Cmd.info "triangles" ~doc:"Maintain the triangle count over a random edge stream (Sec. 3)")
    Term.(const run $ updates_arg $ nodes_arg)

(* Exit with a clean one-line message instead of a backtrace. *)
let ok_or_die what = function
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "ivm_cli: %s: %s\n" what msg;
      exit 1

let fresh_dir dir prefix =
  if dir <> "" then dir
  else
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d" prefix (Unix.getpid ()))

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
  let queue_arg =
    Arg.(value & opt int 8_192 & info [ "queue" ] ~docv:"C" ~doc:"Queue capacity.")
  in
  let dir_arg =
    Arg.(value & opt string "" & info [ "dir" ] ~docv:"DIR"
           ~doc:"Directory for the WAL and checkpoint, both removed at start \
                 (default: a fresh directory under the system temp dir).")
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
           ~doc:"Connection-handler domains (bounds concurrent connections).")
  in
  let run updates nodes producers queue_cap dir stats_every listen handlers =
    let module G = Ivm_workload.Graph_gen in
    let module D = Ivm_data in
    let module St = Ivm_stream in
    let module Node = Ivm_cluster.Node in
    if (updates < 1 && listen < 0) || updates < 0 || producers < 1 || queue_cap < 1
    then begin
      prerr_endline
        "--producers and --queue must be >= 1; --updates must be >= 1 (>= 0 with --listen)";
      exit 2
    end;
    if handlers < 1 then begin
      prerr_endline "--handlers must be >= 1";
      exit 2
    end;
    let dir = fresh_dir dir "ivm_serve" in
    List.iter Ivm_check.Engines.rm_rf
      [ Node.wal_file dir; Node.ckpt_file dir; Node.ckpt_file dir ^ ".tmp" ];
    (* One periodic checkpoint, mid-run: the restart verification then
       replays a non-empty WAL suffix past it. *)
    let node =
      ok_or_die "serve"
        (Node.start
           (Node.spec ~port:(max listen 0) ~handlers ~queue_capacity:queue_cap
              ~checkpoint_every:(if updates < 2 then 0 else (updates / 2) + 1)
              ~name:"serve" ~dir Ivm_check.Chaos.Views.declare))
    in
    let reg = Node.registry node and metrics = Node.metrics node in
    if listen >= 0 then
      Printf.printf "listening on 127.0.0.1:%d (%d handler domains)\n%!" (Node.port node)
        handlers;
    Printf.printf "serving %d views | %d updates, %d producer(s), queue %d\nwal: %s\n%!"
      (St.Registry.view_count reg) updates producers queue_cap (Node.wal_file dir);
    let t0 = Unix.gettimeofday () in
    let per_producer = updates / producers in
    let finished = Atomic.make 0 in
    let producer_domains =
      List.init producers (fun p ->
          let n = if p = 0 then updates - (per_producer * (producers - 1)) else per_producer in
          Domain.spawn (fun () ->
              let gen = G.create ~seed:(41 + p) { G.nodes; skew = 1.1; delete_ratio = 0.2 } in
              for _ = 1 to n do
                let e = G.next gen in
                let rel = match e.G.rel with 0 -> "R" | 1 -> "S" | _ -> "T" in
                ignore
                  (Node.ingest node
                     [ D.Update.make ~rel ~tuple:(D.Tuple.of_ints [ e.G.src; e.G.dst ])
                         ~payload:e.G.mult ])
              done;
              Atomic.incr finished))
    in
    (* Stats are read off the node's metrics. With a listener the stream
       outlives the producers: the node drains when a client sends
       Shutdown, not when the synthetic load runs out. *)
    let p ms = St.Metrics.Hist.percentile metrics.St.Metrics.latency ms *. 1e3 in
    let rec poll next =
      if Atomic.get finished < producers || (listen >= 0 && Node.health node = Node.Running)
      then begin
        Unix.sleepf 0.02;
        let epochs = metrics.St.Metrics.epochs in
        if stats_every > 0 && epochs >= next then begin
          Printf.printf "epoch %-6d applied %-8d p50 %.3fms p99 %.3fms\n%!" epochs
            metrics.St.Metrics.ingested (p 0.5) (p 0.99);
          poll (((epochs / stats_every) + 1) * stats_every)
        end
        else poll next
      end
    in
    poll stats_every;
    List.iter Domain.join producer_domains;
    Node.stop node;
    (match Node.health node with
    | Node.Failed m -> ok_or_die "stream epoch" (Error m)
    | Node.Running | Node.Stopped -> ());
    let dt = Unix.gettimeofday () -. t0 in
    let applied = Node.applied node in
    Printf.printf "\ndrained %d updates in %.2fs (%.0f/s), %d epochs, %d coalesced\n" applied
      dt
      (float_of_int applied /. dt)
      metrics.St.Metrics.epochs metrics.St.Metrics.coalesced;
    Printf.printf "end-to-end latency: p50 %.3fms  p99 %.3fms  max %.3fms\n\n" (p 0.5) (p 0.99)
      (St.Metrics.Hist.max_value metrics.St.Metrics.latency *. 1e3);
    Printf.printf "%-16s %10s %8s %12s %12s %12s\n" "view" "updates" "batches" "through/s"
      "apply p50" "apply p99";
    List.iter
      (fun (name, _) ->
        let v = St.Metrics.view metrics name in
        Printf.printf "%-16s %10d %8d %12.0f %9.3f ms %9.3f ms\n" name v.St.Metrics.updates
          v.St.Metrics.batches
          (float_of_int v.St.Metrics.updates /. dt)
          (St.Metrics.Hist.percentile v.St.Metrics.apply 0.5 *. 1e3)
          (St.Metrics.Hist.percentile v.St.Metrics.apply 0.99 *. 1e3))
      (St.Registry.views reg);
    Printf.printf "\n--- metrics (Prometheus exposition, also on the stats op) ---\n%s%!"
      (St.Metrics.render metrics);
    (* Kill-and-restart verification: rebuild from the node's checkpoint
       and WAL suffix, then compare fingerprints with the live run. *)
    if Sys.file_exists (Node.ckpt_file dir) then begin
      let restored, cursor =
        ok_or_die "recover"
          (Result.map_error St.Errors.to_string
             (St.Durable.recover ~wal:(Node.wal_file dir) ~ckpt:(Node.ckpt_file dir)
                ~fresh:D.Database.Z.create (St.Registry.restore reg)))
      in
      let live = St.Registry.fingerprints reg in
      let recov = St.Registry.fingerprints restored in
      let ok = live = recov && cursor.St.Checkpoint.records = applied in
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
        "\nrestart verification skipped (stream too short for a mid-run checkpoint)"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Stream updates through one durable serving node (WAL + epoch \
             micro-batching + checkpoint/restore), then verify a restart \
             against the live state")
    Term.(const run $ updates_arg $ nodes_arg $ producers_arg $ queue_arg $ dir_arg
          $ stats_every_arg $ listen_arg $ handlers_arg)

let chaos_cmd =
  let module Chaos = Ivm_check.Chaos in
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
    let dir = fresh_dir dir "ivm_chaos" in
    let all = Chaos.scenarios ~cluster in
    let chosen =
      if scenario = "all" then all
      else
        match List.filter (fun (s : Chaos.scenario) -> s.Chaos.name = scenario) all with
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
        Printf.printf "[%-17s] seed %-3d %s ...%!" sc.Chaos.name seed sc.Chaos.describe;
        match Chaos.run ~cluster ~dir ~updates ~nodes ~seed sc with
        | Ok o when cluster ->
            Printf.printf " PASS (%d failover(s), %d dead-lettered%s)\n%!" o.Chaos.recoveries
              o.Chaos.dead_lettered
              (if o.Chaos.quarantined <> [] then ", flaky quarantined" else "")
        | Ok o ->
            Printf.printf " PASS (%d crash-recoveries, %d dead-lettered%s)\n%!"
              o.Chaos.recoveries o.Chaos.dead_lettered
              (if o.Chaos.quarantined <> [] then
                 ", quarantined: " ^ String.concat "," o.Chaos.quarantined
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
    let module Chaos = Ivm_check.Chaos in
    let views =
      ok_or_die "cluster"
        (Chaos.demo ~shards ~updates ~nodes ~standby:(not no_standby) ~kill
           ~dir:(fresh_dir dir "ivm_cluster") ~seed ~log:print_endline)
    in
    Printf.printf "\nview                 entries    fingerprint  vs single-node reference\n";
    List.iter
      (fun (v : Chaos.demo_view) ->
        Printf.printf "%-20s %-10d %-12d %s\n" v.Chaos.view v.Chaos.entries v.Chaos.fingerprint
          (if v.Chaos.fingerprint = v.Chaos.reference then "match"
           else Printf.sprintf "MISMATCH (reference %d)" v.Chaos.reference))
      views;
    match
      List.filter (fun (v : Chaos.demo_view) -> v.Chaos.fingerprint <> v.Chaos.reference) views
    with
    | [] -> print_endline "all views match the single-node reference"
    | bad ->
        Printf.printf "%d view(s) diverged from the single-node reference\n" (List.length bad);
        exit 1
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
                 of an in-process session: each script is sent whole \
                 through the sql op and runs in the server's SQL session, \
                 SELECT and EXPLAIN included.")
  in
  let params_arg =
    Arg.(value & opt_all string [] & info [ "param" ] ~docv:"V"
           ~doc:"Value for the next ? placeholder, in order (repeatable). \
                 Parsed as an integer or real when possible, else a string. \
                 In-process sessions only: the sql wire op carries no \
                 parameters, so $(b,--param) with $(b,--connect) is refused \
                 (exit 2).")
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
    if connect <> None && params <> [] then
      fail "--param cannot be used with --connect: the sql wire op carries no parameters";
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
    let run_text =
      match remote with
      | Some c ->
          fun text ->
            Result.map_error Ivm_net.Wire.error_to_string (Ivm_net.Client.sql c text)
      | None ->
          let sess = Sql.Exec.create () in
          fun text ->
            Result.map
              (fun outs -> String.concat "\n" (List.map Sql.Exec.render outs))
              (Sql.Exec.exec_text sess ~params text)
    in
    let ok = ref true in
    let exec_text text =
      match run_text text with
      | Ok "" -> ()
      | Ok out -> print_endline out
      | Error e ->
          Printf.eprintf "error: %s\n%!" e;
          ok := false
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
