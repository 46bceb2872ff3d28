(* The sharded cluster layer: topology placement soundness, routed
   ingest + merged reads against a single-node reference, abrupt
   kill-mid-ingest failover with exactly-once re-send accounting,
   auto_failover:false surfacing clean errors, injected connection
   faults (the [cluster.conn] failpoint) resolved without duplicates,
   the quiesced-kill guarantee (a barriered kill loses nothing, also
   with clients reading and writing throughout), recovery when a
   checkpoint covers a corrupt WAL record (nothing lost, nothing
   applied twice), a session token and the admin checkpoint
   rendezvous across node restarts and kills, and client-side deadlines
   against a mute peer. *)

module D = Ivm_data
module S = D.Schema
module U = D.Update
module St = Ivm_stream
module M = Ivm_engine.Maintainable
module Cl = Ivm_cluster
module Fp = Ivm_fault.Failpoint
module Wire = Ivm_net.Wire
module Client = Ivm_net.Client

let tup = D.Tuple.of_ints

let fresh_dir label =
  let d = Filename.concat (Filename.get_temp_dir_name ()) ("ivm_test_cluster_" ^ label) in
  Ivm_check.Engines.rm_rf d;
  d

(* --- the workload: a co-partitioned 2-way join ------------------------ *)

let q_rs =
  Ivm_query.Cq.make ~name:"Q" ~free:[ "B"; "A"; "C" ]
    [ Ivm_query.Cq.atom "R" [ "A"; "B" ]; Ivm_query.Cq.atom "S" [ "B"; "C" ] ]

let paths_factory name (db : D.Database.Z.t) : M.t =
  let forest = Option.get (Ivm_query.Variable_order.canonical q_rs) in
  M.of_view_tree ~name q_rs (Ivm_engine.View_tree.build q_rs forest db)

let declare reg =
  ignore (St.Registry.declare_table reg "R" (S.of_list [ "A"; "B" ]));
  ignore (St.Registry.declare_table reg "S" (S.of_list [ "B"; "C" ]));
  St.Registry.register reg ~name:"paths" (paths_factory "paths");
  St.Registry.register reg ~name:"paths-sum" (paths_factory "paths-sum")

(* R hashed on B (col 1), S hashed on B (col 0): the join is
   shard-local, so the keyed route and the scattered ring-sum must
   agree with each other and with the single-node reference. *)
let topology ~shards =
  Cl.Topology.create ~shards
    ~policies:[ ("R", Cl.Topology.Hash_col 1); ("S", Cl.Topology.Hash_col 0) ]
    ~routes:[ ("paths", Cl.Topology.Keyed); ("paths-sum", Cl.Topology.Scattered) ]

let make_stream n =
  let st = Random.State.make [| 0xC1; n |] in
  Array.init n (fun _ ->
      let rel = if Random.State.bool st then "R" else "S" in
      let a = Random.State.int st 7 and b = Random.State.int st 7 in
      let payload = 1 + Random.State.int st 3 in
      U.make ~rel ~tuple:(tup [ a; b ]) ~payload)

let reference_fp updates =
  let db = D.Database.Z.create () in
  let reg = St.Registry.create db in
  declare reg;
  St.Registry.apply_batch reg (Array.to_list updates);
  let entries =
    List.filter (fun (_, p) -> p <> 0) ((St.Registry.find reg "paths").M.enumerate ())
  in
  M.entries_fingerprint entries

let ok_router = function
  | Ok r -> r
  | Error m -> Alcotest.failf "router start failed: %s" m

let ok_log = function Ok () -> () | Error m -> Alcotest.failf "send log: %s" m

let start_router ?(auto_failover = true) ?(probe_interval = 0.) ~label () =
  ok_router
    (Cl.Router.start ~standby:false ~probe_interval ~auto_failover ~timeout:5.
       ~base_dir:(fresh_dir label) ~topology:(topology ~shards:2) ~declare ())

(* --- topology units ---------------------------------------------------- *)

let test_topology_owners () =
  let topo = topology ~shards:2 in
  (* key_owner and owners agree on every tuple carrying the key in the
     relation's hash column. *)
  for a = 0 to 6 do
    for b = 0 to 6 do
      let r_owner =
        match Cl.Topology.owners topo ~rel:"R" (tup [ a; b ]) with
        | Some [ i ] -> i
        | _ -> Alcotest.fail "R update must have exactly one owner"
      in
      let s_owner =
        match Cl.Topology.owners topo ~rel:"S" (tup [ b; a ]) with
        | Some [ i ] -> i
        | _ -> Alcotest.fail "S update must have exactly one owner"
      in
      Alcotest.(check int) "R owner = key_owner B" (Cl.Topology.key_owner topo (D.Value.of_int b)) r_owner;
      Alcotest.(check int) "co-partition: R and S agree on B" r_owner s_owner
    done
  done;
  Alcotest.(check bool) "unknown relation has no owner" true
    (Cl.Topology.owners topo ~rel:"nope" (tup [ 1; 2 ]) = None);
  Alcotest.(check bool) "out-of-range hash column has no owner" true
    (Cl.Topology.owners topo ~rel:"R" (tup [ 1 ]) = None)

let test_topology_shapes () =
  let topo3 =
    Cl.Topology.create ~shards:3
      ~policies:[ ("T", Cl.Topology.Broadcast) ]
      ~routes:[ ("rep", Cl.Topology.Replicated) ]
  in
  Alcotest.(check int) "shard count rounds up to a power of two" 4
    (Cl.Topology.shard_count topo3);
  (match Cl.Topology.owners topo3 ~rel:"T" (tup [ 1; 2 ]) with
  | Some os -> Alcotest.(check int) "broadcast reaches every shard" 4 (List.length os)
  | None -> Alcotest.fail "broadcast update must have owners");
  Alcotest.(check string) "unlisted views read scattered" "scattered"
    (Cl.Topology.route_name (Cl.Topology.route topo3 "unlisted"));
  Alcotest.(check string) "listed route survives" "replicated"
    (Cl.Topology.route_name (Cl.Topology.route topo3 "rep"))

(* --- routed convergence ------------------------------------------------ *)

let feed_router router stream =
  let n = Array.length stream in
  let rec go i =
    if i < n then begin
      let len = min 64 (n - i) in
      let batch = Array.to_list (Array.sub stream i len) in
      (match Cl.Router.ingest router batch with
      | Ok (_, 0) -> ()
      | Ok (_, d) -> Alcotest.failf "%d updates dead-lettered" d
      | Error m -> Alcotest.failf "routed ingest failed: %s" m);
      go (i + len)
    end
  in
  go 0

let test_cluster_converges () =
  let stream = make_stream 400 in
  let router = start_router ~label:"converge" () in
  Fun.protect
    ~finally:(fun () -> Cl.Router.stop router)
    (fun () ->
      feed_router router stream;
      (match Cl.Router.barrier router with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "barrier failed: %s" m);
      let expect = reference_fp stream in
      (match Cl.Router.fingerprint router ~view:"paths" with
      | Ok fp -> Alcotest.(check int) "keyed view matches reference" expect fp
      | Error m -> Alcotest.failf "fingerprint paths: %s" m);
      (match Cl.Router.fingerprint router ~view:"paths-sum" with
      | Ok fp -> Alcotest.(check int) "scattered ring-sum matches reference" expect fp
      | Error m -> Alcotest.failf "fingerprint paths-sum: %s" m);
      (* A keyed lookup with a bound first column answers only from the
         key's owner shard — and must agree with a filter over the
         merged snapshot. *)
      let full =
        match Cl.Router.snapshot router ~view:"paths" with
        | Ok es -> es
        | Error m -> Alcotest.failf "snapshot: %s" m
      in
      for b = 0 to 6 do
        let prefix = tup [ b ] in
        match Cl.Router.lookup router ~view:"paths" ~prefix with
        | Error m -> Alcotest.failf "lookup B=%d: %s" b m
        | Ok got ->
            let want =
              List.filter (fun (t, _) -> D.Value.to_int (D.Tuple.get t 0) = b) full
            in
            Alcotest.(check int)
              (Printf.sprintf "keyed lookup B=%d matches merged filter" b)
              (M.entries_fingerprint want) (M.entries_fingerprint got)
      done)

(* --- the extremal route: per-shard extrema merged by recompute --------- *)

module Df = Ivm_dataflow.Graph

(* Per-node views over Temps(G, V) on the dataflow operator graph:
   smallest-2 and grouped MAX. Temps is hash_tuple-partitioned, so a
   group's value multiset SPANS shards — each node serves only its
   local first-k slots, and the read must recompute the global slots
   from their union (an extremum is not a ring sum). *)
let minmax_graph (db : D.Database.Z.t) =
  let g = Df.create () in
  let src = Df.source g ~rel:"Temps" ~schema:[ "G"; "V" ] in
  Df.output g ~name:"coldest" (Df.extremum g ~k:2 ~dir:Df.Asc ~col:"V" ~group:[ "G" ] src);
  Df.output g ~name:"hottest" (Df.maximum g ~col:"V" ~group:[ "G" ] src);
  let seed =
    D.Relation.Z.fold
      (fun tp p acc -> U.make ~rel:"Temps" ~tuple:tp ~payload:p :: acc)
      (D.Database.Z.find db "Temps") []
  in
  Df.apply g seed;
  g

let declare_minmax reg =
  ignore (St.Registry.declare_table reg "Temps" (S.of_list [ "G"; "V" ]));
  let graph = minmax_graph in
  St.Registry.register reg ~name:"coldest" (fun db ->
      M.of_dataflow ~name:"coldest" (graph db));
  St.Registry.register reg ~name:"hottest" (fun db ->
      M.of_dataflow ~name:"hottest" (graph db))

let topology_minmax ~shards =
  Cl.Topology.create ~shards
    ~policies:[ ("Temps", Cl.Topology.Hash_tuple) ]
    ~routes:
      [
        ("coldest", Cl.Topology.Extremal { desc = false; k = 2 });
        ("hottest", Cl.Topology.Extremal { desc = true; k = 1 });
      ]

(* Random inserts plus deletes aimed at the currently live extremum of
   a random group — the stream that keeps forcing each node's re-scan
   fallback and keeps the merged slots moving. *)
let make_minmax_stream n =
  let st = Random.State.make [| 0xE1; n |] in
  let live = Hashtbl.create 64 in
  let bump key d =
    let c = Option.value (Hashtbl.find_opt live key) ~default:0 + d in
    if c = 0 then Hashtbl.remove live key else Hashtbl.replace live key c
  in
  Array.init n (fun _ ->
      let aimed =
        if Random.State.int st 100 < 35 then begin
          (* delete one copy of some group's live min or max *)
          let want_max = Random.State.bool st in
          let best = ref None in
          Hashtbl.iter
            (fun (g, v) _ ->
              match !best with
              | Some (g', v') when g' = g ->
                  if (want_max && v > v') || ((not want_max) && v < v') then
                    best := Some (g, v)
              | Some _ -> ()
              | None -> best := Some (g, v))
            live;
          !best
        end
        else None
      in
      match aimed with
      | Some (g, v) ->
          bump (g, v) (-1);
          U.make ~rel:"Temps" ~tuple:(tup [ g; v ]) ~payload:(-1)
      | None ->
          let g = 1 + Random.State.int st 4 and v = Random.State.int st 12 in
          let payload = 1 + Random.State.int st 2 in
          bump (g, v) payload;
          U.make ~rel:"Temps" ~tuple:(tup [ g; v ]) ~payload)

let minmax_reference_fp updates view =
  let db = D.Database.Z.create () in
  let reg = St.Registry.create db in
  declare_minmax reg;
  St.Registry.apply_batch reg (Array.to_list updates);
  let entries =
    List.filter (fun (_, p) -> p <> 0) ((St.Registry.find reg view).M.enumerate ())
  in
  M.entries_fingerprint entries

let test_extremal_route () =
  let stream = make_minmax_stream 400 in
  let router =
    ok_router
      (Cl.Router.start ~standby:false ~probe_interval:0. ~auto_failover:false
         ~timeout:5. ~base_dir:(fresh_dir "extremal")
         ~topology:(topology_minmax ~shards:2) ~declare:declare_minmax ())
  in
  Fun.protect
    ~finally:(fun () -> Cl.Router.stop router)
    (fun () ->
      feed_router router stream;
      List.iter
        (fun view ->
          let expect = minmax_reference_fp stream view in
          match Cl.Router.fingerprint router ~view with
          | Ok fp ->
              Alcotest.(check int)
                (Printf.sprintf "extremal merge of %s matches single-node reference" view)
                expect fp
          | Error m -> Alcotest.failf "fingerprint %s: %s" view m)
        [ "coldest"; "hottest" ];
      (* The merged smallest-2 really did come from more than one
         shard's local slots somewhere in this stream — otherwise the
         recompute path was never exercised. Spot-check the shape: at
         most 2 slots per group, payloads positive. *)
      match Cl.Router.snapshot router ~view:"coldest" with
      | Error m -> Alcotest.failf "snapshot coldest: %s" m
      | Ok rows ->
          let per_group = Hashtbl.create 8 in
          List.iter
            (fun (t, p) ->
              Alcotest.(check bool) "slot payloads are positive" true (p > 0);
              let g = D.Value.to_int (D.Tuple.get t 0) in
              Hashtbl.replace per_group g
                (Option.value (Hashtbl.find_opt per_group g) ~default:0 + p))
            rows;
          Hashtbl.iter
            (fun _ slots ->
              Alcotest.(check bool) "at most k=2 slots per group" true (slots <= 2))
            per_group)

(* --- abrupt kill mid-ingest: exactly-once re-send ---------------------- *)

let test_kill_mid_ingest () =
  let stream = make_stream 480 in
  let router = start_router ~label:"killmid" () in
  Fun.protect
    ~finally:(fun () -> Cl.Router.stop router)
    (fun () ->
      let log = Cl.Send_log.create router in
      Array.iteri
        (fun j u ->
          ok_log (Cl.Send_log.route log [ u ]);
          (* Abrupt kill mid-stream, deliberately NOT behind a barrier:
             queued-but-unapplied acks become a lost range the send log
             must re-send. *)
          if j = 200 then Cl.Router.kill_primary router ~shard:0)
        stream;
      ok_log (Cl.Send_log.settle log);
      (* Nothing may remain published after the log settled. *)
      Alcotest.(check bool) "no lost ranges remain" false
        (Cl.Router.has_lost router ~shard:0 || Cl.Router.has_lost router ~shard:1);
      let expect = reference_fp stream in
      (match Cl.Router.fingerprint router ~view:"paths" with
      | Ok fp ->
          Alcotest.(check int) "post-failover state matches reference exactly-once" expect fp
      | Error m -> Alcotest.failf "fingerprint: %s" m);
      let failovers =
        List.fold_left
          (fun acc (s : Cl.Router.shard_status) -> acc + s.Cl.Router.failovers)
          0 (Cl.Router.status router)
      in
      Alcotest.(check bool) "the kill really caused a promotion" true (failovers >= 1))

(* --- auto_failover:false surfaces clean errors ------------------------- *)

let test_no_auto_failover () =
  let router = start_router ~auto_failover:false ~label:"noauto" () in
  Fun.protect
    ~finally:(fun () -> Cl.Router.stop router)
    (fun () ->
      let u = U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:1 in
      let shard =
        match Cl.Topology.owners (Cl.Router.topology router) ~rel:"R" u.U.tuple with
        | Some [ i ] -> i
        | _ -> Alcotest.fail "no owner"
      in
      (match Cl.Router.ingest_shard router ~shard [ u ] with
      | Ok 1 -> ()
      | Ok n -> Alcotest.failf "expected 1 admitted, got %d" n
      | Error m -> Alcotest.failf "healthy ingest failed: %s" m);
      Cl.Router.kill_primary router ~shard;
      (* Every retry must surface a result-typed error — no exception,
         no hang, and no silent promotion. *)
      (match Cl.Router.ingest_shard router ~shard [ u ] with
      | Ok _ -> Alcotest.fail "ingest against a dead primary must not succeed"
      | Error m -> Alcotest.(check bool) "error names the shard" true (String.length m > 0));
      (match Cl.Router.reconcile_sent router ~shard with
      | Ok _ -> Alcotest.fail "reconcile_sent must refuse without auto_failover"
      | Error _ -> ());
      (* Manual promotion restores service. *)
      (match Cl.Router.fail_over router ~shard with
      | Error m -> Alcotest.failf "manual fail_over: %s" m
      | Ok (_dt, recovered) ->
          Alcotest.(check bool) "promotion reports durable count" true (recovered >= 0));
      match Cl.Router.ingest_shard router ~shard [ u ] with
      | Ok 1 -> ()
      | Ok n -> Alcotest.failf "expected 1 admitted after promotion, got %d" n
      | Error m -> Alcotest.failf "post-promotion ingest failed: %s" m)

(* --- injected connection faults resolve without duplicates ------------- *)

(* Seeded fault schedules on the pool: a failed checkout ([cluster.conn],
   the batch never left) and a lost answer ([cluster.ack], the batch
   landed) surface the same transport error, whose ambiguity must be
   resolved by fencing, not blind retry — the final state must match
   the reference exactly (no duplicate, no loss). *)
let test_conn_fault_schedules () =
  List.iter
    (fun (fp, seed, after) ->
      let stream = make_stream 240 in
      let router = start_router ~label:(Printf.sprintf "connfp%d" seed) () in
      Fun.protect
        ~finally:(fun () ->
          Fp.reset ();
          Cl.Router.stop router)
        (fun () ->
          let log = Cl.Send_log.create router in
          Fp.enable ~seed ();
          Fp.arm fp ~after ~times:2 Fp.Fail;
          Array.iter (fun u -> ok_log (Cl.Send_log.route log [ u ])) stream;
          Alcotest.(check bool) "the armed fault fired" true (Fp.fired fp > 0);
          ok_log (Cl.Send_log.settle log);
          let expect = reference_fp stream in
          match Cl.Router.fingerprint router ~view:"paths" with
          | Ok got ->
              Alcotest.(check int)
                (Printf.sprintf "%s seed %d: no duplicates or loss under injected faults" fp seed)
                expect got
          | Error m -> Alcotest.failf "fingerprint: %s" m))
    [
      ("cluster.conn", 11, 3);
      ("cluster.conn", 12, 7);
      ("cluster.conn", 13, 11);
      ("cluster.ack", 14, 5);
      ("cluster.ack", 15, 40);
    ]

(* --- quiesced kill loses nothing --------------------------------------- *)

let test_quiesced_kill_lossless () =
  let stream = make_stream 300 in
  let router = start_router ~label:"quiesced" () in
  Fun.protect
    ~finally:(fun () -> Cl.Router.stop router)
    (fun () ->
      feed_router router stream;
      (* The two-phase fence: every admitted record is applied and
         durable when it returns, so a kill immediately after cannot
         publish a lost range. *)
      (match
         Cl.Router.quiesced router (fun () ->
             Cl.Router.kill_primary router ~shard:1;
             Cl.Router.fail_over router ~shard:1)
       with
      | Ok (Ok (_dt, _recovered)) -> ()
      | Ok (Error m) -> Alcotest.failf "failover inside fence: %s" m
      | Error m -> Alcotest.failf "quiesced: %s" m);
      Alcotest.(check bool) "a barriered kill loses no acked records" false
        (Cl.Router.has_lost router ~shard:1);
      let expect = reference_fp stream in
      match Cl.Router.fingerprint router ~view:"paths" with
      | Ok fp -> Alcotest.(check int) "state intact across quiesced failover" expect fp
      | Error m -> Alcotest.failf "fingerprint: %s" m)

(* One closed-loop client: keyed lookups and single-update ingests over
   its own seeded graph stream (valid deletes; T edges are skipped, the
   topology has no T). Returns the updates it sent, or the first error —
   Alcotest's state is not domain-safe, so the main domain checks. *)
let load_worker router ~seed ~ops ~progress () =
  let rng = Random.State.make [| seed |] in
  let gen =
    Ivm_workload.Graph_gen.create ~seed
      { Ivm_workload.Graph_gen.nodes = 7; skew = 0.; delete_ratio = 0.2 }
  in
  let rec next_update () =
    match Ivm_workload.Graph_gen.next gen with
    | { Ivm_workload.Graph_gen.rel = 2; _ } -> next_update ()
    | e ->
        U.make
          ~rel:(if e.Ivm_workload.Graph_gen.rel = 0 then "R" else "S")
          ~tuple:(tup [ e.Ivm_workload.Graph_gen.src; e.Ivm_workload.Graph_gen.dst ])
          ~payload:e.Ivm_workload.Graph_gen.mult
  in
  let rec loop i sent =
    if i > ops then Ok (List.rev sent)
    else
      let r =
        if Random.State.bool rng then
          Result.map
            (fun _ -> sent)
            (Cl.Router.lookup router ~view:"paths"
               ~prefix:(tup [ 1 + Random.State.int rng 7 ]))
        else
          let u = next_update () in
          match Cl.Router.ingest router [ u ] with
          | Ok (1, 0) -> Ok (u :: sent)
          | Ok (a, d) -> Error (Printf.sprintf "ingest: %d admitted, %d dead-lettered" a d)
          | Error m -> Error m
      in
      Atomic.incr progress;
      match r with Ok sent -> loop (i + 1) sent | Error m -> Error m
  in
  loop 1 []

(* A planned kill under live traffic: two clients keep reading and
   writing while the main domain fences the cluster, kills a primary
   and promotes a replacement from its durable files (the warm standby
   is retired, never promoted). Nothing acked may be lost or
   duplicated. *)
let test_quiesced_kill_under_load () =
  let ops = 300 and workers = 2 in
  let router =
    ok_router
      (Cl.Router.start ~standby:true ~probe_interval:0. ~seed:3 ~timeout:5.
         ~base_dir:(fresh_dir "underload") ~topology:(topology ~shards:2) ~declare ())
  in
  Fun.protect
    ~finally:(fun () -> Cl.Router.stop router)
    (fun () ->
      let progress = Atomic.make 0 in
      let domains =
        List.init workers (fun i ->
            Domain.spawn (load_worker router ~seed:(41 + i) ~ops ~progress))
      in
      let deadline = Unix.gettimeofday () +. 30. in
      while Atomic.get progress < ops * workers / 2 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      let halfway = Atomic.get progress in
      let failover =
        Cl.Router.quiesced router (fun () ->
            Cl.Router.kill_primary router ~shard:0;
            Cl.Router.fail_over router ~shard:0)
      in
      let results = List.map Domain.join domains in
      Alcotest.(check bool) "the kill landed mid-run" true
        (halfway >= ops * workers / 2 && halfway < ops * workers);
      (match failover with
      | Ok (Ok _) -> ()
      | Ok (Error m) -> Alcotest.failf "failover inside fence: %s" m
      | Error m -> Alcotest.failf "quiesced: %s" m);
      let sent =
        List.concat_map
          (function Ok s -> s | Error m -> Alcotest.failf "client failed: %s" m)
          results
      in
      let expect = reference_fp (Array.of_list sent) in
      List.iter
        (fun view ->
          match Cl.Router.fingerprint router ~view with
          | Ok fp ->
              Alcotest.(check int) (view ^ " = reference over the updates sent") expect fp
          | Error m -> Alcotest.failf "fingerprint %s: %s" view m)
        [ "paths"; "paths-sum" ];
      let failovers =
        List.fold_left
          (fun acc (s : Cl.Router.shard_status) -> acc + s.Cl.Router.failovers)
          0 (Cl.Router.status router)
      in
      Alcotest.(check bool) "the kill caused a promotion" true (failovers >= 1);
      Alcotest.(check bool) "no lost ranges" false
        (Cl.Router.has_lost router ~shard:0 || Cl.Router.has_lost router ~shard:1))

(* --- a checkpoint over a corrupt WAL record ----------------------------- *)

(* One node, a checkpoint every 100 records, and a synced WAL record
   bit-flipped before the first checkpoint covers it. Every update
   carries a fresh tuple, so a lost update shrinks a relation and a
   doubled one shows as multiplicity 2 — ring payloads never let the
   two cancel out. *)
let corrupt_stream n =
  Array.init n (fun i ->
      if i mod 3 = 2 then U.make ~rel:"S" ~tuple:(tup [ i mod 7; i ]) ~payload:1
      else U.make ~rel:"R" ~tuple:(tup [ i; i mod 7 ]) ~payload:1)

let node_spec dir = Cl.Node.spec ~checkpoint_every:100 ~name:"ckpt-corrupt" ~dir declare

let start_spec spec =
  match Cl.Node.start spec with Ok n -> n | Error m -> Alcotest.failf "node start: %s" m

let start_node dir = start_spec (node_spec dir)

(* Send the stream from [Node.recovered] (where a router re-sends from
   after a restart) up to [upto], in 10-update batches, waiting for
   each to apply. *)
let feed_node node stream ~upto =
  let base = Cl.Node.recovered node in
  let rec go i =
    if i < upto then begin
      let len = min 10 (upto - i) in
      let admitted, _ = Cl.Node.ingest node (Array.to_list (Array.sub stream i len)) in
      if admitted <> len then Alcotest.failf "node admitted %d of %d" admitted len;
      let deadline = Unix.gettimeofday () +. 10. in
      while Cl.Node.applied node < i + len - base do
        if Unix.gettimeofday () > deadline then Alcotest.fail "node stopped applying";
        Unix.sleepf 0.001
      done;
      go (i + len)
    end
  in
  go base

let check_state label node stream ~upto =
  let reference = St.Registry.create (D.Database.Z.create ()) in
  declare reference;
  St.Registry.apply_batch reference (Array.to_list (Array.sub stream 0 upto));
  let reg = Cl.Node.registry node in
  let size name r = D.Relation.Z.size (D.Database.Z.find (St.Registry.db r) name) in
  St.Registry.read reg (fun () ->
      Alcotest.(check int) (label ^ ": |R|") (size "R" reference) (size "R" reg);
      Alcotest.(check int) (label ^ ": |S|") (size "S" reference) (size "S" reg);
      Alcotest.(check (list (pair string int)))
        (label ^ ": fingerprints") (St.Registry.fingerprints reference)
        (St.Registry.fingerprints reg);
      Alcotest.(check int) (label ^ ": recovered = durable records") upto
        (Cl.Node.recovered node))

(* Life 1 applies 150 updates (record 95 bit-flipped on disk, the
   checkpoint at 100 covering it) and is killed. *)
let first_life dir stream =
  Fun.protect ~finally:Fp.reset (fun () ->
      Fp.enable ~seed:1 ();
      (* Hit 1 writes the log header, so record 95 is flipped. *)
      Fp.arm "wal.write" ~after:95 ~times:1 (Fp.Bit_flip 12);
      let n1 = start_node dir in
      feed_node n1 stream ~upto:150;
      Cl.Node.kill n1;
      Alcotest.(check int) "the bit flip fired" 1 (Fp.fired "wal.write"))

(* The checkpoint covers the corrupt record and synced records follow
   it: recovery replays that suffix instead of stopping at the corrupt
   record below the checkpoint. Life 2 then appends to 170 and dies
   before its next checkpoint: had its reopen cut the log at the
   corrupt record, the checkpoint's offset would now point into those
   new records. *)
let test_ckpt_over_corrupt_suffix () =
  let dir = fresh_dir "ckpt_corrupt_suffix" in
  let stream = corrupt_stream 170 in
  first_life dir stream;
  let n2 = start_node dir in
  Fun.protect ~finally:(fun () -> Cl.Node.kill n2) (fun () ->
      check_state "restart" n2 stream ~upto:150;
      feed_node n2 stream ~upto:170);
  let n3 = start_node dir in
  Fun.protect
    ~finally:(fun () -> Cl.Node.stop n3)
    (fun () -> check_state "second restart" n3 stream ~upto:170)

(* Life 2 is fed on to 380 (checkpoints at 200 and 300) and killed;
   life 3 must recover exactly the 380 durable updates, none lost and
   none applied twice. *)
let test_ckpt_over_corrupt_two_restarts () =
  let dir = fresh_dir "ckpt_corrupt_twice" in
  let stream = corrupt_stream 380 in
  first_life dir stream;
  let n2 = start_node dir in
  feed_node n2 stream ~upto:380;
  Cl.Node.kill n2;
  let n3 = start_node dir in
  Fun.protect
    ~finally:(fun () -> Cl.Node.stop n3)
    (fun () -> check_state "third life" n3 stream ~upto:380)

(* --- one node across restarts: tokens and the checkpoint rendezvous ---- *)

let ok_wire = function Ok v -> v | Error e -> Alcotest.failf "wire: %s" (Wire.error_to_string e)

let with_client node f =
  let c = ok_wire (Client.connect ~timeout:10. ~port:(Cl.Node.port node) ()) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* A read-your-writes session survives a clean restart: the restarted
   node's watermarks continue from the records it recovered, so the
   session's old token gates a read the new node can serve at once. *)
let test_session_token_across_restart () =
  let dir = fresh_dir "token_restart" in
  let spec = Cl.Node.spec ~name:"token" ~dir declare in
  let stream = make_stream 50 in
  let n1 = start_spec spec in
  let session =
    Fun.protect
      ~finally:(fun () -> Cl.Node.stop n1)
      (fun () ->
        with_client n1 (fun c ->
            let s = Client.Session.create c in
            Array.iter (fun u -> ignore (ok_wire (Client.Session.write s [ u ]))) stream;
            s))
  in
  let n2 = start_spec spec in
  Fun.protect
    ~finally:(fun () -> Cl.Node.stop n2)
    (fun () ->
      Alcotest.(check int) "every write recovered" 50 (Cl.Node.recovered n2);
      with_client n2 (fun c ->
          let s = Client.Session.reattach session c in
          match Client.Session.read ~timeout_ms:300 s ~view:"paths" ~prefix:(tup []) with
          | Ok rows ->
              Alcotest.(check int) "the reattached session reads its writes"
                (reference_fp stream) (M.entries_fingerprint rows)
          | Error e -> Alcotest.failf "session read: %s" (Wire.error_to_string e)))

(* An admin checkpoint on an idle node: the rendezvous forces an epoch,
   saves at its boundary and answers the WAL offset it covers; a
   restart recovers exactly the records the node had applied. *)
let test_checkpoint_rendezvous () =
  let dir = fresh_dir "ckpt_rendezvous" in
  let spec = Cl.Node.spec ~name:"ckpt" ~dir declare in
  let stream = make_stream 40 in
  let n1 = start_spec spec in
  let offset, applied =
    Fun.protect
      ~finally:(fun () -> Cl.Node.stop n1)
      (fun () ->
        with_client n1 (fun c ->
            ignore (ok_wire (Client.ingest c (Array.to_list stream)));
            ignore (ok_wire (Client.barrier c));
            let offset = ok_wire (Client.checkpoint c) in
            (offset, Cl.Node.applied n1)))
  in
  Alcotest.(check int) "the offset is the synced log's end" offset
    (Unix.stat (Cl.Node.wal_file dir)).Unix.st_size;
  (match St.Checkpoint.Z.load (Cl.Node.ckpt_file dir) with
  | Ok (_, cursor) ->
      Alcotest.(check int) "checkpoint cursor offset" offset cursor.St.Checkpoint.wal_offset;
      Alcotest.(check int) "checkpoint covers every applied record" applied
        cursor.St.Checkpoint.records
  | Error e -> Alcotest.failf "checkpoint load: %s" (St.Errors.to_string e));
  let reference = St.Registry.create (D.Database.Z.create ()) in
  declare reference;
  St.Registry.apply_batch reference (Array.to_list stream);
  let restart label =
    let n = start_spec spec in
    Fun.protect
      ~finally:(fun () -> Cl.Node.stop n)
      (fun () ->
        Alcotest.(check int) (label ^ ": recovered = records applied") applied
          (Cl.Node.recovered n);
        Alcotest.(check (list (pair string int)))
          (label ^ ": restored state") (St.Registry.fingerprints reference)
          (St.Registry.fingerprints (Cl.Node.registry n)))
  in
  restart "from the checkpoint";
  (* Without the checkpoint the whole log replays, the zero-payload
     tick on its relation-less name included. *)
  Sys.remove (Cl.Node.ckpt_file dir);
  restart "from the log alone"

(* A checkpoint request parked behind a stuck epoch when the node is
   killed gets an error instead of hanging its client. *)
let test_checkpoint_parked_kill () =
  let dir = fresh_dir "ckpt_parked" in
  let gate = Atomic.make true in
  let declare_gated reg =
    declare reg;
    St.Registry.register reg ~name:"gate" (fun _ ->
        {
          M.name = "gate";
          relations = [ "R" ];
          apply_batch = (fun _ -> while Atomic.get gate do Unix.sleepf 0.001 done);
          apply_delta = None;
          output_count = (fun () -> 0);
          fingerprint = (fun () -> 0);
          enumerate = (fun () -> []);
        })
  in
  let node = start_spec (Cl.Node.spec ~name:"parked" ~dir declare_gated) in
  with_client node (fun c ->
      ignore (ok_wire (Client.ingest c [ U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:1 ])));
  let t0 = Unix.gettimeofday () in
  let request = Domain.spawn (fun () -> with_client node Client.checkpoint) in
  (* Let the request park; the killed node's runner can only be reaped
     once the stuck apply returns. *)
  Unix.sleepf 0.2;
  let release =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        Atomic.set gate false)
  in
  Cl.Node.kill node;
  let answer = Domain.join request in
  Domain.join release;
  (match answer with
  | Ok offset -> Alcotest.failf "a killed node answered a checkpoint (offset %d)" offset
  | Error _ -> ());
  Alcotest.(check bool) "the parked request did not hang" true
    (Unix.gettimeofday () -. t0 < 10.)

(* --- client deadlines against a mute peer ------------------------------ *)

let test_client_timeout () =
  (* A listener that never answers: connect lands in the backlog, the
     request is swallowed, and only the client's deadline gets it out. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen fd 8;
      let port =
        match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
      in
      match Client.connect ~timeout:0.2 ~port () with
      | Error e -> Alcotest.failf "connect into backlog failed: %s" (Wire.error_to_string e)
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let t0 = Unix.gettimeofday () in
              (match Client.ping c with
              | Ok () -> Alcotest.fail "a mute peer must not answer"
              | Error Wire.Timeout -> ()
              | Error e ->
                  Alcotest.failf "expected Timeout, got %s" (Wire.error_to_string e));
              let dt = Unix.gettimeofday () -. t0 in
              Alcotest.(check bool) "deadline bounds the wait" true (dt < 2.);
              Alcotest.(check bool) "timeouts are retryable" true
                (Client.retryable Wire.Timeout);
              Alcotest.(check bool) "remote rejections are not retryable" false
                (Client.retryable (Wire.Remote "nope"))))

let () =
  Alcotest.run "cluster"
    [
      ( "topology",
        [
          Alcotest.test_case "owners agree with key_owner" `Quick test_topology_owners;
          Alcotest.test_case "shapes and defaults" `Quick test_topology_shapes;
        ] );
      ( "routing",
        [
          Alcotest.test_case "2-shard convergence vs reference" `Quick test_cluster_converges;
          Alcotest.test_case "extremal route merges by recompute" `Quick test_extremal_route;
        ] );
      ( "failover",
        [
          Alcotest.test_case "abrupt kill mid-ingest, exactly-once" `Quick test_kill_mid_ingest;
          Alcotest.test_case "auto_failover:false surfaces errors" `Quick test_no_auto_failover;
          Alcotest.test_case "quiesced kill is lossless" `Quick test_quiesced_kill_lossless;
          Alcotest.test_case "quiesced kill under concurrent load" `Quick
            test_quiesced_kill_under_load;
        ] );
      ( "faults",
        [
          Alcotest.test_case "conn-fault schedules, no duplicates" `Quick
            test_conn_fault_schedules;
          Alcotest.test_case "checkpoint over a corrupt record, suffix replays" `Quick
            test_ckpt_over_corrupt_suffix;
          Alcotest.test_case "checkpoint over a corrupt record, two restarts" `Quick
            test_ckpt_over_corrupt_two_restarts;
        ] );
      ( "node",
        [
          Alcotest.test_case "session token survives a restart" `Quick
            test_session_token_across_restart;
          Alcotest.test_case "admin checkpoint rendezvous on an idle node" `Quick
            test_checkpoint_rendezvous;
          Alcotest.test_case "parked checkpoint fails when the node is killed" `Quick
            test_checkpoint_parked_kill;
        ] );
      ( "client",
        [ Alcotest.test_case "deadline against a mute peer" `Quick test_client_timeout ] );
    ]
