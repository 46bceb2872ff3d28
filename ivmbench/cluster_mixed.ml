(* cluster-mixed: 2 durable shards (WAL, fsync per epoch) behind
   Cluster.Router, no standby and no health prober, driven by 2
   closed-loop clients: 70 % ungated Router.lookup, 30 % Router.ingest.
   The router hop, fan-out and merge, node service and durable nodes
   are the work; reads run beside writes without a gate. *)

module D = Ivm_data
module U = D.Update
module St = Ivm_stream
module Cl = Ivm_cluster
module Mx = Ivm_workload.Mixed

let shape =
  { Inputs.keys = 64; accounts = 64; workers = 2; init_steps = 1200; drift_period = 500 }

let shards = 2
let setups = 3
let write_pct = 30

(* Per node: two connection handlers, one per client. *)
let handlers = 2
let ops_per_second = 12_000
let now = Clock.now

(* Every tenant view is linear in one of its private tables, so that
   one is hash-partitioned (minmax by group, so a group's values stay
   on one shard) and the rest broadcast; reads ring-sum the per-shard
   partials. Window views replicate: per-shard watermarks would retract
   panes at different times. *)
let topology (inputs : Inputs.t) =
  let tenants = Array.to_list inputs.Inputs.tenants in
  let policies =
    List.concat_map
      (fun (tn : Mx.tenant) ->
        List.map
          (fun (tbl, _) ->
            ( tbl,
              match tn.Mx.kind with
              | Mx.Minmax -> Cl.Topology.Hash_col 0
              | Mx.Economy -> Cl.Topology.Hash_tuple
              | Mx.Join | Mx.Triangle | Mx.Cascade ->
                  if String.equal tbl (Mx.table tn "R") then Cl.Topology.Hash_tuple
                  else Cl.Topology.Broadcast
              | Mx.Window -> Cl.Topology.Broadcast ))
          tn.Mx.tables)
      tenants
  in
  let routes =
    List.map
      (fun (tn : Mx.tenant) ->
        ( tn.Mx.name,
          match tn.Mx.kind with
          | Mx.Window -> Cl.Topology.Replicated
          | _ -> Cl.Topology.Scattered ))
      tenants
  in
  Cl.Topology.create ~shards ~policies ~routes

(* Each shard's share of the initial database. *)
let shard_rows (inputs : Inputs.t) topo =
  Array.init shards (fun k ->
      List.filter
        (fun (u : int U.t) ->
          match Cl.Topology.owners topo ~rel:u.U.rel u.U.tuple with
          | Some owners -> List.mem k owners
          | None -> failwith ("initial row without an owner shard: " ^ u.U.rel))
        inputs.Inputs.rows)

type cluster = { router : Cl.Router.t; base_dir : string; setup_s : float }

(* Set-up: boot both shards; each bulk-loads its share of the initial
   database and then builds the 100 views over it. The router boots
   shards in order, one [declare] call each, so the call count names
   the shard; the loaded sizes are checked after boot. *)
let start (inputs : Inputs.t) ~topo ~rows ~base_dir =
  Bench_fs.rm_rf base_dir;
  let booted = ref 0 in
  let declare reg =
    let shard = !booted in
    incr booted;
    Array.iter
      (fun (tn : Mx.tenant) ->
        List.iter
          (fun (name, cols) ->
            ignore (St.Registry.declare_table reg name (D.Schema.of_list cols)))
          tn.Mx.tables)
      inputs.Inputs.tenants;
    D.Database.Z.apply_batch (St.Registry.db reg) rows.(shard);
    Array.iter
      (fun (tn : Mx.tenant) -> St.Registry.register reg ~name:tn.Mx.name (Mx.factory tn))
      inputs.Inputs.tenants
  in
  let t0 = now () in
  let router =
    match
      Cl.Router.start ~handlers ~checkpoint_every:0 ~standby:false ~probe_interval:0.
        ~timeout:30. ~seed:inputs.Inputs.seed ~base_dir ~topology:topo ~declare ()
    with
    | Ok r -> r
    | Error m -> failwith ("cluster start: " ^ m)
  in
  let setup_s = now () -. t0 in
  for k = 0 to shards - 1 do
    let db = St.Registry.db (Cl.Node.registry (Cl.Router.primary router ~shard:k)) in
    let expect = D.Database.Z.create () in
    Inputs.declare_tables expect inputs.Inputs.tenants;
    D.Database.Z.apply_batch expect rows.(k);
    if D.Database.Z.size db <> D.Database.Z.size expect then
      failwith (Printf.sprintf "shard %d did not load its share of the initial database" k)
  done;
  { router; base_dir; setup_s }

let stop c =
  Cl.Router.stop c.router;
  Bench_fs.rm_rf c.base_dir

let step (inputs : Inputs.t) c ~rec_of ~fanout client (op : Inputs.op) (st : Closed_loop.stats) =
  let rec_ = rec_of client in
  let req = st.Closed_loop.n_writes + st.Closed_loop.n_reads in
  match op.Inputs.ups with
  | [] -> (
      let view = Inputs.tenant_name inputs op.Inputs.tenant in
      let r, dt =
        Closed_loop.timed rec_ ~name:"client.lookup" ~req (fun () ->
            Cl.Router.lookup c.router ~view ~prefix:D.Tuple.unit)
      in
      match r with
      | Error m -> Error ("lookup: " ^ m)
      | Ok _ ->
          Closed_loop.add_read st dt;
          fanout.(client) <- fanout.(client) + (match Cl.Topology.route (Cl.Router.topology c.router) view with
            | Cl.Topology.Replicated -> 1
            | _ -> shards);
          Ok ())
  | ups -> (
      let r, dt =
        Closed_loop.timed rec_ ~name:"client.ingest" ~req (fun () ->
            Cl.Router.ingest c.router ups)
      in
      match r with
      | Error m -> Error ("ingest: " ^ m)
      | Ok (_, dead) when dead > 0 -> Error (Printf.sprintf "ingest: %d dead-lettered" dead)
      | Ok _ ->
          Closed_loop.add_write st dt ups;
          Ok ())

let check (inputs : Inputs.t) c ~sent =
  (match Cl.Router.barrier c.router with Ok _ -> () | Error m -> failwith ("barrier: " ^ m));
  let o = Check.run inputs ~sent ~read:(fun view -> Cl.Router.snapshot c.router ~view) in
  Check.report o;
  o

let nodes c = List.init shards (fun k -> Cl.Router.primary c.router ~shard:k)

let wal_bytes c =
  List.fold_left
    (fun acc node ->
      let path = Filename.concat (Cl.Node.dir node) "node.wal" in
      acc + (Unix.stat path).Unix.st_size - St.Wal.header_len)
    0 (nodes c)

let run ~seed ~seconds ~trace ~state_dir ~spans_path =
  let inputs = Inputs.create shape ~seed in
  let topo = topology inputs in
  let rows = shard_rows inputs topo in
  let count = ops_per_second * seconds in
  let ops =
    Array.init shape.Inputs.workers (fun worker -> Inputs.ops inputs ~worker ~count ~write_pct)
  in
  Printf.printf
    "cluster-mixed: %d views, %d initial rows, %d keys, %d shards, %d clients, %d%% writes\n%!"
    Inputs.views (List.length inputs.Inputs.rows) shape.Inputs.keys shards
    shape.Inputs.workers write_pct;
  let base_dir = Filename.concat state_dir "cluster" in
  let cursors = Array.make shape.Inputs.workers 0 in
  let fanout = Array.make shape.Inputs.workers 0 in
  let sent () = Closed_loop.sent ops cursors in
  if not trace then
    Closed_loop.measure ~setups ~seconds
      ~start:(fun () -> start inputs ~topo ~rows ~base_dir)
      ~stop
      ~setup_s:(fun c -> c.setup_s)
      ~run:(fun c seconds ->
        Closed_loop.run ~ops ~cursors ~seconds
          ~step:(step inputs c ~rec_of:(fun _ -> None) ~fanout))
      ~check:(fun c -> Check.ok (check inputs c ~sent:(sent ())))
  else begin
    let recs =
      Array.init shape.Inputs.workers (fun k -> Span.create ~domain:k ~capacity:count)
    in
    let c = start inputs ~topo ~rows ~base_dir in
    let run ~traced seconds =
      Closed_loop.run ~ops ~cursors ~seconds
        ~step:(step inputs c ~rec_of:(fun k -> if traced then Some recs.(k) else None) ~fanout)
    in
    let warm = run ~traced:false Closed_loop.warmup_seconds in
    let untraced, traced =
      Closed_loop.alternate ~seconds:(float_of_int seconds)
        ~run_untraced:(run ~traced:false) ~run_traced:(run ~traced:true)
    in
    let o = check inputs c ~sent:(sent ()) in
    Span.write ~path:spans_path (Array.to_list recs);
    let metrics_list = List.map Cl.Node.metrics (nodes c) in
    let sum f = List.fold_left (fun acc m -> acc + f m) 0 metrics_list in
    let epochs = sum (fun m -> m.St.Metrics.epochs)
    and ingested = sum (fun m -> m.St.Metrics.ingested)
    and coalesced = sum (fun m -> m.St.Metrics.coalesced) in
    let freshness = St.Metrics.Hist.create () in
    List.iter
      (fun m -> St.Metrics.Hist.merge_into ~into:freshness m.St.Metrics.latency)
      metrics_list;
    let node_ingest = Stats.merged_op metrics_list "ingest"
    and node_lookup = Stats.merged_op metrics_list "lookup" in
    let us h q = St.Metrics.Hist.percentile h q *. 1e6 in
    (* The router's own time per client op: the client's mean latency
       minus the node service time spent per client op (a broadcast
       write is served by both nodes), over every measured phase and
       the warm-up, which the node histograms also cover. *)
    let all = Closed_loop.combine [ warm; untraced; traced ] in
    let hop samples h =
      let n = Array.length samples in
      Layers.safe_div
        ((Closed_loop.mean samples *. float_of_int n) -. St.Metrics.Hist.sum h)
        (float_of_int n)
      *. 1e6
    in
    let fi = float_of_int ingested in
    let metrics =
      [
        Stats.m "scheduler.coalesced_ratio" "ratio" (Layers.safe_div (float_of_int coalesced) fi);
        Stats.m "wal.bytes_per_update" "B" (Layers.safe_div (float_of_int (wal_bytes c)) fi);
        Stats.m "node.ingest_us_p50" "us" (us node_ingest 0.5);
        Stats.m "node.lookup_us_p50" "us" (us node_lookup 0.5);
        Stats.m "router.write_hop_us" "us" (hop (Closed_loop.write_samples all) node_ingest);
        Stats.m "router.read_hop_us" "us" (hop (Closed_loop.read_samples all) node_lookup);
        Stats.m "router.shards_per_read" "count"
          (Layers.safe_div
             (float_of_int (Array.fold_left ( + ) 0 fanout))
             (float_of_int (Closed_loop.reads all)));
        Stats.m "node.freshness_ms_p50" "ms" (St.Metrics.Hist.percentile freshness 0.5 *. 1e3);
        Stats.m "node.updates_per_epoch" "count" (Layers.safe_div fi (float_of_int epochs));
        Stats.m "trace.overhead_pct" "%" (Closed_loop.overhead_pct ~untraced ~traced);
      ]
      @ Layers.engines inputs.Inputs.tenants metrics_list ~epochs
      @ Stats.gc_metrics ~before:traced.Closed_loop.gc_before ~after:traced.Closed_loop.gc_after
          ~ops:(Closed_loop.ops traced)
    in
    Printf.printf "traced: %.0f ops/s untraced, %.0f ops/s traced; spans -> %s\n"
      (Closed_loop.ops_s untraced) (Closed_loop.ops_s traced) spans_path;
    stop c;
    let failed = Closed_loop.failed all in
    {
      Outcome.attempted = Closed_loop.ops all + failed;
      failed;
      correct = Check.ok o;
      metrics = Layers.complete metrics;
    }
  end
