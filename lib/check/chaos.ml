(* Seeded fault-injection soaks of the durable serving pipeline, single
   node and sharded, each judged against a fault-free reference of the
   same stream; and the sharded deployment demo. *)

module D = Ivm_data
module U = D.Update
module Db = D.Database.Z
module M = Ivm_engine.Maintainable
module St = Ivm_stream
module Cl = Ivm_cluster
module Fp = Ivm_fault.Failpoint
module G = Ivm_workload.Graph_gen

let ( let* ) = Result.bind

module Views = struct
  module Tri = Ivm_engine.Triangle

  let schemas = [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]); ("T", [ "C"; "A" ]) ]

  let q_rs =
    Ivm_query.Cq.make ~name:"paths_rs" ~free:[ "B"; "A"; "C" ]
      [ Ivm_query.Cq.atom "R" [ "A"; "B" ]; Ivm_query.Cq.atom "S" [ "B"; "C" ] ]

  let q_st =
    Ivm_query.Cq.make ~name:"paths_st" ~free:[ "C"; "B"; "A" ]
      [ Ivm_query.Cq.atom "S" [ "B"; "C" ]; Ivm_query.Cq.atom "T" [ "C"; "A" ] ]

  let tri_factory (db : Db.t) : M.t = M.of_triangle ~name:"tri-count" (module Tri.Delta) db

  let tree_factory q name (db : Db.t) : M.t =
    let forest = Option.get (Ivm_query.Variable_order.canonical q) in
    M.of_view_tree ~name q (Ivm_engine.View_tree.build q forest db)

  let standard =
    [
      ("tri-count", tri_factory);
      ("paths-rs", tree_factory q_rs "paths-rs");
      ("paths-st", tree_factory q_st "paths-st");
    ]

  let names = List.map fst standard

  (* A view whose engine fails on every apply: the supervision demo.
     Its factory succeeds, so recovery rebuilds it — and it fails
     again, until the registry quarantines it. *)
  let flaky_factory (_ : Db.t) : M.t =
    let fail _ = failwith "flaky engine: injected apply failure" in
    {
      M.name = "flaky";
      relations = [ "R" ];
      apply_batch = fail;
      apply_delta = fail;
      output_count = (fun () -> 0);
      fingerprint = (fun () -> 0);
      enumerate = (fun () -> []);
    }

  let make_db () =
    let db = Db.create () in
    List.iter (fun (n, cols) -> ignore (Db.declare db n (D.Schema.of_list cols))) schemas;
    db

  let declare ?(flaky = false) reg =
    List.iter
      (fun (n, cols) -> ignore (St.Registry.declare_table reg n (D.Schema.of_list cols)))
      schemas;
    List.iter (fun (name, f) -> St.Registry.register reg ~name f) standard;
    if flaky then St.Registry.register reg ~name:"flaky" flaky_factory

  (* [poison] splices in an update whose tuple carries a string where
     the triangle kernel expects ints — a decode-able, loggable update
     that only the consuming engine rejects. *)
  let stream ?(poison = false) ~updates ~nodes () =
    let gen = G.create ~seed:7 { G.nodes; skew = 1.1; delete_ratio = 0.2 } in
    Array.init updates (fun i ->
        if poison && i = updates / 3 then
          U.make ~rel:"R"
            ~tuple:(D.Tuple.of_list [ D.Value.Str "poison"; D.Value.Int 0 ])
            ~payload:1
        else begin
          let e = G.next gen in
          let rel = match e.G.rel with 0 -> "R" | 1 -> "S" | _ -> "T" in
          U.make ~rel ~tuple:(D.Tuple.of_ints [ e.G.src; e.G.dst ]) ~payload:e.G.mult
        end)
end

type scenario = {
  name : string;
  describe : string;
  poison : bool;
  flaky : bool;
  arm : updates:int -> unit;
  expect_crash : bool;
}

type outcome = { recoveries : int; dead_lettered : int; quarantined : string list }

let no_faults ~updates:_ = ()

let single_node_scenarios =
  [
    {
      name = "torn-wal";
      describe = "short write tears the WAL tail mid-stream";
      poison = false;
      flaky = false;
      arm = (fun ~updates -> Fp.arm "wal.write" ~after:(updates / 2) ~times:1 (Fp.Short_write 7));
      expect_crash = true;
    };
    {
      name = "ckpt-fsync";
      describe = "fsync of the checkpoint temp file fails";
      poison = false;
      flaky = false;
      arm = (fun ~updates:_ -> Fp.arm "ckpt.fsync" ~times:1 Fp.Fail);
      expect_crash = true;
    };
    {
      name = "ckpt-rename";
      describe = "crash before the checkpoint rename installs";
      poison = false;
      flaky = false;
      arm = (fun ~updates:_ -> Fp.arm "ckpt.rename" ~times:1 Fp.Fail);
      expect_crash = true;
    };
    {
      name = "bit-flip";
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
      name = "poison";
      describe = "a malformed update poisons one view; it is dead-lettered";
      poison = true;
      flaky = false;
      arm = no_faults;
      expect_crash = false;
    };
    {
      name = "flaky";
      describe = "an always-failing view is quarantined; healthy views keep serving";
      poison = false;
      flaky = true;
      arm = no_faults;
      expect_crash = false;
    };
    {
      name = "ckpt-over-corrupt";
      describe = "a checkpoint covers a bit-flipped record; two later crashes recover past it";
      poison = false;
      flaky = false;
      arm =
        (fun ~updates ->
          (* Saves land every ~updates/5 records: the flip sits
             between the first two, the third save's fsync fails (a
             crash over the covered corrupt record), and the second
             life's first save fails its rename — a second crash that
             again recovers from the checkpoint over the corrupt
             record. *)
          Fp.arm "wal.write" ~after:(updates * 3 / 10) ~times:1 (Fp.Bit_flip 12);
          Fp.arm "ckpt.fsync" ~after:2 ~times:1 Fp.Fail;
          Fp.arm "ckpt.rename" ~after:2 ~times:1 Fp.Fail);
      expect_crash = true;
    };
  ]

(* The single-node schedules mostly carry over; bit-flip's fsync burst
   is lengthened so one node's retry run (3 retries) is beaten even
   when the global hit sequence interleaves both nodes. *)
let scenarios ~cluster =
  if not cluster then single_node_scenarios
  else
    List.map
      (fun sc ->
        if sc.name <> "bit-flip" then sc
        else
          {
            sc with
            arm =
              (fun ~updates ->
                Fp.arm "wal.write" ~after:(updates / 3) ~times:1 (Fp.Bit_flip 12);
                Fp.arm "wal.fsync" ~after:(updates / 2 / 256) ~times:8 Fp.Fail);
          })
      single_node_scenarios

(* --- single node ------------------------------------------------------ *)

let dead_letter_count reg =
  List.fold_left (fun acc (_, ds) -> acc + List.length ds) 0 (St.Registry.dead_letters reg)

type single_run = {
  fingerprints : (string * int) list;
  crashes : int;
  quarantined_seen : string list;
  dead : int;
  healthy_updates : int; (* updates absorbed by healthy views across the run *)
}

(* Run the stream to completion through WAL + checkpoint + supervised
   registry, treating every durability error as a process crash: drop
   WAL buffers, forget all in-memory state, and recover with
   [Durable.recover]. The stream resumes at the recovered record count
   — the checkpoint's count plus the WAL suffix replayed from its byte
   offset. The registry retries a failed view at the next epoch
   ([backoff_base:0.]), so quarantine is a function of the stream, not
   of wall-clock time. *)
let run_single ~label ~dir ~stream ~flaky =
  let wal_path = Filename.concat dir (label ^ ".wal") in
  let ckpt_path = Filename.concat dir (label ^ ".ckpt") in
  List.iter Engines.rm_rf [ wal_path; ckpt_path; ckpt_path ^ ".tmp" ];
  let n = Array.length stream in
  let queue_cap = 512 in
  let ckpt_every = max 1 (n / 5) in
  let reg_prev = ref None in
  let current_wal = ref None in
  let crashes = ref 0 in
  let quarantined = ref [] in
  let observe reg =
    List.iter
      (fun (name, h) ->
        if h = St.Registry.Quarantined && not (List.mem name !quarantined) then
          quarantined := name :: !quarantined)
      (St.Registry.statuses reg)
  in
  let incarnation metrics =
    let* reg, { St.Checkpoint.records = resume; wal_offset } =
      St.Durable.recover ~wal:wal_path ~ckpt:ckpt_path ~fresh:Views.make_db (fun db ->
          match !reg_prev with
          | None ->
              let r = St.Registry.create ~metrics ~backoff_base:0. db in
              Views.declare ~flaky r;
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
    let next_ckpt = ref ((resume / ckpt_every) + 1) in
    let rec chunks fed =
      if fed >= n then Ok ()
      else begin
        let len = min queue_cap (n - fed) in
        for i = fed to fed + len - 1 do
          ignore (St.Queue.push queue (St.Scheduler.item stream.(i)))
        done;
        let target = fed + len - resume in
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
        chunks (fed + len)
      end
    in
    let* () = chunks resume in
    St.Queue.close queue;
    let* () = St.Scheduler.run sched in
    Ok (wal, reg)
  in
  let metrics = St.Metrics.create () in
  let rec attempt k =
    if k > 50 then Error "chaos did not converge within 50 incarnations"
    else
      match incarnation metrics with
      | Ok (wal, reg) -> (
          let leftover = St.Registry.heal reg in
          St.Wal.Z.close wal;
          match leftover with
          | _ :: _ -> Error ("views still unhealthy after heal: " ^ String.concat ", " leftover)
          | [] ->
              Ok
                {
                  fingerprints = St.Registry.fingerprints reg;
                  crashes = !crashes;
                  quarantined_seen = List.rev !quarantined;
                  dead = dead_letter_count reg;
                  healthy_updates =
                    List.fold_left
                      (fun acc name ->
                        if name = "flaky" then acc
                        else acc + (St.Metrics.view metrics name).St.Metrics.updates)
                      0 (St.Metrics.view_names metrics);
                })
      | Error (_ : St.Errors.t) ->
          (* Crash semantics: buffered WAL bytes are lost, all
             in-memory state is forgotten; recover and go again. *)
          incr crashes;
          Option.iter St.Wal.Z.crash !current_wal;
          current_wal := None;
          attempt (k + 1)
  in
  attempt 1

(* --- the sharded path --------------------------------------------------- *)

(* Placement for the standard views. R(A,B) and S(B,C) co-partition on
   the join column B, so every R join S match is shard-local; T is
   broadcast, sound because each view uses T in a single atom (views are
   multilinear: split several relations on a shared key, or at most one
   by arbitrary hash). paths-rs enumerates B first, so bound-prefix
   reads go straight to B's owner (Keyed); tri-count and paths-st fan
   out and ring-sum (Scattered). *)
let topology ~shards =
  Cl.Topology.create ~shards
    ~policies:
      [ ("R", Cl.Topology.Hash_col 1); ("S", Cl.Topology.Hash_col 0); ("T", Cl.Topology.Broadcast) ]
    ~routes:
      [
        ("tri-count", Cl.Topology.Scattered);
        ("paths-rs", Cl.Topology.Keyed);
        ("paths-st", Cl.Topology.Scattered);
      ]

(* The fault-free single-node reference: the same updates through one
   registry, no WAL, no network, no faults. Ring updates commute, so
   whatever interleaving the cluster admitted must produce these
   entries. A view degraded by a poison update is healed (the poison
   isolated and dead-lettered) before its state counts, the same
   convergence point as the cluster run. Fingerprints are of the
   entries without explicit zero payloads, like merged cluster reads. *)
let reference_fingerprints ~flaky stream =
  let reg = St.Registry.create (Db.create ()) in
  Views.declare ~flaky reg;
  let n = Array.length stream in
  let rec chunks i =
    if i < n then begin
      let len = min 512 (n - i) in
      St.Registry.apply_batch reg (Array.to_list (Array.sub stream i len));
      chunks (i + len)
    end
  in
  chunks 0;
  match St.Registry.heal reg with
  | _ :: _ as leftover ->
      Error ("reference views still unhealthy after heal: " ^ String.concat ", " leftover)
  | [] ->
      Ok
        (List.map
           (fun name ->
             let entries =
               List.filter (fun (_, p) -> p <> 0) ((St.Registry.find reg name).M.enumerate ())
             in
             (name, M.entries_fingerprint entries))
           Views.names)

let status_lines router =
  List.map
    (fun (s : Cl.Router.shard_status) ->
      Printf.sprintf "shard %d: port %-5d %-7s %-16s sent %-8d applied %-8d failovers %d%s%s"
        s.Cl.Router.shard s.Cl.Router.port
        (if s.Cl.Router.alive then "alive" else "dead")
        s.Cl.Router.node_health s.Cl.Router.sent s.Cl.Router.applied s.Cl.Router.failovers
        (match s.Cl.Router.standby_lag with
        | Some lag when s.Cl.Router.has_standby -> Printf.sprintf " standby(lag %d)" lag
        | _ -> if s.Cl.Router.has_standby then " standby" else "")
        (match s.Cl.Router.lost_ranges with
        | [] -> ""
        | ranges ->
            " LOST "
            ^ String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) ranges)))
    (Cl.Router.status router)

let snapshots router =
  List.fold_left
    (fun acc name ->
      let* acc = acc in
      let* entries = Cl.Router.snapshot router ~view:name in
      Ok ((name, entries) :: acc))
    (Ok []) Views.names
  |> Result.map List.rev

type cluster_run = {
  c_fingerprints : (string * int) list;
  failovers : int;
  c_dead : int;
  flaky_quarantined : bool;
  accounts : string list;
      (* per shard: stream updates owned, send-log length, node absorbed,
         and the router status — printed on divergence to separate lost
         records from duplicates *)
}

(* The stream through a 2-shard router, fed by an exactly-once send
   log: an abrupt node death can lose an acked-but-unsynced tail,
   promotion reports the durable count, and the log re-sends exactly
   the lost range to that one shard. *)
let run_cluster ~label ~dir ~stream ~flaky : (cluster_run, string) result =
  let base = Filename.concat dir (label ^ ".cluster") in
  Engines.rm_rf base;
  let shards = 2 in
  let n = Array.length stream in
  let* router =
    Cl.Router.start ~standby:false ~probe_interval:0.02 ~probe_failures:2
      ~checkpoint_every:(max 1 (n / 5))
      ~timeout:5.0 ~base_dir:base ~topology:(topology ~shards) ~declare:(Views.declare ~flaky)
      ()
  in
  let log = Cl.Send_log.create router in
  let primaries () = List.init shards (fun i -> Cl.Router.primary router ~shard:i) in
  let flaky_quarantined () =
    List.exists
      (fun node ->
        List.mem ("flaky", St.Registry.Quarantined)
          (St.Registry.statuses (Cl.Node.registry node)))
      (primaries ())
  in
  let rec feed fed =
    if fed >= n then Ok ()
    else begin
      let len = min 256 (n - fed) in
      let* () = Cl.Send_log.route log (Array.to_list (Array.sub stream fed len)) in
      feed (fed + len)
    end
  in
  (* Quarantine needs [max_failures] failed applies, each gated by the
     node registry's backoff — a stream that ends first leaves the
     flaky view merely degraded. Nudge it over the threshold with
     net-zero ring traffic: an insert and its cancelling delete in
     separate epochs (the scheduler ring-coalesces per (relation,
     tuple), and a batch summing to zero never reaches any view), each
     followed by a barrier to force the epoch break. Every nudge fails
     flaky's apply while leaving every real view's state untouched. *)
  let nudge_flaky () =
    let tuple = D.Tuple.of_ints [ 0; 1 ] in
    let shard =
      match Cl.Topology.owners (Cl.Router.topology router) ~rel:"R" tuple with
      | Some (i :: _) -> i
      | _ -> 0
    in
    let send payload =
      let* () = Cl.Send_log.send log ~shard [ U.make ~rel:"R" ~tuple ~payload ] in
      Result.map_error (fun m -> "flaky nudge barrier: " ^ m) (Cl.Router.barrier router)
    in
    let rec go tries =
      if flaky_quarantined () || tries = 0 then Ok () (* the scenario check judges *)
      else begin
        let* _ = send 1 in
        let* _ = send (-1) in
        Unix.sleepf 0.03 (* let the backoff lapse so the next apply is attempted *);
        go (tries - 1)
      end
    in
    go 50
  in
  (* The end-of-stream convergence point, mirroring the single-node
     harness: force a recovery attempt on every unhealthy view, so
     final snapshots read rebuilt views, not degraded stubs. Runs after
     the quarantine verdict is captured — heal un-quarantines the flaky
     view (its build succeeds), which must not erase the evidence. *)
  let heal_all () =
    List.fold_left
      (fun acc node ->
        let* () = acc in
        match St.Registry.heal (Cl.Node.registry node) with
        | [] -> Ok ()
        | leftover ->
            Error
              (Printf.sprintf "%s views still unhealthy after heal: %s" (Cl.Node.name node)
                 (String.concat ", " leftover)))
      (Ok ()) (primaries ())
  in
  let result =
    try
      let* () = feed 0 in
      let* () = Cl.Send_log.settle log in
      let* () = if flaky then nudge_flaky () else Ok () in
      let flaky_quarantined = flaky_quarantined () in
      let* () = heal_all () in
      let* () = Cl.Send_log.settle log in
      let* snaps = snapshots router in
      let topo = Cl.Router.topology router in
      let accounts =
        List.mapi
          (fun i node ->
            let owned =
              Array.fold_left
                (fun acc (u : int U.t) ->
                  match Cl.Topology.owners topo ~rel:u.U.rel u.U.tuple with
                  | Some os when List.mem i os -> acc + 1
                  | _ -> acc)
                0 stream
            in
            Printf.sprintf
              "shard %d: %d stream updates owned, %d logged as sent, %d absorbed by node" i
              owned (Cl.Send_log.length log ~shard:i)
              (Cl.Node.recovered node + Cl.Node.applied node))
          (primaries ())
      in
      Ok
        {
          c_fingerprints = List.map (fun (name, es) -> (name, M.entries_fingerprint es)) snaps;
          failovers =
            List.fold_left
              (fun acc (s : Cl.Router.shard_status) -> acc + s.Cl.Router.failovers)
              0 (Cl.Router.status router);
          c_dead =
            List.fold_left
              (fun acc node -> acc + dead_letter_count (Cl.Node.registry node))
              0 (primaries ());
          flaky_quarantined;
          accounts = accounts @ status_lines router;
        }
    with e -> Error (Printexc.to_string e)
  in
  Cl.Router.stop router;
  result

(* --- scenarios ---------------------------------------------------------- *)

let diverged ~what got reference details =
  let lines =
    List.concat
      [
        List.concat
          (List.map2
             (fun (name, a) (_, b) ->
               if a = b then []
               else [ Printf.sprintf "%s: %s fingerprint %d vs reference %d" name what a b ])
             got reference);
        details;
      ]
  in
  Error
    (String.concat "\n  " ("final fingerprints diverge from the fault-free reference" :: lines))

(* Arm the scenario's faults under [seed] around [f], and report the
   armed failpoints that never fired (a vacuous run). *)
let under_faults ~seed ~updates sc f =
  Fp.enable ~seed ();
  sc.arm ~updates;
  let armed = List.map fst (Fp.armed ()) in
  Fun.protect ~finally:Fp.reset (fun () ->
      let r = f () in
      (r, List.filter (fun name -> Fp.fired name = 0) armed))

let vacuous names = Error ("armed failpoints never fired: " ^ String.concat ", " names)

let run ~cluster ~dir ~updates ~nodes ~seed sc =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let stream = Views.stream ~poison:sc.poison ~updates ~nodes () in
  Fp.reset ();
  if not cluster then
    let reference = run_single ~label:(sc.name ^ ".ref") ~dir ~stream ~flaky:sc.flaky in
    let chaotic, unfired =
      under_faults ~seed ~updates sc (fun () ->
          run_single ~label:sc.name ~dir ~stream ~flaky:sc.flaky)
    in
    match (reference, chaotic) with
    | Error e, _ -> Error ("reference run failed: " ^ e)
    | _, Error e -> Error ("chaos run failed: " ^ e)
    | Ok r, Ok c ->
        if unfired <> [] then vacuous unfired
        else if sc.expect_crash && c.crashes = 0 then
          Error "expected at least one crash-recovery cycle, saw none"
        else if c.fingerprints <> r.fingerprints then
          diverged ~what:"chaos" c.fingerprints r.fingerprints []
        else if sc.poison && (c.dead = 0 || r.dead = 0) then
          Error "poison update was not dead-lettered"
        else if sc.flaky && not (List.mem "flaky" c.quarantined_seen) then
          Error "flaky view was never quarantined"
        else if sc.flaky && c.healthy_updates = 0 then
          Error "healthy views made no progress alongside the quarantined one"
        else
          Ok { recoveries = c.crashes; dead_lettered = c.dead; quarantined = c.quarantined_seen }
  else
    let* reference = reference_fingerprints ~flaky:sc.flaky stream in
    match
      under_faults ~seed ~updates sc (fun () ->
          run_cluster ~label:sc.name ~dir ~stream ~flaky:sc.flaky)
    with
    | Error e, _ -> Error ("cluster chaos run failed: " ^ e)
    | Ok c, unfired ->
        if unfired <> [] then vacuous unfired
        else if sc.expect_crash && c.failovers = 0 then Error "expected at least one failover, saw none"
        else if c.c_fingerprints <> reference then
          diverged ~what:"cluster" c.c_fingerprints reference c.accounts
        else if sc.poison && c.c_dead = 0 then Error "poison update was not dead-lettered"
        else if sc.flaky && not c.flaky_quarantined then
          Error "flaky view was never quarantined on any shard"
        else
          Ok
            {
              recoveries = c.failovers;
              dead_lettered = c.c_dead;
              quarantined = (if c.flaky_quarantined then [ "flaky" ] else []);
            }

(* --- the sharded deployment demo ---------------------------------------- *)

type demo_view = { view : string; entries : int; fingerprint : int; reference : int }

let demo ~shards ~updates ~nodes ~standby ~kill ~dir ~seed ~log =
  Engines.rm_rf dir;
  let* router =
    Cl.Router.start ~standby
      ~checkpoint_every:(max 256 (updates / 5))
      ~seed ~base_dir:dir ~topology:(topology ~shards) ~declare:(Views.declare ~flaky:false) ()
  in
  let result =
    try
      log (Printf.sprintf "cluster: %d shard(s) up under %s" (Cl.Router.shard_count router) dir);
      List.iter (fun l -> log ("  " ^ l)) (status_lines router);
      let stream = Views.stream ~updates ~nodes () in
      let n = Array.length stream in
      let mid = n / 2 in
      (* Kill [kill]'s primary behind a barrier: nothing acked may be
         lost, so no lost range may be published. *)
      let kill_primary fed =
        log (Printf.sprintf "killing shard %d's primary at update %d (quiesced)..." kill fed);
        match
          Cl.Router.quiesced router (fun () ->
              Cl.Router.kill_primary router ~shard:kill;
              Cl.Router.fail_over router ~shard:kill)
        with
        | Ok (Ok (dt, recovered)) ->
            log
              (Printf.sprintf "promoted replacement in %.1f ms (%d records recovered)"
                 (dt *. 1e3) recovered);
            if Cl.Router.has_lost router ~shard:kill then Error "quiesced kill lost acked records"
            else Ok ()
        | Ok (Error m) -> Error ("failover: " ^ m)
        | Error m -> Error ("barrier: " ^ m)
      in
      let rec feed fed =
        if fed >= n then Ok ()
        else begin
          let len = min 256 (n - fed) in
          let* () =
            match Cl.Router.ingest router (Array.to_list (Array.sub stream fed len)) with
            | Ok (_, 0) -> Ok ()
            | Ok (_, d) -> Error (Printf.sprintf "%d update(s) dead-lettered" d)
            | Error m -> Error ("ingest: " ^ m)
          in
          let* () = if kill >= 0 && fed < mid && fed + len >= mid then kill_primary (fed + len) else Ok () in
          feed (fed + len)
        end
      in
      let* () = feed 0 in
      let* reference = reference_fingerprints ~flaky:false stream in
      let* snaps = snapshots router in
      List.iter (fun l -> log ("  " ^ l)) (status_lines router);
      Ok
        (List.map2
           (fun (view, es) (_, reference) ->
             { view; entries = List.length es; fingerprint = M.entries_fingerprint es; reference })
           snaps reference)
    with e -> Error (Printexc.to_string e)
  in
  Cl.Router.stop router;
  result
