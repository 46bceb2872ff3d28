(** The fault-tolerant cluster router: partitions ingest across N
    {!Node}s by {!Topology} policy, merges partial ring payloads on
    reads, and survives node death.

    Robustness machinery, in the order a failure meets it:

    - every wire call rides {!Pool} — per-op deadlines, bounded
      jittered-backoff retry for idempotent ops;
    - a prober domain health-checks each shard's primary over the
      [Health] wire op; [probe_failures] consecutive failures declare
      it dead;
    - a dead primary is failed over: the old node is fenced
      ({!Node.kill} — trivially sound fencing for in-process nodes),
      the standby is retired, and a replacement is started from the
      primary's durable checkpoint + WAL replay on a fresh port; the
      shard's endpoint is redirected so in-flight requests re-route;
    - updates whose relation has no placement policy (no owner) go to
      an in-memory dead-letter buffer instead of vanishing.

    Consistent reads are a two-phase epoch barrier: phase 1 takes the
    write side of the router's ingest lock (pausing all routed ingest),
    phase 2 fences every node with the [Barrier] op — each node answers
    only once everything it admitted is applied and durable. Only then
    are the per-shard snapshots taken and merged, so a merged read
    never mixes one node's epoch [e] with another's [e-1].

    Exactly-once across failover: node acks mean {e queue-admitted},
    not durable, so an abrupt kill can lose an acked tail. The router
    tracks per-shard admitted counts ([sent]); promotion learns the
    durable count ([recovered]) from WAL replay, and the gap
    [(recovered, sent)] is published via {!take_lost} so a driver
    holding its send log can re-send exactly the lost records (to that
    one shard — {!ingest_shard}). Re-sending is sound only because the
    dead node is fenced first (it can never later apply the ambiguous
    tail) and because ring batches commute (re-sent updates may arrive
    out of order with fresh ones). Quiescing ({!barrier}) before a
    planned kill makes the gap empty.

    Whole-view reads are versioned: the router keeps each view's merged
    answer (the ring sum of the shard answers) with the version of each
    shard answer it sums, and sends each shard that version. A shard
    whose snapshot is that version, or was patched from it, answers
    with its output delta since — empty when nothing changed — and the
    deltas add onto the merged answer in the same linear merge, since
    ring payloads make a view's change a delta that adds. A version is
    the node's start nonce combined with the view's change stamp, so a
    promoted node never matches a version of the node it replaced. *)

module D = Ivm_data
module U = D.Update
module Tuple = D.Tuple
module St = Ivm_stream
module M = Ivm_engine.Maintainable
module Client = Ivm_net.Client
module Wire = Ivm_net.Wire

let ( let* ) = Result.bind

type slot = {
  index : int;
  mutable primary : Node.t;
  mutable standby : Node.t option;
  mutable feeder : unit Domain.t option;
  mutable feeder_conn : Client.t option;
  endpoint : Pool.endpoint;
  mutable alive : bool;
  mutable failed_probes : int;
  mutable sent : int;  (* records acked into this shard, in send order *)
  mutable failovers : int;
  mutable lost : (int * int) list;  (* acked-but-lost index ranges, newest first *)
  sm : Mutex.t;
}

(* A view's merged answer: the ring sum of the shard answers at
   [versions] (per shard; 0 where no shard answer is included, as for
   the shards a replicated read did not ask). Never mutated: a read
   that moves it installs a new one. *)
type merged = { versions : int array; entries : (Tuple.t * int) list }

type t = {
  topo : Topology.t;
  pool : Pool.t;
  slots : slot array;
  base_dir : string;
  handlers : int;
  queue_capacity : int;
  checkpoint_every : int;
  standby : bool;
  probe_failures : int;
  auto_failover : bool;
  declare : St.Registry.t -> unit;
  ingest_lock : St.Rwlock.t;
  dead_mutex : Mutex.t;
  mutable dead : int U.t list;  (* newest first *)
  cache_mutex : Mutex.t;
  cache : (string, merged) Hashtbl.t;  (* whole-view reads, by view *)
  stop_flag : bool Atomic.t;
  mutable prober : unit Domain.t option;
}

let err_str e = Wire.error_to_string e

(* --- standby ----------------------------------------------------------- *)

let stop_feeder slot =
  (match slot.feeder_conn with Some c -> Client.close c | None -> ());
  slot.feeder_conn <- None;
  (match slot.feeder with Some d -> Domain.join d | None -> ());
  slot.feeder <- None

(* The standby is advisory: a warm replica fed one delta per applied
   primary epoch over the subscription op, good for stale reads and a
   lag signal. Promotion never trusts it — the durable files are the
   authority — so failing to arm one degrades nothing but warmth. *)
let arm_standby t slot =
  let dir =
    Filename.concat t.base_dir
      (Printf.sprintf "shard%d/standby%d" slot.index slot.failovers)
  in
  let sspec =
    Node.spec
      ~name:(Printf.sprintf "shard%d-standby" slot.index)
      ~dir ~handlers:1 ~queue_capacity:t.queue_capacity
      ~seed_from:(Node.dir slot.primary) t.declare
  in
  match Node.start sspec with
  | Error _ -> ()
  | Ok sb -> (
      match Client.connect ~port:(Node.port slot.primary) () with
      | Error _ ->
          slot.standby <- Some sb (* warm state, no live feed *)
      | Ok conn -> (
          match Client.subscribe conn with
          | Error _ ->
              Client.close conn;
              slot.standby <- Some sb
          | Ok () ->
              slot.standby <- Some sb;
              slot.feeder_conn <- Some conn;
              slot.feeder <-
                Some
                  (Domain.spawn (fun () ->
                       let rec pump () =
                         match Client.next_delta conn with
                         | Ok (_epoch, updates) ->
                             ignore (Node.ingest sb updates);
                             pump ()
                         | Error _ -> () (* primary died or we were closed *)
                       in
                       pump ()))))

(* --- failover ---------------------------------------------------------- *)

let confirmed_dead slot =
  Mutex.protect slot.sm (fun () -> not slot.alive)
  ||
  match Node.health slot.primary with Node.Failed _ -> true | _ -> false

(* Promote: fence the old primary, retire the standby, start the
   replacement from the primary's durable directory on a fresh port,
   redirect the endpoint, publish the acked-but-lost range, re-arm a
   standby. Serialized per slot; a concurrent caller that lost the race
   sees a healthy promoted primary and returns without work. *)
let fail_over_slot t slot : (float * int, string) result =
  Mutex.protect slot.sm (fun () ->
      if slot.alive && Node.health slot.primary = Node.Running then Ok (0., slot.sent)
      else begin
        let t0 = Unix.gettimeofday () in
        Node.kill slot.primary;
        stop_feeder slot;
        (match slot.standby with Some sb -> Node.kill sb | None -> ());
        slot.standby <- None;
        let pspec =
          Node.spec
            ~name:(Printf.sprintf "shard%d" slot.index)
            ~dir:(Node.dir slot.primary) ~handlers:t.handlers
            ~queue_capacity:t.queue_capacity ~checkpoint_every:t.checkpoint_every
            t.declare
        in
        match Node.start pspec with
        | Error m -> Error (Printf.sprintf "shard %d promotion failed: %s" slot.index m)
        | Ok node ->
            let recovered = Node.recovered node in
            if recovered < slot.sent then slot.lost <- (recovered, slot.sent) :: slot.lost;
            slot.sent <- recovered;
            slot.primary <- node;
            slot.alive <- true;
            slot.failed_probes <- 0;
            slot.failovers <- slot.failovers + 1;
            (* The promoted node never serves the old versions; drop
               the merged answers that hold one, so the next read of
               them re-reads every shard in full at once. *)
            Mutex.protect t.cache_mutex (fun () ->
                Hashtbl.filter_map_inplace
                  (fun _ m -> if m.versions.(slot.index) = 0 then Some m else None)
                  t.cache);
            Pool.redirect slot.endpoint ~port:(Node.port node);
            if t.standby then arm_standby t slot;
            Ok (Unix.gettimeofday () -. t0, recovered)
      end)

let fail_over t ~shard =
  if shard < 0 || shard >= Array.length t.slots then Error "no such shard"
  else fail_over_slot t t.slots.(shard)

let kill_primary t ~shard =
  let slot = t.slots.(shard) in
  Node.kill slot.primary;
  Mutex.protect slot.sm (fun () -> slot.alive <- false)

(* --- ingest ------------------------------------------------------------ *)

let dead_letter t us =
  if us <> [] then
    Mutex.protect t.dead_mutex (fun () -> t.dead <- List.rev_append us t.dead)

let dead_letters t = Mutex.protect t.dead_mutex (fun () -> List.rev t.dead)
let dead_letter_count t = Mutex.protect t.dead_mutex (fun () -> List.length t.dead)

let rec drop k = function xs when k <= 0 -> xs | [] -> [] | _ :: rest -> drop (k - 1) rest

(* Send one batch to one shard. No transport retry — ingest is not
   idempotent and an ack lost in flight is ambiguous. The one re-route:
   if the primary is confirmed dead, fail over (fencing resolves the
   ambiguity — the durable count says exactly which prefix of the batch
   survived) and send the unsurvived suffix to the promoted node.

   The slot mutex is held across the RPC itself, not just the counter
   bump: a promotion that slipped between a dying primary's ack and our
   [sent] update would compute its lost range against a count missing
   that ack, and the acked records would silently fall outside every
   published range. Serializing sends with promotions closes the window
   (a send in flight delays a prober promotion by at most the op
   deadline). *)
let rec send_to_slot t slot batch ~rerouted : (int, string) result =
  match
    Mutex.protect slot.sm (fun () ->
        match Pool.run_once t.pool slot.endpoint (fun c -> Client.ingest c batch) with
        | Ok (admitted, _dropped) ->
            slot.sent <- slot.sent + admitted;
            Ok admitted
        | Error e -> Error e)
  with
  | Ok admitted -> Ok admitted
  | Error e when (not rerouted) && Client.retryable e && confirmed_dead slot
                 && t.auto_failover -> (
      let sent_before = Mutex.protect slot.sm (fun () -> slot.sent) in
      match fail_over_slot t slot with
      | Error m -> Error m
      | Ok (_dt, recovered) ->
          (* [recovered - sent_before] leading records of this batch
             reached the dead primary's durable log and were replayed
             into the promotion — only the suffix may be re-sent, but
             both count as admitted from the caller's point of view. *)
          let skip = max 0 (recovered - sent_before) in
          let batch = drop skip batch in
          if batch = [] then Ok skip
          else Result.map (fun n -> skip + n) (send_to_slot t slot batch ~rerouted:true))
  | Error e -> Error (Printf.sprintf "shard %d ingest: %s" slot.index (err_str e))

let route_buckets t updates =
  let buckets = Array.make (Array.length t.slots) [] in
  let unowned = ref [] in
  List.iter
    (fun u ->
      match Topology.owners t.topo ~rel:u.U.rel u.U.tuple with
      | None -> unowned := u :: !unowned
      | Some owners ->
          List.iter (fun i -> buckets.(i) <- u :: buckets.(i)) owners)
    updates;
  (Array.map List.rev buckets, List.rev !unowned)

let ingest t updates : (int * int, string) result =
  St.Rwlock.read t.ingest_lock (fun () ->
      let buckets, unowned = route_buckets t updates in
      dead_letter t unowned;
      let result = ref (Ok 0) in
      Array.iteri
        (fun i batch ->
          match !result with
          | Error _ -> ()
          | Ok acc ->
              if batch <> [] then
                result :=
                  Result.map
                    (fun n -> acc + n)
                    (send_to_slot t t.slots.(i) batch ~rerouted:false))
        buckets;
      Result.map (fun admitted -> (admitted, List.length unowned)) !result)

let ingest_shard t ~shard updates : (int, string) result =
  if shard < 0 || shard >= Array.length t.slots then Error "no such shard"
  else
    St.Rwlock.read t.ingest_lock (fun () ->
        send_to_slot t t.slots.(shard) updates ~rerouted:false)

let take_lost t ~shard =
  let slot = t.slots.(shard) in
  Mutex.protect slot.sm (fun () ->
      let l = List.rev slot.lost in
      slot.lost <- [];
      l)

let has_lost t ~shard =
  let slot = t.slots.(shard) in
  Mutex.protect slot.sm (fun () -> slot.lost <> [])

(* Resolve an ambiguous ingest: a transport error may hide an
   admission (the node admitted the batch, then the connection died
   before the ack crossed), leaving [sent] lower than the node's truth
   and a later blind retry would duplicate records. Fence the shard
   (promoting it first if it is confirmed dead) and read the absorbed
   count straight off the node: after a fence, recovered + applied is
   exactly the number of records ever admitted from us. [sent] is
   trued up to it, and the caller compares it against its own send log
   to learn how much of the failed batch actually landed. *)
let rec reconcile_sent t ~shard : (int, string) result =
  if shard < 0 || shard >= Array.length t.slots then Error "no such shard"
  else begin
    let slot = t.slots.(shard) in
    if confirmed_dead slot then
      if t.auto_failover then
        match fail_over_slot t slot with
        | Error m -> Error m
        | Ok _ -> reconcile_sent t ~shard
      else Error (Printf.sprintf "shard %d primary is dead" shard)
    else
      Mutex.protect slot.sm (fun () ->
          match
            Pool.run t.pool slot.endpoint (fun c ->
                Client.set_timeout c (Some (20. *. Pool.timeout t.pool));
                let r = Client.barrier c in
                Client.set_timeout c (Some (Pool.timeout t.pool));
                r)
          with
          | Error e -> Error (Printf.sprintf "shard %d fence: %s" shard (err_str e))
          | Ok (_ : int) ->
              let absorbed = Node.recovered slot.primary + Node.applied slot.primary in
              slot.sent <- absorbed;
              Ok absorbed)
  end

(* --- reads ------------------------------------------------------------- *)

(* Idempotent read against one shard: pool-level retry first; if the
   primary is confirmed dead, fail over and re-run against the
   promoted node — this is the in-flight re-route. *)
let read_slot t slot f =
  match Pool.run t.pool slot.endpoint f with
  | Ok v -> Ok v
  | Error e when Client.retryable e && t.auto_failover && confirmed_dead slot -> (
      match fail_over_slot t slot with
      | Error m -> Error (Wire.Remote m)
      | Ok _ -> Pool.run t.pool slot.endpoint f)
  | Error e -> Error e

(* The answers a node serves are canonical: strictly ascending by
   [Tuple.compare], so one entry per tuple, and no zero payload. *)
let rec canonical = function
  | [] -> true
  | [ (_, p) ] -> p <> 0
  | (a, p) :: ((b, _) :: _ as rest) -> p <> 0 && Tuple.compare a b < 0 && canonical rest

(* One linear pass over two canonical answers, ascending: equal tuples
   add their payloads and a zero sum drops out, so the result is
   canonical too. The tail left when one side runs out is shared, not
   copied. *)
let rec merge2 acc a b =
  match (a, b) with
  | [], rest | rest, [] -> List.rev_append acc rest
  | ((ta, pa) as ea) :: ra, ((tb, pb) as eb) :: rb ->
      let c = Tuple.compare ta tb in
      if c < 0 then merge2 (ea :: acc) ra b
      else if c > 0 then merge2 (eb :: acc) a rb
      else
        let s = pa + pb in
        merge2 (if s = 0 then acc else (ta, s) :: acc) ra rb

(* The ring sum of per-shard partial answers added onto [base], a
   canonical answer. Associativity and commutativity of the payload
   ring make the merge order irrelevant, and an output delta adds like
   an answer. An answer or delta that is not canonical fails the read,
   naming its shard: merging it would return a wrong answer without a
   sign. *)
let merge_onto base answers =
  match List.find_opt (fun (_, entries) -> not (canonical entries)) answers with
  | Some (shard, _) ->
      Error
        (Printf.sprintf
           "shard %d answer is not strictly ascending and zero-free; read refused" shard)
  | None -> Ok (List.fold_left (fun acc (_, entries) -> merge2 [] acc entries) base answers)

let merge_entries answers = merge_onto [] answers

(* Every shard's answer, tagged with its shard index; [f] is given the
   index too. *)
let read_all t f =
  let rec from i acc =
    if i < 0 then Ok acc
    else
      match read_slot t t.slots.(i) (f i) with
      | Ok v -> from (i - 1) ((i, v) :: acc)
      | Error e -> Error (err_str e)
  in
  from (Array.length t.slots - 1) []

(* The first healthy shard's answer, tagged with its shard index. *)
let read_any t f =
  let rec go i last =
    if i >= Array.length t.slots then Error last
    else
      match read_slot t t.slots.(i) (f i) with
      | Ok v -> Ok [ (i, v) ]
      | Error e -> go (i + 1) (err_str e)
  in
  go 0 "no shards"

(* Every answer whole ([since = 0]) and merged: prefixed reads, and
   the reference the cached whole-view read is checked against. A
   one-shard read goes through the merge too: a merge of one answer is
   that answer, checked. *)
let read_full t ~view ~prefix =
  let entries _ c = Result.map (fun a -> a.Client.entries) (Client.lookup c ~view ~prefix) in
  let* answers =
    match Topology.route t.topo view with
    | Topology.Keyed when Tuple.arity prefix >= 1 ->
        (* The first output column is the partition key: one owner. *)
        let shard = Topology.key_owner t.topo (Tuple.get prefix 0) in
        Result.map_error err_str (read_slot t t.slots.(shard) (entries shard))
        |> Result.map (fun e -> [ (shard, e) ])
    | Topology.Replicated -> read_any t entries
    | Topology.Keyed | Topology.Scattered -> read_all t entries
  in
  merge_entries answers

let rec all_deltas = function
  | [] -> true
  | (_, a) :: rest -> a.Client.delta && all_deltas rest

let rec same_versions m = function
  | [] -> true
  | (i, a) :: rest -> a.Client.version = m.versions.(i) && same_versions m rest

(* The answers with every delta re-read in full, for when some shard
   answered in full: a full answer cannot be added onto the merged
   one. *)
let rec in_full t ~view = function
  | [] -> Ok []
  | (i, (a : Client.answer)) :: rest -> (
      let a =
        if a.delta then
          Result.map_error err_str
            (read_slot t t.slots.(i) (fun c -> Client.lookup c ~view ~prefix:Tuple.unit))
        else Ok a
      in
      match a with
      | Error m -> Error m
      | Ok a -> Result.map (fun rest -> (i, a) :: rest) (in_full t ~view rest))

(* A whole-view read through the view's merged answer: each shard is
   asked for the delta from the version the merged answer holds of it.
   When every shard sends its delta, the deltas are added onto the
   merged answer (nothing changed: the merged answer itself). A full
   answer cannot be added onto it, so when any shard answers in full,
   the shards that sent a delta are re-read in full and the answers
   merged from scratch. A read that moved the merged answer installs
   its result, unless a concurrent read or a failover replaced the
   entry it started from. The unchanged read, the common one, runs
   without a [let*] chain or list-walking closures: it allocates one
   read closure per shard and what the shards' answers decode to. *)
let read_cached t ~view =
  Mutex.lock t.cache_mutex;
  let was = Hashtbl.find_opt t.cache view in
  Mutex.unlock t.cache_mutex;
  let versioned i c =
    let since = match was with Some m -> m.versions.(i) | None -> 0 in
    Client.lookup ~since c ~view ~prefix:Tuple.unit
  in
  let answers =
    match Topology.route t.topo view with
    | Topology.Replicated -> read_any t versioned
    | Topology.Keyed | Topology.Scattered -> read_all t versioned
  in
  match answers with
  | Error m -> Error m
  | Ok answers -> (
      let deltas = all_deltas answers in
      match was with
      | Some m when deltas && same_versions m answers -> Ok m.entries
      | _ -> (
          (* Now either every answer is a delta (so [was] holds a
             merged answer) or none is. *)
          let answers = if deltas then Ok answers else in_full t ~view answers in
          let base = match was with Some m when deltas -> m.entries | _ -> [] in
          match answers with
          | Error m -> Error m
          | Ok answers -> (
              match merge_onto base (List.map (fun (i, a) -> (i, a.Client.entries)) answers) with
              | Error m -> Error m
              | Ok entries ->
                  let versions = Array.make (Array.length t.slots) 0 in
                  List.iter (fun (i, a) -> versions.(i) <- a.Client.version) answers;
                  Mutex.protect t.cache_mutex (fun () ->
                      match (Hashtbl.find_opt t.cache view, was) with
                      | None, None -> Hashtbl.replace t.cache view { versions; entries }
                      | Some now, Some was when now == was ->
                          Hashtbl.replace t.cache view { versions; entries }
                      | _ -> ());
                  Ok entries)))

let read_view t ~view ~prefix =
  if Tuple.arity prefix = 0 then read_cached t ~view else read_full t ~view ~prefix

let lookup t ~view ~prefix = St.Rwlock.read t.ingest_lock (fun () -> read_view t ~view ~prefix)

let lookup_full t ~view ~prefix =
  St.Rwlock.read t.ingest_lock (fun () -> read_full t ~view ~prefix)

(* --- the two-phase epoch barrier --------------------------------------- *)

(* Fence one node. The fence may legitimately take longer than a
   point op (it waits for the node's queue to drain), so the per-op
   deadline is stretched for the barrier call and restored before the
   connection returns to the pool. *)
let fence_slot t slot =
  read_slot t slot (fun c ->
      Client.set_timeout c (Some (20. *. Pool.timeout t.pool));
      let r = Client.barrier c in
      Client.set_timeout c (Some (Pool.timeout t.pool));
      r)

let fence_all t =
  Array.fold_left
    (fun acc slot ->
      let* epochs = acc in
      let* e = Result.map_error err_str (fence_slot t slot) in
      Ok (e :: epochs))
    (Ok []) t.slots
  |> Result.map (fun es -> Array.of_list (List.rev es))

let barrier t =
  St.Rwlock.write t.ingest_lock (fun () -> fence_all t)

let quiesced t f =
  (* Run [f] while the cluster is fenced and routed ingest is paused —
     the planned-kill hook: nothing acked is undurable at the moment
     [f] runs, so a kill inside [f] cannot lose acked records. *)
  St.Rwlock.write t.ingest_lock (fun () ->
      let* (_ : int array) = fence_all t in
      Ok (f ()))

let snapshot t ~view =
  (* Phase 1: the write side of the ingest lock — no routed update can
     be admitted anywhere while held. Phase 2: fence every node, so
     everything admitted before the pause is applied everywhere. Only
     then read: the merge cannot mix epochs across nodes. *)
  St.Rwlock.write t.ingest_lock (fun () ->
      let* (_ : int array) = fence_all t in
      read_view t ~view ~prefix:(Tuple.of_list []))

let fingerprint t ~view = Result.map M.entries_fingerprint (snapshot t ~view)

(* --- status / prober --------------------------------------------------- *)

type shard_status = {
  shard : int;
  port : int;
  alive : bool;
  node_health : string;
  failovers : int;
  sent : int;
  applied : int;
  has_standby : bool;
  standby_lag : int option;
  lost_ranges : (int * int) list;
}

let status t =
  Array.to_list
    (Array.map
       (fun slot ->
         Mutex.protect slot.sm (fun () ->
             {
               shard = slot.index;
               port = Pool.port slot.endpoint;
               alive = slot.alive;
               node_health = Node.health_name (Node.health slot.primary);
               failovers = slot.failovers;
               sent = slot.sent;
               applied = Node.applied slot.primary;
               has_standby = slot.standby <> None;
               standby_lag =
                 Option.map
                   (fun sb -> max 0 (Node.applied slot.primary - Node.applied sb))
                   slot.standby;
               lost_ranges = List.rev slot.lost;
             }))
       t.slots)

let probe_once t slot =
  if Mutex.protect slot.sm (fun () -> slot.alive) then
    match Pool.run ~attempts:1 t.pool slot.endpoint Client.health with
    | Ok _ -> slot.failed_probes <- 0
    | Error _ ->
        slot.failed_probes <- slot.failed_probes + 1;
        if slot.failed_probes >= t.probe_failures then begin
          Mutex.protect slot.sm (fun () -> slot.alive <- false);
          if t.auto_failover then ignore (fail_over_slot t slot)
        end

let prober_loop t ~interval =
  while not (Atomic.get t.stop_flag) do
    Unix.sleepf interval;
    if not (Atomic.get t.stop_flag) then Array.iter (probe_once t) t.slots
  done

(* --- lifecycle --------------------------------------------------------- *)

let start ?(handlers = 2) ?(queue_capacity = 8192) ?(checkpoint_every = 2048)
    ?(standby = true) ?(probe_interval = 0.05) ?(probe_failures = 3)
    ?(auto_failover = true) ?(timeout = 2.0) ?(attempts = 3) ?(backoff = 0.01)
    ?(seed = 0) ~base_dir ~topology ~declare () : (t, string) result =
  let pool = Pool.create ~timeout ~attempts ~backoff ~seed () in
  let n = Topology.shard_count topology in
  let slots = ref [] in
  let rec boot i =
    if i >= n then Ok ()
    else
      let dir = Filename.concat base_dir (Printf.sprintf "shard%d/primary" i) in
      let pspec =
        Node.spec
          ~name:(Printf.sprintf "shard%d" i)
          ~dir ~handlers ~queue_capacity ~checkpoint_every declare
      in
      match Node.start pspec with
      | Error m -> Error (Printf.sprintf "shard %d: %s" i m)
      | Ok node ->
          let slot =
            {
              index = i;
              primary = node;
              standby = None;
              feeder = None;
              feeder_conn = None;
              endpoint = Pool.endpoint ~port:(Node.port node) ();
              alive = true;
              failed_probes = 0;
              sent = Node.recovered node;
              failovers = 0;
              lost = [];
              sm = Mutex.create ();
            }
          in
          slots := slot :: !slots;
          boot (i + 1)
  in
  match boot 0 with
  | Error m ->
      List.iter (fun s -> Node.stop s.primary) !slots;
      Error m
  | Ok () ->
      let t =
        {
          topo = topology;
          pool;
          slots = Array.of_list (List.rev !slots);
          base_dir;
          handlers;
          queue_capacity;
          checkpoint_every;
          standby;
          probe_failures;
          auto_failover;
          declare;
          ingest_lock = St.Rwlock.create ();
          dead_mutex = Mutex.create ();
          dead = [];
          cache_mutex = Mutex.create ();
          cache = Hashtbl.create 64;
          stop_flag = Atomic.make false;
          prober = None;
        }
      in
      if standby then Array.iter (fun slot -> arm_standby t slot) t.slots;
      if probe_interval > 0. then
        t.prober <- Some (Domain.spawn (fun () -> prober_loop t ~interval:probe_interval));
      Ok t

let shard_count t = Array.length t.slots
let topology t = t.topo
let shard_port t ~shard = Pool.port t.slots.(shard).endpoint
let primary t ~shard = Mutex.protect t.slots.(shard).sm (fun () -> t.slots.(shard).primary)
let shard_sent t ~shard = Mutex.protect t.slots.(shard).sm (fun () -> t.slots.(shard).sent)

let stop t =
  Atomic.set t.stop_flag true;
  (match t.prober with Some d -> Domain.join d | None -> ());
  t.prober <- None;
  Array.iter
    (fun slot ->
      stop_feeder slot;
      (match slot.standby with Some sb -> Node.stop sb | None -> ());
      slot.standby <- None;
      Node.stop slot.primary;
      Pool.drain slot.endpoint)
    t.slots
