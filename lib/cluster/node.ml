(** One durable serving process: WAL, periodic and admin checkpoints,
    supervised registry, epoch scheduler, SQL session, TCP server —
    bundled behind start/kill/stop, in-process (each node still runs
    its scheduler and connection handlers on its own domains and is
    reached only over loopback TCP). A cluster shard and [ivm_cli
    serve] are both one of these.

    Recovery is {!Ivm_stream.Durable.recover}: load the checkpoint,
    replay the WAL suffix from the byte offset it stores. Each
    checkpoint also stores how many stream records it covers, so
    {!recovered} reports the durable record count — checkpointed
    records plus replayed suffix — which a router uses after promoting
    this node to know which suffix of its per-shard send log to
    re-send.

    {!kill} is the crash simulation: buffered WAL bytes are dropped
    ({!Ivm_stream.Wal.Z.crash}), the queue closes, and the server stops
    with zero grace — exactly what a power cut leaves behind. A
    subsequent {!start} over the same directory is the recovery path
    the promotion logic rides. *)

module D = Ivm_data
module Db = D.Database.Z
module U = D.Update
module St = Ivm_stream
module Server = Ivm_net.Server

type spec = {
  name : string;
  dir : string;  (** holds [node.wal] and [node.ckpt] *)
  port : int;  (** 0 picks an ephemeral port *)
  handlers : int;
  queue_capacity : int;
  checkpoint_every : int;  (** durable records between auto-checkpoints; 0 = never *)
  declare : St.Registry.t -> unit;
      (** declare tables and register views; runs against fresh {e and}
          restored databases, so it must tolerate already-declared
          tables (ignore the [declare_table] result) *)
  seed_from : string option;
      (** load the initial state from this directory's checkpoint + WAL
          (read-only) instead of [dir]'s own — how a standby warms up
          from its primary's durable state; the node's own log still
          lives in [dir] and starts fresh *)
}

let spec ?(port = 0) ?(handlers = 2) ?(queue_capacity = 8192) ?(checkpoint_every = 0)
    ?seed_from ~name ~dir declare =
  { name; dir; port; handlers; queue_capacity; checkpoint_every; declare; seed_from }

type health = Running | Stopped | Failed of string

(* Admin-checkpoint rendezvous. A checkpoint must not be taken
   mid-epoch (the WAL may then be ahead of the applied state), so a
   request parks here with the queue watermark it needs applied and
   pushes a zero-payload tick to force an epoch even on an idle stream;
   the scheduler's epoch hook saves at the boundary, where WAL offset
   and registry state coincide, and answers every request it covers.
   Stopping, killing or failing the node answers the rest with an
   error. *)
type parked = { mutable target : int; mutable result : (int, string) result option }

type rendezvous = {
  rv_mutex : Mutex.t;
  rv_cond : Condition.t;
  mutable parked : parked list;
  mutable closed : bool;
}

(* The tick coalesces away before any view sees it and changes nothing
   on replay ({!Ivm_stream.Durable.recover} skips zero payloads), so
   its relation need not exist. *)
let tick = U.make ~rel:"" ~tuple:(D.Tuple.of_ints []) ~payload:0

let answer rv due r =
  Mutex.protect rv.rv_mutex (fun () ->
      List.iter (fun p -> p.result <- Some r) due;
      Condition.broadcast rv.rv_cond)

let close_rendezvous rv why =
  let due =
    Mutex.protect rv.rv_mutex (fun () ->
        rv.closed <- true;
        let due = rv.parked in
        rv.parked <- [];
        due)
  in
  answer rv due (Error why)

let request_checkpoint rv queue =
  let p = { target = max_int; result = None } in
  if not (Mutex.protect rv.rv_mutex (fun () ->
              if not rv.closed then rv.parked <- p :: rv.parked;
              not rv.closed))
  then Error "node is stopping"
  else begin
    if St.Queue.push queue (St.Scheduler.item tick) then
      Mutex.protect rv.rv_mutex (fun () -> p.target <- St.Queue.pushed queue)
    else close_rendezvous rv "node is stopping";
    Mutex.protect rv.rv_mutex (fun () ->
        while p.result = None do
          Condition.wait rv.rv_cond rv.rv_mutex
        done);
    Option.get p.result
  end

(* The parked requests an epoch boundary at [applied] covers. *)
let take_due rv ~applied =
  Mutex.protect rv.rv_mutex (fun () ->
      let due, rest = List.partition (fun p -> p.target <= applied) rv.parked in
      rv.parked <- rest;
      due)

let health_name = function
  | Running -> "running"
  | Stopped -> "stopped"
  | Failed msg -> "failed: " ^ msg

type t = {
  spec : spec;
  metrics : St.Metrics.t;
  registry : St.Registry.t;
  wal : St.Wal.Z.t;
  queue : St.Scheduler.item St.Queue.t;
  sched : St.Scheduler.t;
  server : Server.t;
  rendezvous : rendezvous;
  recovered : int;  (** durable records replayed at start *)
  mutable runner : unit Domain.t option;
  mutable health : health;
  mutable torn_down : bool;  (* kill or stop already ran *)
  mutex : Mutex.t;
}

let wal_file dir = Filename.concat dir "node.wal"
let ckpt_file dir = Filename.concat dir "node.ckpt"

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let ( let* ) = Result.bind

(* [(admitted, dropped)]: the queue drops only once it is closed. *)
let push_all queue ups =
  List.fold_left
    (fun (a, d) u ->
      if St.Queue.push queue (St.Scheduler.item u) then (a + 1, d) else (a, d + 1))
    (0, 0) ups

let start (spec : spec) : (t, string) result =
  mkdir_p spec.dir;
  let metrics = St.Metrics.create () in
  let state_dir = Option.value spec.seed_from ~default:spec.dir in
  let to_msg r = Result.map_error St.Errors.to_string r in
  let* reg, { St.Checkpoint.records; wal_offset } =
    to_msg
      (St.Durable.recover ~wal:(wal_file state_dir) ~ckpt:(ckpt_file state_dir)
         ~fresh:Db.create (fun db ->
           let reg = St.Registry.create ~metrics db in
           spec.declare reg;
           reg))
  in
  (* A seeded node inherits the state but not the log: its own WAL
     starts fresh, so its durable record counter restarts at zero. *)
  let from, recovered =
    if spec.seed_from = None then (wal_offset, records) else (St.Wal.header_len, 0)
  in
  (match spec.seed_from with
  | Some _ when Sys.file_exists (wal_file spec.dir) -> Sys.remove (wal_file spec.dir)
  | _ -> ());
  let* wal = to_msg (St.Wal.Z.open_log ~from (wal_file spec.dir)) in
  let queue = St.Queue.create ~capacity:spec.queue_capacity St.Queue.Block in
  let rv =
    { rv_mutex = Mutex.create (); rv_cond = Condition.create (); parked = []; closed = false }
  in
  let server_ref = ref None in
  (* The scheduler hands the per-relation delta front; the server
     flattens it into the wire frame. This is the path the router's
     barrier fences: once [Scheduler.barrier] returns, every front up
     to the fence has been published. *)
  let on_apply ~epoch front =
    match !server_ref with
    | Some srv -> Server.publish_delta srv ~epoch front
    | None -> ()
  in
  let sched =
    St.Scheduler.create ~wal ~queue ~registry:reg ~metrics ~initial_batch:64 ~on_apply ()
  in
  let ingest = push_all queue in
  (* Epoch-token sessions: the token is the queue watermark right after
     the batch's pushes (a concurrent producer can only inflate it —
     waiting on a higher token is conservative, never stale). Both
     watermarks continue from the recovered record count, so a session
     token from before a restart still gates reads after it. *)
  let ingest_rw ups =
    let admitted, dropped = ingest ups in
    (admitted, dropped, recovered + St.Queue.pushed queue)
  in
  (* The wire's Create_view/Explain ops run against one SQL session
     grafted onto the registry. Handler domains may issue SQL
     concurrently and the session catalog is not domain-safe, so the
     callbacks serialize on one mutex. The planner's read/write mix
     comes from the live metrics. *)
  let sql =
    Ivm_sql.Exec.create ~registry:reg
      ~stats:(fun () ->
        let count name = St.Metrics.Hist.count (St.Metrics.op metrics name) in
        { Ivm_sql.Planner.reads = count "lookup" + count "snapshot";
          writes = metrics.St.Metrics.ingested })
      ()
  in
  let sql_mutex = Mutex.create () in
  let create_view text =
    Mutex.protect sql_mutex (fun () ->
        Result.map
          (fun outs -> String.concat "\n" (List.map Ivm_sql.Exec.render outs))
          (Ivm_sql.Exec.exec_text sql text))
  in
  let explain text =
    Mutex.protect sql_mutex (fun () ->
        let* stmt = Ivm_sql.Parser.stmt text in
        let stmt =
          match stmt with Ivm_sql.Ast.Explain _ -> stmt | s -> Ivm_sql.Ast.Explain s
        in
        Result.map Ivm_sql.Exec.render (Ivm_sql.Exec.exec sql stmt))
  in
  match
    Server.start ~port:spec.port ~handlers:spec.handlers ~ingest ~ingest_rw
      ~served:(fun () -> recovered + St.Scheduler.applied sched)
      ~barrier:(fun () -> St.Scheduler.barrier sched)
      ~checkpoint:(fun () -> request_checkpoint rv queue)
      ~create_view ~explain
      ~on_shutdown:(fun () -> St.Queue.close queue)
      ~registry:reg ~metrics ()
  with
  | Error e -> Error (Ivm_net.Wire.error_to_string e)
  | Ok server ->
      server_ref := Some server;
      let t =
        {
          spec;
          metrics;
          registry = reg;
          wal;
          queue;
          sched;
          server;
          rendezvous = rv;
          recovered;
          runner = None;
          health = Running;
          torn_down = false;
          mutex = Mutex.create ();
        }
      in
      (* A scheduler failure must be externally visible — a node whose
         server kept answering while nothing applied would look alive
         to the router forever. So the runner's failure path crashes
         the whole node: abort the scheduler (waking barrier waiters
         into a clean error), drop buffered WAL bytes, close the queue,
         slam the server. Runs on the runner domain itself, so it never
         joins the runner — kill/stop do that. *)
      let fail msg =
        let first =
          Mutex.protect t.mutex (fun () ->
              let first = not t.torn_down in
              t.torn_down <- true;
              if t.health = Running then t.health <- Failed msg;
              first)
        in
        if first then begin
          St.Scheduler.abort sched;
          St.Wal.Z.crash wal;
          St.Queue.close queue;
          close_rendezvous rv ("node failed: " ^ msg);
          Server.stop ~grace:0. server
        end
      in
      let save () =
        let* () =
          St.Checkpoint.Z.save (ckpt_file spec.dir) ~db:(St.Registry.db reg)
            ~records:(recovered + St.Scheduler.applied sched)
            ~wal_offset:(St.Wal.Z.offset wal)
        in
        Ok (St.Wal.Z.offset wal)
      in
      (* Checkpoints ride the epoch hook. A periodic one that cannot be
         made durable crashes the node (raise → the runner's failure
         path), which is what the chaos scenarios inject; an admin one
         reports the error to its requesters. *)
      let next_ckpt = ref ((recovered / max 1 spec.checkpoint_every) + 1) in
      let on_epoch s =
        if spec.checkpoint_every > 0 then begin
          let durable = recovered + St.Scheduler.applied s in
          if durable >= !next_ckpt * spec.checkpoint_every then begin
            incr next_ckpt;
            match save () with
            | Ok _ -> ()
            | Error e -> failwith (St.Errors.to_string e)
          end
        end;
        match take_due rv ~applied:(St.Scheduler.applied s) with
        | [] -> ()
        | due -> answer rv due (Result.map_error St.Errors.to_string (save ()))
      in
      t.runner <-
        Some
          (Domain.spawn (fun () ->
               match St.Scheduler.run ~on_epoch sched with
               | Ok () ->
                   close_rendezvous rv "stream ended before the checkpoint ran";
                   Mutex.protect t.mutex (fun () ->
                       if t.health = Running then t.health <- Stopped)
               | Error e -> fail (St.Errors.to_string e)
               | exception e -> fail (Printexc.to_string e)));
      Ok t

let port t = Server.port t.server
let applied t = St.Scheduler.applied t.sched
let recovered t = t.recovered
let registry t = t.registry
let metrics t = t.metrics
let name t = t.spec.name
let dir t = t.spec.dir
let health t = Mutex.protect t.mutex (fun () -> t.health)

let ingest t ups = push_all t.queue ups

let join_runner t =
  match Mutex.protect t.mutex (fun () ->
      let r = t.runner in
      t.runner <- None;
      r)
  with
  | Some d -> Domain.join d
  | None -> ()

let kill t =
  let first =
    Mutex.protect t.mutex (fun () ->
        let first = not t.torn_down in
        t.torn_down <- true;
        if first then t.health <- Failed "killed";
        first)
  in
  if first then begin
    (* Crash order matters: drop the WAL's buffered bytes first, so
       nothing acked-but-unsynced survives; then close the queue so the
       scheduler stops (its next WAL append fails on the dead log);
       then slam the server with zero grace. *)
    St.Wal.Z.crash t.wal;
    St.Queue.close t.queue;
    close_rendezvous t.rendezvous "node killed";
    Server.stop ~grace:0. t.server
  end;
  (* Even when the runner already tore itself down, reap its domain. *)
  join_runner t

let stop t =
  let first =
    Mutex.protect t.mutex (fun () ->
        let first = not t.torn_down in
        t.torn_down <- true;
        first)
  in
  if first then begin
    St.Queue.close t.queue;
    join_runner t;
    close_rendezvous t.rendezvous "node stopped before the checkpoint ran";
    Server.stop t.server;
    St.Wal.Z.close t.wal;
    Mutex.protect t.mutex (fun () ->
        match t.health with Failed _ -> () | _ -> t.health <- Stopped)
  end
  else join_runner t
