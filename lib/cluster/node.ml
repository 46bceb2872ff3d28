(** One cluster node: the full durable serve pipeline — WAL, periodic
    checkpoints, supervised registry, epoch scheduler, TCP server —
    bundled behind start/kill/stop, in-process (each node still runs
    its scheduler and connection handlers on its own domains and is
    reached only over loopback TCP).

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
  let ingest ups =
    List.fold_left
      (fun (a, d) u ->
        if St.Queue.push queue (St.Scheduler.item u) then (a + 1, d) else (a, d + 1))
      (0, 0) ups
  in
  (* Epoch-token sessions: the token is the queue watermark right after
     the batch's pushes (a concurrent producer can only inflate it —
     waiting on a higher token is conservative, never stale). *)
  let ingest_rw ups =
    let admitted, dropped = ingest ups in
    (admitted, dropped, St.Queue.pushed queue)
  in
  match
    Server.start ~port:spec.port ~handlers:spec.handlers ~ingest ~ingest_rw
      ~served:(fun () -> St.Scheduler.applied sched)
      ~barrier:(fun () -> St.Scheduler.barrier sched)
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
          Server.stop ~grace:0. server
        end
      in
      (* Periodic checkpoints ride the epoch hook; a checkpoint that
         cannot be made durable crashes the node (raise → the runner's
         failure path), which is what the chaos scenarios inject. *)
      let next_ckpt = ref ((recovered / max 1 spec.checkpoint_every) + 1) in
      let on_epoch s =
        if spec.checkpoint_every > 0 then begin
          let durable = recovered + St.Scheduler.applied s in
          if durable >= !next_ckpt * spec.checkpoint_every then begin
            incr next_ckpt;
            match
              St.Checkpoint.Z.save (ckpt_file spec.dir) ~db:(St.Registry.db reg)
                ~records:durable ~wal_offset:(St.Wal.Z.offset wal)
            with
            | Ok () -> ()
            | Error e -> failwith (St.Errors.to_string e)
          end
        end
      in
      t.runner <-
        Some
          (Domain.spawn (fun () ->
               match St.Scheduler.run ~on_epoch sched with
               | Ok () ->
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

let ingest t ups =
  List.fold_left
    (fun (a, d) u ->
      if St.Queue.push t.queue (St.Scheduler.item u) then (a + 1, d) else (a, d + 1))
    (0, 0) ups

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
    Server.stop t.server;
    St.Wal.Z.close t.wal;
    Mutex.protect t.mutex (fun () ->
        match t.health with Failed _ -> () | _ -> t.health <- Stopped)
  end
  else join_runner t
