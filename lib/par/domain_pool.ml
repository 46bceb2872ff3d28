(** A reusable fixed-size pool of OCaml 5 domains.

    [create ~domains:n] gives a pool of parallelism width [n]: [n - 1]
    worker domains plus the submitting domain, which executes tasks
    itself while it waits — so [~domains:1] is a plain sequential loop
    with no spawning, locking or signalling at all. Domains are spawned
    once and reused across batches, amortizing the (milliseconds-scale)
    spawn cost over the lifetime of an engine.

    The pool runs *tasks*, not shards: callers partition their work into
    independent closures (one per chunk, relation or view) and the
    pool drains them. Nothing here knows about relations or rings — the
    soundness argument for running maintenance tasks concurrently (ring
    commutativity, one writer per relation or view) lives with the
    callers: the engine batch fronts and the registry's per-view
    fan-out. The network server runs its connection handlers here. *)

type t = {
  width : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  all_done : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable running : int; (* tasks popped but not yet finished *)
  mutable stop : bool;
  mutable first_error : exn option;
  mutable workers : unit Domain.t array;
}

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.stop do
    Condition.wait pool.has_work pool.mutex
  done;
  if pool.stop && Queue.is_empty pool.queue then Mutex.unlock pool.mutex
  else begin
    let task = Queue.pop pool.queue in
    pool.running <- pool.running + 1;
    Mutex.unlock pool.mutex;
    let err = match task () with () -> None | exception e -> Some e in
    Mutex.lock pool.mutex;
    pool.running <- pool.running - 1;
    (match err with
    | Some e when pool.first_error = None -> pool.first_error <- Some e
    | Some _ | None -> ());
    if pool.running = 0 && Queue.is_empty pool.queue then
      Condition.broadcast pool.all_done;
    Mutex.unlock pool.mutex;
    worker_loop pool
  end

let create ~domains =
  if domains < 1 then invalid_arg "Domain_pool.create: domains < 1";
  let pool =
    {
      width = domains;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      all_done = Condition.create ();
      queue = Queue.create ();
      running = 0;
      stop = false;
      first_error = None;
      workers = [||];
    }
  in
  pool.workers <-
    Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let width pool = pool.width

(* Sequential fallback used by width-1 pools and empty task lists. *)
let run_seq tasks = List.iter (fun task -> task ()) tasks

(** [run pool tasks] executes every task and returns when all have
    finished; the caller's domain participates. Tasks must be
    independent — the pool gives no ordering guarantee. The first
    exception raised by any task is re-raised after the barrier. *)
let run pool tasks =
  match tasks with
  | [] -> ()
  | [ task ] -> task ()
  | tasks when pool.width = 1 -> run_seq tasks
  | tasks ->
      Mutex.lock pool.mutex;
      List.iter (fun task -> Queue.push task pool.queue) tasks;
      Condition.broadcast pool.has_work;
      (* Help drain the queue, then wait for stragglers. *)
      let rec help () =
        if not (Queue.is_empty pool.queue) then begin
          let task = Queue.pop pool.queue in
          pool.running <- pool.running + 1;
          Mutex.unlock pool.mutex;
          let err = match task () with () -> None | exception e -> Some e in
          Mutex.lock pool.mutex;
          pool.running <- pool.running - 1;
          (match err with
          | Some e when pool.first_error = None -> pool.first_error <- Some e
          | Some _ | None -> ());
          help ()
        end
      in
      help ();
      while pool.running > 0 do
        Condition.wait pool.all_done pool.mutex
      done;
      let err = pool.first_error in
      pool.first_error <- None;
      Mutex.unlock pool.mutex;
      (match err with Some e -> raise e | None -> ())

(** [submit pool task] hands [task] to a worker domain and returns
    immediately — no barrier, no result. This is what long-lived tasks
    (network connection handlers) use: they must never ride a {!run}
    barrier, or the barrier would wait for the connection to close.
    Exceptions escaping a submitted task are swallowed (there is no
    joiner to re-raise into); the task owns its error handling. A
    width-1 pool has no workers, so the task runs inline on the
    submitting domain. *)
let submit pool task =
  let task () = try task () with _ -> () in
  if pool.width = 1 then task ()
  else begin
    Mutex.lock pool.mutex;
    Queue.push task pool.queue;
    Condition.signal pool.has_work;
    Mutex.unlock pool.mutex
  end

(** [fold pool ~add ~zero tasks] runs the tasks on the pool and combines
    their results with [add] in an unspecified order — sound when [add]
    is commutative and associative, which is exactly what the ring
    structure of payloads guarantees (Sec. 2). *)
let fold pool ~add ~zero tasks =
  match tasks with
  | [] -> zero
  | [ task ] -> add zero (task ())
  | tasks ->
      let cells = List.map (fun task -> (ref zero, task)) tasks in
      run pool (List.map (fun (cell, task) -> fun () -> cell := task ()) cells);
      List.fold_left (fun acc (cell, _) -> add acc !cell) zero cells

(** Split [arr] into at most [width pool] contiguous chunks, one task
    per chunk. [chunks pool arr f] returns the per-chunk results of
    [f first_index length]. *)
let chunk_bounds pool n =
  let k = min pool.width (max 1 n) in
  let base = n / k and extra = n mod k in
  List.init k (fun i ->
      let lo = (i * base) + min i extra in
      let len = base + if i < extra then 1 else 0 in
      (lo, len))

let destroy pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.has_work;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.workers

let with_pool ~domains f =
  let pool = create ~domains in
  Fun.protect ~finally:(fun () -> destroy pool) (fun () -> f pool)
