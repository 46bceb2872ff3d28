(* Long-lived tasks (a connection handler runs until its peer hangs up)
   are only ever submitted, never awaited, so the pool needs no barrier
   and no result plumbing. *)

type t = {
  mutex : Mutex.t;
  has_work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.has_work t.mutex
  done;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.mutex
  | Some task ->
      Mutex.unlock t.mutex;
      (try task () with _ -> ());
      worker_loop t

let create ~workers =
  let t =
    {
      mutex = Mutex.create ();
      has_work = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [||];
    }
  in
  t.workers <- Array.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t task =
  Mutex.protect t.mutex (fun () ->
      Queue.push task t.queue;
      Condition.signal t.has_work)

let destroy t =
  Mutex.protect t.mutex (fun () ->
      t.stop <- true;
      Condition.broadcast t.has_work);
  Array.iter Domain.join t.workers
