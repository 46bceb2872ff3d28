(** A writer-preferring read/write lock: the concurrency seam between
    the maintenance loop (one writer per epoch) and network read
    handlers (many concurrent readers).

    Readers run concurrently with each other; a writer runs alone.
    Writer preference — a waiting writer blocks *new* readers — keeps
    epoch apply latency bounded under read load: an epoch waits for the
    readers already in flight, never for readers that arrived after it.
    The locks are not re-entrant: a reader that calls {!read} again
    while a writer is queued deadlocks, so lock acquisition lives only
    at public entry points, never in internal helpers. *)

type t = {
  mutex : Mutex.t;
  ok_read : Condition.t;
  ok_write : Condition.t;
  mutable readers : int; (* readers currently inside *)
  mutable writing : bool;
  mutable waiting_writers : int;
}

let create () =
  {
    mutex = Mutex.create ();
    ok_read = Condition.create ();
    ok_write = Condition.create ();
    readers = 0;
    writing = false;
    waiting_writers = 0;
  }

let leave_read t =
  Mutex.lock t.mutex;
  t.readers <- t.readers - 1;
  if t.readers = 0 then Condition.broadcast t.ok_write;
  Mutex.unlock t.mutex

(* Readers run per request, so unlike [write] (once per epoch) the
   release needs no [Fun.protect] closures: a read of a hot lock
   allocates nothing of its own. *)
let read t f =
  Mutex.lock t.mutex;
  while t.writing || t.waiting_writers > 0 do
    Condition.wait t.ok_read t.mutex
  done;
  t.readers <- t.readers + 1;
  Mutex.unlock t.mutex;
  match f () with
  | v ->
      leave_read t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      leave_read t;
      Printexc.raise_with_backtrace e bt

let write t f =
  Mutex.lock t.mutex;
  t.waiting_writers <- t.waiting_writers + 1;
  while t.writing || t.readers > 0 do
    Condition.wait t.ok_write t.mutex
  done;
  t.waiting_writers <- t.waiting_writers - 1;
  t.writing <- true;
  Mutex.unlock t.mutex;
  let finally () =
    Mutex.lock t.mutex;
    t.writing <- false;
    Condition.broadcast t.ok_write;
    Condition.broadcast t.ok_read;
    Mutex.unlock t.mutex
  in
  Fun.protect ~finally f
