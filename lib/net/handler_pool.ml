(* Long-lived work (a connection is served until it parks or its peer
   hangs up) is only ever submitted, never awaited, so the pool needs no
   barrier and no result plumbing. Submitted items wait in a growable
   ring, so a submission allocates nothing once the ring has grown to
   the largest backlog. *)

type 'a t = {
  run : 'a -> unit;
  mutex : Mutex.t;
  has_work : Condition.t;
  mutable ring : 'a array;
  mutable head : int;
  mutable len : int;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

(* Under [mutex]. The first push sizes the ring, filling it with the
   item itself: no dummy value of ['a] is needed. *)
let push t x =
  let cap = Array.length t.ring in
  if t.len = cap then begin
    let ring = Array.make (max 8 (2 * cap)) x in
    for i = 0 to t.len - 1 do
      ring.(i) <- t.ring.((t.head + i) mod cap)
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.((t.head + t.len) mod Array.length t.ring) <- x;
  t.len <- t.len + 1

let take t =
  let x = t.ring.(t.head) in
  t.head <- (t.head + 1) mod Array.length t.ring;
  t.len <- t.len - 1;
  x

let rec worker_loop t =
  Mutex.lock t.mutex;
  while t.len = 0 && not t.stop do
    Condition.wait t.has_work t.mutex
  done;
  if t.len = 0 then Mutex.unlock t.mutex
  else begin
    let x = take t in
    Mutex.unlock t.mutex;
    (try t.run x with _ -> ());
    worker_loop t
  end

let create ~workers run =
  let t =
    {
      run;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      ring = [||];
      head = 0;
      len = 0;
      stop = false;
      workers = [||];
    }
  in
  t.workers <- Array.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t x =
  Mutex.lock t.mutex;
  push t x;
  Condition.signal t.has_work;
  Mutex.unlock t.mutex

let destroy t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers
