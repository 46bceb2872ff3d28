(* The closed-loop load generator shared by serve-ryw and
   cluster-mixed: one domain per client, each sending its next
   pre-generated operation only after the previous one completed.

   Noise hygiene: every input is generated before the clock starts;
   clients start together and stop at a deadline checked between
   operations (no worker is ever paused on a timer inside the window);
   the window runs from the first op to the last client's finish. *)

let now = Clock.now

(* One client's samples in one phase. *)
type stats = {
  writes : float array;  (** write latencies, seconds *)
  write_at : float array;  (** each write's completion time *)
  mutable n_writes : int;
  reads : float array;
  read_at : float array;
  mutable n_reads : int;
  mutable updates : int;  (** updates acknowledged *)
  finished : float array;  (** completion time of each op *)
  finished_updates : int array;  (** updates acknowledged by each op *)
  finished_requests : int array;  (** requests (writes + reads) each op made *)
  mutable n_ops : int;
  mutable failed : int;
  mutable error : string option;
  mutable t_first : float;
  mutable t_last : float;
}

let stats capacity =
  {
    writes = Array.make capacity 0.;
    write_at = Array.make capacity 0.;
    n_writes = 0;
    reads = Array.make capacity 0.;
    read_at = Array.make capacity 0.;
    n_reads = 0;
    updates = 0;
    finished = Array.make capacity 0.;
    finished_updates = Array.make capacity 0;
    finished_requests = Array.make capacity 0;
    n_ops = 0;
    failed = 0;
    error = None;
    t_first = infinity;
    t_last = 0.;
  }

let add_write s dt ups =
  s.writes.(s.n_writes) <- dt;
  s.write_at.(s.n_writes) <- now ();
  s.n_writes <- s.n_writes + 1;
  s.updates <- s.updates + List.length ups

let add_read s dt =
  s.reads.(s.n_reads) <- dt;
  s.read_at.(s.n_reads) <- now ();
  s.n_reads <- s.n_reads + 1

(* Run [f], inside a span when tracing, returning its result and
   duration. *)
let timed rec_ ~name ~req f =
  match rec_ with
  | Some r -> Span.record r ~name ~req f
  | None ->
      let t0 = now () in
      let x = f () in
      (x, now () -. t0)

type phase = {
  per_client : stats array;
  first : float;  (** the first op's start *)
  seconds : float;  (** first op to last client's finish *)
  gc_before : Stats.gc_mark;
  gc_after : Stats.gc_mark;
}

(* Run every client for [seconds] from [cursors] on (advanced in
   place, so a later phase continues each client's stream where this
   one stopped). [step client op stats] performs one operation. A
   failed operation stops its client. *)
let run ~(ops : Inputs.op array array) ~cursors ~seconds ~step =
  let clients = Array.length ops in
  let per_client = Array.map (fun o -> stats (Array.length o)) ops in
  let go = Atomic.make false and deadline = Atomic.make infinity in
  let domains =
    List.init clients (fun c ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            let deadline = Atomic.get deadline and s = per_client.(c) and o = ops.(c) in
            s.t_first <- now ();
            let rec loop () =
              if cursors.(c) < Array.length o && now () < deadline then
                let updates = s.updates and requests = s.n_writes + s.n_reads in
                match step c o.(cursors.(c)) s with
                | Ok () ->
                    s.finished.(s.n_ops) <- now ();
                    s.finished_updates.(s.n_ops) <- s.updates - updates;
                    s.finished_requests.(s.n_ops) <- s.n_writes + s.n_reads - requests;
                    s.n_ops <- s.n_ops + 1;
                    cursors.(c) <- cursors.(c) + 1;
                    loop ()
                | Error m ->
                    s.failed <- s.failed + 1;
                    s.error <- Some m
            in
            (try loop ()
             with e ->
               s.failed <- s.failed + 1;
               s.error <- Some (Printexc.to_string e));
            s.t_last <- now ()))
  in
  let gc_before = Stats.gc_mark_start () in
  Atomic.set deadline (now () +. seconds);
  Atomic.set go true;
  List.iter Domain.join domains;
  let gc_after = Stats.gc_mark_end () in
  let first = Array.fold_left (fun acc s -> Float.min acc s.t_first) infinity per_client in
  let last = Array.fold_left (fun acc s -> Float.max acc s.t_last) 0. per_client in
  Array.iteri
    (fun c s ->
      Option.iter (Printf.printf "client %d FAILED: %s\n" c) s.error;
      if cursors.(c) >= Array.length ops.(c) then
        Printf.printf "client %d ran out of pre-generated ops before the deadline\n" c)
    per_client;
  { per_client; first; seconds = last -. first; gc_before; gc_after }

(* Several phases as one: samples pooled, times and collector deltas
   summed. *)
let combine phases =
  let delta f = List.fold_left (fun acc p -> acc + f p.gc_after - f p.gc_before) 0 phases in
  {
    per_client = Array.concat (List.map (fun p -> p.per_client) phases);
    first = List.fold_left (fun acc p -> Float.min acc p.first) infinity phases;
    seconds = List.fold_left (fun acc p -> acc +. p.seconds) 0. phases;
    gc_before = { Stats.words = 0.; minors = 0; majors = 0 };
    gc_after =
      {
        Stats.words =
          List.fold_left
            (fun acc p -> acc +. p.gc_after.Stats.words -. p.gc_before.Stats.words)
            0. phases;
        minors = delta (fun g -> g.Stats.minors);
        majors = delta (fun g -> g.Stats.majors);
      };
  }

(* Warm-up before a measured phase: caches fill and the collector
   settles after set-up. Its samples are discarded; its updates stay
   acknowledged (the cursors advance). *)
let warmup_seconds = 1.0

(* The traced run alternates untraced and traced quarters on one
   system, so drift over the run does not read as tracing overhead. *)
let alternate ~seconds ~run_untraced ~run_traced =
  let q = seconds /. 4. in
  let u1 = run_untraced q in
  let t1 = run_traced q in
  let u2 = run_untraced q in
  let t2 = run_traced q in
  (combine [ u1; u2 ], combine [ t1; t2 ])

let sum f p = Array.fold_left (fun acc s -> acc + f s) 0 p.per_client
let writes p = sum (fun s -> s.n_writes) p
let reads p = sum (fun s -> s.n_reads) p
let ops p = writes p + reads p
let failed p = sum (fun s -> s.failed) p
let updates p = sum (fun s -> s.updates) p
let ops_s p = float_of_int (ops p) /. p.seconds

let pooled sel p =
  Array.concat
    (Array.to_list
       (Array.map
          (fun s ->
            let a, n = sel s in
            Array.sub a 0 n)
          p.per_client))

let write_samples = pooled (fun s -> (s.writes, s.n_writes))
let read_samples = pooled (fun s -> (s.reads, s.n_reads))

(* The updates every client had acknowledged, for the output check. *)
let sent (ops : Inputs.op array array) cursors =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun c o -> List.concat_map (fun (op : Inputs.op) -> op.Inputs.ups) (Array.to_list (Array.sub o 0 cursors.(c))))
          ops))

(* Throughput as the median over about one-second chunks of the
   phase: the completions, in time order, cut into [windows p] chunks
   of equal op count, each rated by what it completed over the time it
   took. One stall (a collection, a slow fsync, a descheduled domain)
   moves one chunk, not the figure. [weight] is what one op counts. *)
let windows p = max 1 (int_of_float p.seconds)

let windowed_rate p ~weight =
  let events =
    Array.concat
      (Array.to_list
         (Array.map
            (fun s -> Array.init s.n_ops (fun i -> (s.finished.(i), weight s i)))
            p.per_client))
  in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) events;
  let n = Array.length events and chunks = windows p in
  if n < chunks then 0.
  else begin
    let per = n / chunks in
    Stats.median
      (Array.init chunks (fun c ->
           let lo = c * per and hi = ((c + 1) * per) - 1 in
           let start = if c = 0 then p.first else fst events.(lo - 1) in
           let work = ref 0 in
           for i = lo to hi do
             work := !work + snd events.(i)
           done;
           float_of_int !work /. (fst events.(hi) -. start)))
  end

(* A latency quantile the same way: the quantile within each whole
   one-second window (of the samples completed in it), then the median
   over windows. *)
let windowed_quantile p sel q =
  let windows = windows p in
  let buckets = Array.make windows [] in
  Array.iter
    (fun s ->
      let lat, at, n = sel s in
      for i = 0 to n - 1 do
        let w = int_of_float (at.(i) -. p.first) in
        if w >= 0 && w < windows then buckets.(w) <- lat.(i) :: buckets.(w)
      done)
    p.per_client;
  Stats.median (Array.map (fun b -> Stats.quantile (Array.of_list b) q) buckets)

let write_sel s = (s.writes, s.write_at, s.n_writes)
let read_sel s = (s.reads, s.read_at, s.n_reads)

(* The end-to-end metrics of one untraced phase. *)
let e2e ~setup_s ~live_mb p =
  let ms sel q = windowed_quantile p sel q *. 1e3 in
  Printf.printf "samples: %d writes, %d reads in %.3f s (%d one-second windows)\n" (writes p)
    (reads p) p.seconds (windows p);
  [
    Stats.m "setup_s" "s" setup_s;
    Stats.m "updates_s" "1/s" (windowed_rate p ~weight:(fun s i -> s.finished_updates.(i)));
    Stats.m "ops_s" "1/s" (windowed_rate p ~weight:(fun s i -> s.finished_requests.(i)));
    Stats.m "write_p50_ms" "ms" (ms write_sel 0.5);
    Stats.m "write_p99_ms" "ms" (ms write_sel 0.99);
    Stats.m "read_p50_ms" "ms" (ms read_sel 0.5);
    Stats.m "read_p99_ms" "ms" (ms read_sel 0.99);
    Stats.m "alloc_words_per_op" "words"
      (Stats.words_per_op ~before:p.gc_before ~after:p.gc_after ~ops:(ops p));
    Stats.m "live_mb" "MB" live_mb;
  ]

let overhead_pct ~untraced ~traced = (ops_s untraced /. ops_s traced -. 1.) *. 100.

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* The untraced run of a closed-loop workload: set up [setups] times
   (the last system serves the run), warm up, measure for [seconds],
   run the output checks, and weigh the system's live memory while it
   is still reachable. *)
let measure ~setups ~seconds ~start ~stop ~setup_s ~run ~check =
  let times = ref [] and current = ref None in
  for _ = 1 to setups do
    Option.iter stop !current;
    let sys = start () in
    times := setup_s sys :: !times;
    current := Some sys
  done;
  let sys = Option.get !current in
  let warm = run sys warmup_seconds in
  let p = run sys (float_of_int seconds) in
  let correct = check sys in
  let live_with = Stats.live_bytes () in
  stop sys;
  current := None;
  let live_mb = (live_with -. Stats.live_bytes ()) /. 1e6 in
  let both = combine [ warm; p ] in
  {
    Outcome.attempted = ops both + failed both;
    failed = failed both;
    correct;
    metrics = e2e ~setup_s:(Stats.median_list !times) ~live_mb p;
  }
