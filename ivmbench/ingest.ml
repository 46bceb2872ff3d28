(* ingest: a write-only catch-up batch job. The queue is filled with a
   pre-generated drifting-Zipf stream over a large key domain; the
   benchmark's own domain then drives the scheduler with the WAL on
   (fsync per epoch) and a fixed 1024-update epoch, so queue, WAL,
   coalescing, registry apply and the engines are all the work there
   is: no network, no snapshots, no other domain.

   The work is fixed (one stream per pass, a pass per two requested
   seconds, at least 3), not timed: with a fixed epoch every count —
   epochs, coalesced updates, WAL bytes, words allocated per update —
   repeats exactly for a seed, and each pass checks that it does. *)

module St = Ivm_stream
module Mx = Ivm_workload.Mixed

let epoch = 1024

(* The work is fixed per pass; longer runs make more passes. *)
let pass_updates = 400_000
let seconds_per_pass = 2
let read_rounds = 60

let shape =
  { Inputs.keys = 4096; accounts = 1024; workers = 1; init_steps = 2500; drift_period = 50_000 }

let now = Clock.now
let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ St.Errors.to_string e)

type system = {
  reg : St.Registry.t;
  metrics : St.Metrics.t;
  wal : St.Wal.Z.t;
  queue : St.Scheduler.item St.Queue.t;
  sched : St.Scheduler.t;
  setup_s : float;
}

(* Set-up: bulk-load the initial database, build all 100 views over it
   (the paper's preprocessing), open a fresh WAL. *)
let setup (inputs : Inputs.t) ~wal_path ~capacity =
  if Sys.file_exists wal_path then Sys.remove wal_path;
  let t0 = now () in
  let db = Inputs.load_db inputs in
  let metrics = St.Metrics.create () in
  let reg = St.Registry.create ~metrics db in
  Array.iter
    (fun (tn : Mx.tenant) -> St.Registry.register reg ~name:tn.Mx.name (Mx.factory tn))
    inputs.Inputs.tenants;
  let wal = ok_or_fail "wal open" (St.Wal.Z.open_log wal_path) in
  let queue = St.Queue.create ~capacity St.Queue.Block in
  let sched =
    St.Scheduler.create ~wal ~min_batch:epoch ~max_batch:epoch ~initial_batch:epoch ~queue
      ~registry:reg ~metrics ()
  in
  { reg; metrics; wal; queue; sched; setup_s = now () -. t0 }

let fill sys stream =
  Array.iter
    (fun u ->
      if not (St.Queue.push sys.queue (St.Scheduler.item u)) then failwith "queue refused")
    stream;
  St.Queue.close sys.queue

type counts = { epochs : int; coalesced : int; wal_bytes : int; words : float }

let same_counts a b =
  a.epochs = b.epochs && a.coalesced = b.coalesced && a.wal_bytes = b.wal_bytes
  && Float.equal a.words b.words

let pp_counts c =
  Printf.sprintf "%d epochs, %d coalesced, %d WAL bytes, %.3f words/update" c.epochs
    c.coalesced c.wal_bytes c.words

type pass = {
  seconds : float;
  counts : counts;
  epoch_s : float array;
  gc_before : Stats.gc_mark;
  gc_after : Stats.gc_mark;
  fingerprints : (string * int) list;
}

let wal_bytes sys = St.Wal.Z.offset sys.wal - St.Wal.header_len

(* The production path: [Scheduler.step] until the stream ends. *)
let run_untraced sys ~updates =
  let epoch_s = Array.make ((updates / epoch) + 2) 0. in
  let gc_before = Stats.gc_mark_start () in
  let t0 = now () in
  let rec loop i last =
    match St.Scheduler.step sys.sched with
    | Ok true ->
        let t = now () in
        epoch_s.(i) <- t -. last;
        loop (i + 1) t
    | Ok false -> (i, last)
    | Error e -> failwith ("ingest epoch: " ^ St.Errors.to_string e)
  in
  let epochs, t1 = loop 0 t0 in
  let gc_after = Stats.gc_mark_end () in
  let m = sys.metrics in
  {
    seconds = t1 -. t0;
    counts =
      {
        epochs = m.St.Metrics.epochs;
        coalesced = m.St.Metrics.coalesced;
        wal_bytes = wal_bytes sys;
        words = (gc_after.Stats.words -. gc_before.Stats.words) /. float_of_int updates;
      };
    epoch_s = Array.sub epoch_s 0 epochs;
    gc_before;
    gc_after;
    fingerprints = St.Registry.fingerprints sys.reg;
  }

(* The traced path: each epoch through the public stage functions, in
   the scheduler's order, with a span around every call. *)
let run_traced sys ~rec_ =
  let gc_before = Stats.gc_mark_start () in
  let t0 = now () in
  let epochs = ref 0 and coalesced = ref 0 and touched = ref 0 in
  let exhausted () = St.Queue.is_closed sys.queue && St.Queue.length sys.queue = 0 in
  while not (exhausted ()) do
    let e = Span.open_ rec_ ~name:"epoch" in
    let items, _ =
      Span.record rec_ ~name:"queue.pop" ~parent:e (fun () ->
          St.Queue.pop_batch sys.queue ~max:epoch)
    in
    let (_ : int), _ =
      Span.record rec_ ~name:"wal.append" ~parent:e (fun () ->
          ok_or_fail "wal append"
            (St.Wal.Z.append_batch sys.wal
               (List.map (fun (i : St.Scheduler.item) -> i.St.Scheduler.update) items)))
    in
    let (), _ =
      Span.record rec_ ~name:"wal.sync" ~parent:e (fun () ->
          ok_or_fail "wal sync" (St.Wal.Z.sync sys.wal))
    in
    let front, _ =
      Span.record rec_ ~name:"scheduler.coalesce" ~parent:e (fun () ->
          St.Scheduler.coalesce_front sys.sched items)
    in
    let (), _ =
      Span.record rec_ ~name:"registry.apply" ~parent:e (fun () ->
          St.Registry.apply_front sys.reg front)
    in
    Span.close rec_ e;
    incr epochs;
    coalesced := !coalesced + List.fold_left (fun n (_, ups) -> n + List.length ups) 0 front;
    touched := !touched + Layers.touched front
  done;
  let t1 = now () in
  let gc_after = Stats.gc_mark_end () in
  ( {
      seconds = t1 -. t0;
      counts =
        { epochs = !epochs; coalesced = !coalesced; wal_bytes = wal_bytes sys; words = 0. };
      epoch_s = [||];
      gc_before;
      gc_after;
      fingerprints = St.Registry.fingerprints sys.reg;
    },
    !touched )

(* Reads on ingest: one full enumeration of a join tenant's view tree
   under the registry's read lock — the paper's enumeration after the
   batch. Join views only, so the samples are alike: a median over all
   kinds would fall between the scalar views and the large ones. *)
let enumerate_joins sys (inputs : Inputs.t) =
  List.filter_map
    (fun (tn : Mx.tenant) ->
      if tn.Mx.kind <> Mx.Join then None
      else begin
        let t0 = now () in
        ignore
          (Sys.opaque_identity
             (St.Registry.read sys.reg (fun () ->
                  (St.Registry.find sys.reg tn.Mx.name).Ivm_engine.Maintainable.enumerate ())));
        Some (now () -. t0)
      end)
    (Array.to_list inputs.Inputs.tenants)

let close sys = St.Wal.Z.close sys.wal

let run ~seed ~seconds ~trace ~state_dir ~spans_path =
  let passes = max 3 (seconds / seconds_per_pass) in
  let inputs = Inputs.create shape ~seed in
  (* The WAL's CRC table is built on first use; build it now, so the
     first pass allocates exactly what the later ones do. *)
  ignore (Ivm_data.Codec.crc32 "" ~pos:0 ~len:0);
  let stream = Inputs.stream inputs ~updates:pass_updates in
  let n = Array.length stream in
  let sent = Array.to_list stream in
  Printf.printf "ingest: %d views, %d initial rows, %d keys, %d updates per pass, epoch %d\n%!"
    Inputs.views (List.length inputs.Inputs.rows) shape.Inputs.keys n epoch;
  let wal_path = Filename.concat state_dir "ingest.wal" in
  let fresh () =
    let sys = setup inputs ~wal_path ~capacity:(n + 1) in
    fill sys stream;
    sys
  in
  let check sys =
    let o =
      Check.run inputs ~sent ~read:(fun name ->
          Ok
            (St.Registry.read sys.reg (fun () ->
                 (St.Registry.find sys.reg name).Ivm_engine.Maintainable.enumerate ())))
    in
    Check.report o;
    o
  in
  if not trace then begin
    (* Only the newest pass's system stays reachable, so [live_mb] is
       the state of one registry, not of every pass. *)
    let current = ref None in
    let release () =
      Option.iter close !current;
      current := None
    in
    let results =
      List.init passes (fun i ->
          release ();
          let sys = fresh () in
          let p = run_untraced sys ~updates:n in
          Printf.printf "pass %d: setup %.3f s, %.0f upd/s, %s\n%!" i sys.setup_s
            (float_of_int n /. p.seconds) (pp_counts p.counts);
          (* One unmeasured round first: the stream leaves the views
             out of cache. *)
          ignore (enumerate_joins sys inputs);
          let reads =
            Array.of_list
              (List.concat (List.init read_rounds (fun _ -> enumerate_joins sys inputs)))
          in
          current := Some sys;
          (p, sys.setup_s, reads))
    in
    let first, _, _ = List.hd results in
    let repeat_errors =
      List.filter_map
        (fun (p, _, _) ->
          if same_counts p.counts first.counts && p.fingerprints = first.fingerprints then
            None
          else
            Some
              (Printf.sprintf "pass counts differ: %s vs %s" (pp_counts p.counts)
                 (pp_counts first.counts)))
        results
    in
    List.iter (Printf.printf "self-test FAILED: %s\n") repeat_errors;
    if repeat_errors = [] then
      Printf.printf "self-test: %d passes repeated every count and fingerprint exactly\n"
        passes;
    let o = check (Option.get !current) in
    let live_with = Stats.live_bytes () in
    release ();
    let live_mb = (live_with -. Stats.live_bytes ()) /. 1e6 in
    let upd_s = List.map (fun (p, _, _) -> float_of_int n /. p.seconds) results in
    (* Quantiles per pass, then the median pass: a pass that met a slow
       stretch of the host moves one value, not the pooled tail. *)
    let per_pass sel q =
      Stats.median_list
        (List.map (fun r -> Stats.quantile (Array.copy (sel r)) q *. 1e3) results)
    in
    let epochs (p, _, _) = p.epoch_s and reads (_, _, r) = r in
    Printf.printf "samples: %d epoch writes and %d join-view reads in each of %d passes\n"
      (Array.length first.epoch_s) (Array.length (reads (List.hd results))) passes;
    let rate = Stats.median_list upd_s in
    {
      Outcome.attempted = n * passes;
      failed = 0;
      correct = Check.ok o && repeat_errors = [];
      metrics =
        [
          Stats.m "setup_s" "s" (Stats.median_list (List.map (fun (_, s, _) -> s) results));
          Stats.m "updates_s" "1/s" rate;
          Stats.m "ops_s" "1/s" rate;
          Stats.m "write_p50_ms" "ms" (per_pass epochs 0.5);
          Stats.m "write_p99_ms" "ms" (per_pass epochs 0.99);
          Stats.m "read_p50_ms" "ms" (per_pass reads 0.5);
          Stats.m "read_p99_ms" "ms" (per_pass reads 0.99);
          Stats.m "alloc_words_per_op" "words" first.counts.words;
          Stats.m "live_mb" "MB" live_mb;
        ];
    }
  end
  else begin
    (* Untraced and traced passes alternate (U T U T), so drift over
       the run does not read as tracing overhead. Equal counts and
       fingerprints prove the traced passes did the untraced work. *)
    let untraced () =
      let sys = fresh () in
      let p = run_untraced sys ~updates:n in
      close sys;
      p
    in
    let traced () =
      let sys = fresh () in
      let rec_ = Span.create ~domain:0 ~capacity:((6 * ((n / epoch) + 2)) + 16) in
      let p, touched = run_traced sys ~rec_ in
      (sys, rec_, p, touched)
    in
    let ref_pass = untraced () in
    let sys1, _, traced1, _ = traced () in
    close sys1;
    let untraced2 = untraced () in
    let sys, rec_, traced, touched = traced () in
    Span.write ~path:spans_path [ rec_ ];
    let overhead =
      ((traced1.seconds +. traced.seconds) /. (ref_pass.seconds +. untraced2.seconds) -. 1.)
      *. 100.
    in
    let same p =
      p.fingerprints = ref_pass.fingerprints
      && p.counts.epochs = ref_pass.counts.epochs
      && p.counts.coalesced = ref_pass.counts.coalesced
      && p.counts.wal_bytes = ref_pass.counts.wal_bytes
    in
    let self_errors =
      if List.for_all same [ traced1; untraced2; traced ] then []
      else [ "a traced pass reached different fingerprints or counts than the untraced one" ]
    in
    List.iter (Printf.printf "self-test FAILED: %s\n") self_errors;
    if self_errors = [] then
      print_endline "self-test: traced run reached the untraced run's fingerprints and counts";
    let o = check sys in
    close sys;
    let fn = float_of_int n and epochs = traced.counts.epochs in
    let per_update name = Layers.safe_div (Span.total rec_ ~name *. 1e6) fn in
    let words_per_update name = Layers.safe_div (Span.total_words rec_ ~name) fn in
    let metrics =
      [
        Stats.m "queue.pop_us_per_update" "us" (per_update "queue.pop");
        Stats.m "scheduler.coalesce_us_per_update" "us" (per_update "scheduler.coalesce");
        Stats.m "scheduler.coalesce_words_per_update" "words" (words_per_update "scheduler.coalesce");
        Stats.m "scheduler.coalesced_ratio" "ratio" (float_of_int traced.counts.coalesced /. fn);
        Stats.m "wal.append_us_per_update" "us" (per_update "wal.append");
        Stats.m "wal.append_words_per_update" "words" (words_per_update "wal.append");
        Stats.m "wal.sync_ms_per_epoch" "ms"
          (Layers.safe_div (Span.total rec_ ~name:"wal.sync" *. 1e3) (float_of_int epochs));
        Stats.m "wal.bytes_per_update" "B" (float_of_int traced.counts.wal_bytes /. fn);
        Stats.m "registry.apply_us_per_update" "us" (per_update "registry.apply");
        Stats.m "registry.apply_words_per_update" "words" (words_per_update "registry.apply");
        Stats.m "registry.touched_ratio" "ratio"
          (Layers.safe_div (float_of_int touched)
             (float_of_int (epochs * St.Registry.view_count sys.reg)));
        Stats.m "scheduler.epoch_us_p50" "us"
          (Stats.quantile (Span.durations rec_ ~name:"epoch") 0.5 *. 1e6);
        Stats.m "scheduler.updates_per_epoch" "count" (Layers.safe_div fn (float_of_int epochs));
        Stats.m "trace.overhead_pct" "%" overhead;
      ]
      @ Layers.engines inputs.Inputs.tenants [ sys.metrics ] ~epochs
      @ Stats.gc_metrics ~before:traced.gc_before ~after:traced.gc_after ~ops:n
    in
    Printf.printf "traced: %.0f upd/s untraced, %.0f upd/s traced; %d spans -> %s\n"
      (2. *. fn /. (ref_pass.seconds +. untraced2.seconds))
      (2. *. fn /. (traced1.seconds +. traced.seconds))
      rec_.Span.n spans_path;
    {
      Outcome.attempted = 4 * n;
      failed = 0;
      correct = Check.ok o && self_errors = [];
      metrics = Layers.complete metrics;
    }
  end
