(* serve-ryw: an in-memory single server on loopback. Each of 2
   read-your-writes sessions writes one tenant and immediately reads
   that tenant back through the epoch-token gate, so every read waits
   for the scheduler to wake, apply a 1-2 update epoch over all 100
   views, and re-materialize the view's snapshot; then two round
   trips. No WAL. *)

module D = Ivm_data
module St = Ivm_stream
module N = Ivm_net
module Mx = Ivm_workload.Mixed

let shape =
  { Inputs.keys = 64; accounts = 64; workers = 2; init_steps = 1200; drift_period = 500 }

let setups = 3

(* Two clients, two connection handlers: the smallest count that never
   queues a client behind the other. *)
let handlers = 2
let ops_per_second = 3_000
let now = Clock.now
let wire = N.Wire.error_to_string

(* The traced maintenance loop: the scheduler's stages through their
   public functions, with spans when [tracing] is on. *)
type loop_state = {
  rec_ : Span.t;
  tracing : bool Atomic.t;
  applied : int Atomic.t;
  mutable epochs : int;
  mutable all_epochs : int;  (** traced or not: the denominator of per-view apply sums *)
  mutable updates : int;
  mutable coalesced : int;
  mutable touched : int;
  freshness : float array;
  mutable n_fresh : int;
}

type server = {
  reg : St.Registry.t;
  metrics : St.Metrics.t;
  queue : St.Scheduler.item St.Queue.t;
  srv : N.Server.t;
  runner : unit Domain.t;
  fence : unit -> unit;  (** wait until every admitted update is applied *)
  sessions : N.Client.Session.t array;
  setup_s : float;
}

let stage_loop ls ~queue ~sched ~reg =
  let rec loop () =
    let traced = Atomic.get ls.tracing in
    let items, _ =
      if traced then
        Span.record ls.rec_ ~name:"queue.wait" (fun () -> St.Queue.pop_batch queue ~max:65_536)
      else (St.Queue.pop_batch queue ~max:65_536, 0.)
    in
    match items with
    | [] -> ()
    | items ->
        let n = List.length items in
        (if not traced then
           St.Registry.apply_front reg (St.Scheduler.coalesce_front sched items)
         else begin
           let e = Span.open_ ls.rec_ ~name:"epoch" in
           let front, _ =
             Span.record ls.rec_ ~name:"scheduler.coalesce" ~parent:e (fun () ->
                 St.Scheduler.coalesce_front sched items)
           in
           let (), _ =
             Span.record ls.rec_ ~name:"registry.apply" ~parent:e (fun () ->
                 St.Registry.apply_front reg front)
           in
           Span.close ls.rec_ e;
           (* Items are stamped with the wall clock. *)
           let t = Unix.gettimeofday () in
           List.iter
             (fun (i : St.Scheduler.item) ->
               if ls.n_fresh < Array.length ls.freshness then begin
                 ls.freshness.(ls.n_fresh) <- t -. i.St.Scheduler.enqueued_at;
                 ls.n_fresh <- ls.n_fresh + 1
               end)
             items;
           ls.epochs <- ls.epochs + 1;
           ls.updates <- ls.updates + n;
           ls.coalesced <- ls.coalesced + List.fold_left (fun k (_, u) -> k + List.length u) 0 front;
           ls.touched <- ls.touched + Layers.touched front
         end);
        ls.all_epochs <- ls.all_epochs + 1;
        ignore (Atomic.fetch_and_add ls.applied n);
        loop ()
  in
  loop ()

(* Set-up: bulk-load, build the 100 views, start the maintenance loop
   and the server, connect both sessions. [loop] selects the production
   scheduler ([None]) or the traced stage loop. *)
let start (inputs : Inputs.t) ~loop =
  let t0 = now () in
  let db = Inputs.load_db inputs in
  let metrics = St.Metrics.create () in
  let reg = St.Registry.create ~metrics db in
  Array.iter
    (fun (tn : Mx.tenant) -> St.Registry.register reg ~name:tn.Mx.name (Mx.factory tn))
    inputs.Inputs.tenants;
  let queue = St.Queue.create ~capacity:65_536 St.Queue.Block in
  let runner, served, fence =
    match loop with
    | None ->
        let sched = St.Scheduler.create ~queue ~registry:reg ~metrics () in
        ( Domain.spawn (fun () -> ignore (St.Scheduler.run sched)),
          (fun () -> St.Scheduler.applied sched),
          fun () -> ignore (St.Scheduler.barrier sched) )
    | Some ls ->
        let sched = St.Scheduler.create ~queue ~registry:reg ~metrics () in
        ( Domain.spawn (fun () -> stage_loop ls ~queue ~sched ~reg),
          (fun () -> Atomic.get ls.applied),
          fun () ->
            while Atomic.get ls.applied < St.Queue.pushed queue do
              Unix.sleepf 0.001
            done )
  in
  let ingest ups =
    List.fold_left
      (fun (a, d) u ->
        if St.Queue.push queue (St.Scheduler.item u) then (a + 1, d) else (a, d + 1))
      (0, 0) ups
  in
  let ingest_rw ups =
    let admitted, dropped = ingest ups in
    (admitted, dropped, St.Queue.pushed queue)
  in
  let srv =
    match
      N.Server.start ~port:0 ~handlers ~ingest ~ingest_rw ~served ~registry:reg ~metrics ()
    with
    | Ok srv -> srv
    | Error e -> failwith ("server start: " ^ wire e)
  in
  let sessions =
    Array.init shape.Inputs.workers (fun _ ->
        match N.Client.connect ~port:(N.Server.port srv) ~timeout:30. () with
        | Ok c -> N.Client.Session.create c
        | Error e -> failwith ("connect: " ^ wire e))
  in
  { reg; metrics; queue; srv; runner; fence; sessions; setup_s = now () -. t0 }

let close_sessions s = Array.iter (fun se -> N.Client.close (N.Client.Session.client se)) s.sessions

let stop s =
  close_sessions s;
  St.Queue.close s.queue;
  Domain.join s.runner;
  N.Server.stop ~grace:0. s.srv

(* One op: write the tenant through the session, then read it back
   through the read-your-writes gate. *)
let step (inputs : Inputs.t) s ~rec_of c (op : Inputs.op) (st : Closed_loop.stats) =
  let session = s.sessions.(c) and rec_ = rec_of c in
  let req = st.Closed_loop.n_writes in
  let w, dt =
    Closed_loop.timed rec_ ~name:"client.write" ~req (fun () ->
        N.Client.Session.write session op.Inputs.ups)
  in
  match w with
  | Error e -> Error ("write: " ^ wire e)
  | Ok (admitted, dropped) when dropped > 0 || admitted <> List.length op.Inputs.ups ->
      Error (Printf.sprintf "write: %d admitted, %d dropped" admitted dropped)
  | Ok _ -> (
      Closed_loop.add_write st dt op.Inputs.ups;
      let r, dt =
        Closed_loop.timed rec_ ~name:"client.read" ~req (fun () ->
            N.Client.Session.read session
              ~view:(Inputs.tenant_name inputs op.Inputs.tenant)
              ~prefix:D.Tuple.unit)
      in
      match r with
      | Error e -> Error ("read: " ^ wire e)
      | Ok _ ->
          Closed_loop.add_read st dt;
          Ok ())

let check (inputs : Inputs.t) s ~sent =
  s.fence ();
  close_sessions s;
  let admin =
    match N.Client.connect ~port:(N.Server.port s.srv) ~timeout:30. () with
    | Ok c -> c
    | Error e -> failwith ("admin connect: " ^ wire e)
  in
  let o =
    Check.run inputs ~sent ~read:(fun view ->
        Result.map_error wire (N.Client.snapshot admin ~view))
  in
  N.Client.close admin;
  Check.report o;
  o

let run ~seed ~seconds ~trace ~state_dir:_ ~spans_path =
  let inputs = Inputs.create shape ~seed in
  let count = ops_per_second * seconds in
  let ops =
    Array.init shape.Inputs.workers (fun worker ->
        Inputs.ops inputs ~worker ~count ~write_pct:100)
  in
  Printf.printf "serve-ryw: %d views, %d initial rows, %d keys, %d sessions, %d handlers\n%!"
    Inputs.views (List.length inputs.Inputs.rows) shape.Inputs.keys shape.Inputs.workers
    handlers;
  let cursors = Array.make shape.Inputs.workers 0 in
  let sent () = Closed_loop.sent ops cursors in
  if not trace then
    Closed_loop.measure ~setups ~seconds
      ~start:(fun () -> start inputs ~loop:None)
      ~stop
      ~setup_s:(fun s -> s.setup_s)
      ~run:(fun s seconds ->
        Closed_loop.run ~ops ~cursors ~seconds ~step:(step inputs s ~rec_of:(fun _ -> None)))
      ~check:(fun s -> Check.ok (check inputs s ~sent:(sent ())))
  else begin
    let ls =
      {
        rec_ = Span.create ~domain:0 ~capacity:(4 * count);
        tracing = Atomic.make false;
        applied = Atomic.make 0;
        epochs = 0;
        all_epochs = 0;
        updates = 0;
        coalesced = 0;
        touched = 0;
        freshness = Array.make (4 * count) 0.;
        n_fresh = 0;
      }
    in
    let recs =
      Array.init shape.Inputs.workers (fun c -> Span.create ~domain:(c + 1) ~capacity:(2 * count))
    in
    let s = start inputs ~loop:(Some ls) in
    let run ~traced seconds =
      Atomic.set ls.tracing traced;
      Closed_loop.run ~ops ~cursors ~seconds
        ~step:(step inputs s ~rec_of:(fun c -> if traced then Some recs.(c) else None))
    in
    let warm = run ~traced:false Closed_loop.warmup_seconds in
    let untraced, traced =
      Closed_loop.alternate ~seconds:(float_of_int seconds)
        ~run_untraced:(run ~traced:false) ~run_traced:(run ~traced:true)
    in
    Atomic.set ls.tracing false;
    let o = check inputs s ~sent:(sent ()) in
    Span.write ~path:spans_path (ls.rec_ :: Array.to_list recs);
    let us h q = St.Metrics.Hist.percentile h q *. 1e6 in
    let ingest_rw = St.Metrics.op s.metrics "ingest_rw"
    and lookup_at = St.Metrics.op s.metrics "lookup_at" in
    (* Client round trip minus server service, as means over every
       phase (the server histograms cover them all; their bucketed
       percentiles are only good to ~12 %). *)
    let all = Closed_loop.combine [ warm; untraced; traced ] in
    let client_us samples = Closed_loop.mean samples *. 1e6 in
    let server_us h = St.Metrics.Hist.mean h *. 1e6 in
    let fu = float_of_int ls.updates in
    let per_update name = Layers.safe_div (Span.total ls.rec_ ~name *. 1e6) fu in
    let words_per_update name = Layers.safe_div (Span.total_words ls.rec_ ~name) fu in
    let metrics =
      [
        Stats.m "scheduler.coalesce_us_per_update" "us" (per_update "scheduler.coalesce");
        Stats.m "scheduler.coalesce_words_per_update" "words" (words_per_update "scheduler.coalesce");
        Stats.m "scheduler.coalesced_ratio" "ratio" (Layers.safe_div (float_of_int ls.coalesced) fu);
        Stats.m "registry.apply_us_per_update" "us" (per_update "registry.apply");
        Stats.m "registry.apply_words_per_update" "words" (words_per_update "registry.apply");
        Stats.m "registry.touched_ratio" "ratio"
          (Layers.safe_div (float_of_int ls.touched)
             (float_of_int (ls.epochs * St.Registry.view_count s.reg)));
        Stats.m "scheduler.epoch_us_p50" "us"
          (Stats.quantile (Span.durations ls.rec_ ~name:"epoch") 0.5 *. 1e6);
        Stats.m "scheduler.updates_per_epoch" "count"
          (Layers.safe_div fu (float_of_int ls.epochs));
        Stats.m "scheduler.freshness_ms_p50" "ms"
          (Stats.quantile (Array.sub ls.freshness 0 ls.n_fresh) 0.5 *. 1e3);
        Stats.m "server.ingest_rw_us_p50" "us" (us ingest_rw 0.5);
        Stats.m "server.lookup_at_us_p50" "us" (us lookup_at 0.5);
        Stats.m "server.lookup_at_us_p99" "us" (us lookup_at 0.99);
        Stats.m "net.write_overhead_us" "us"
          (client_us (Closed_loop.write_samples all) -. server_us ingest_rw);
        Stats.m "net.read_overhead_us" "us"
          (client_us (Closed_loop.read_samples all) -. server_us lookup_at);
        Stats.m "trace.overhead_pct" "%" (Closed_loop.overhead_pct ~untraced ~traced);
      ]
      @ Layers.engines inputs.Inputs.tenants [ s.metrics ] ~epochs:ls.all_epochs
      @ Stats.gc_metrics ~before:traced.Closed_loop.gc_before ~after:traced.Closed_loop.gc_after
          ~ops:(Closed_loop.ops traced)
    in
    Printf.printf "traced: %.0f ops/s untraced, %.0f ops/s traced; spans -> %s\n"
      (Closed_loop.ops_s untraced) (Closed_loop.ops_s traced) spans_path;
    stop s;
    let failed = Closed_loop.failed all in
    {
      Outcome.attempted = Closed_loop.ops all + failed;
      failed;
      correct = Check.ok o;
      metrics = Layers.complete metrics;
    }
  end
