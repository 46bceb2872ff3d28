(** Runtime metrics: counters and log-bucketed latency histograms.

    A histogram is an array of geometrically spaced buckets from 100 ns
    to ~10⁴ s (ratio 1.25 per bucket, ≤ 12% relative quantile error),
    so recording a sample is two integer ops and no allocation — cheap
    enough to time every epoch on the hot maintenance loop. Percentiles
    (p50/p99 of enqueue→applied latency) are read off the cumulative
    bucket counts. *)

module Hist = struct
  let buckets = 128
  let floor_ns = 1e-7 (* 100 ns *)
  let ratio = 1.25
  let log_ratio = log ratio

  (* [sum]/[max] sit in a float-only record, which OCaml stores flat:
     as mutable fields of a mixed record every [add] would box them. *)
  type floats = { mutable sum : float; mutable max : float }
  type t = { counts : int array; mutable n : int; f : floats }

  let create () = { counts = Array.make buckets 0; n = 0; f = { sum = 0.; max = 0. } }

  let bucket_of dt =
    if dt <= floor_ns then 0
    else min (buckets - 1) (1 + int_of_float (log (dt /. floor_ns) /. log_ratio))
  [@@inline]

  (* The representative value of a bucket: its upper edge, so quantiles
     are conservative (never under-reported). *)
  let value_of i = if i = 0 then floor_ns else floor_ns *. (ratio ** float_of_int i)

  let add t dt =
    let b = bucket_of dt in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.f.sum <- t.f.sum +. dt;
    if dt > t.f.max then t.f.max <- dt
  [@@inline]

  (* A sample in integer nanoseconds: with [add] inlined no float
     crosses a call, so nothing is boxed. *)
  let add_ns t ns = add t (float_of_int ns *. 1e-9)

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.f.sum /. float_of_int t.n
  let max_value t = t.f.max

  (** [percentile t q] for [q] in [0,1]: the upper edge of the bucket
      holding the [q]-quantile sample, 0 when empty. *)
  let percentile t q =
    if t.n = 0 then 0.
    else begin
      let rank = int_of_float (ceil (q *. float_of_int t.n)) in
      let rank = Stdlib.max 1 (Stdlib.min t.n rank) in
      let acc = ref 0 and result = ref (value_of (buckets - 1)) in
      (try
         for i = 0 to buckets - 1 do
           acc := !acc + t.counts.(i);
           if !acc >= rank then begin
             result := value_of i;
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end

  let merge_into ~into t =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
    into.n <- into.n + t.n;
    into.f.sum <- into.f.sum +. t.f.sum;
    if t.f.max > into.f.max then into.f.max <- t.f.max

  let sum t = t.f.sum

  (** The non-empty buckets as [(upper_edge_seconds, count)], ascending —
      what a text exposition renders cumulatively. *)
  let to_buckets t =
    let out = ref [] in
    for i = buckets - 1 downto 0 do
      if t.counts.(i) > 0 then out := (value_of i, t.counts.(i)) :: !out
    done;
    !out
end

(** Per-view counters: how many updates and batches this view absorbed,
    the distribution of its batch-apply times, and the supervision
    counters (failures observed, recovery rebuilds, dead-lettered poison
    updates, updates skipped while the view was not healthy). *)
type view = {
  mutable updates : int;
  mutable batches : int;
  mutable failures : int;
  mutable rebuilds : int;
  mutable dead_letters : int;
  mutable skipped : int;
  apply : Hist.t;
}

type t = {
  latency : Hist.t; (* enqueue -> applied, per update *)
  mutable epochs : int;
  mutable ingested : int; (* updates popped off the queue *)
  mutable coalesced : int; (* updates after per-epoch coalescing *)
  views : (string, view) Hashtbl.t;
  ops : (string, Hist.t) Hashtbl.t; (* per-op-class service latency *)
  view_ops : (string, (string, Hist.t) Hashtbl.t) Hashtbl.t;
      (* view -> op -> service latency: the per-tenant series a
         multi-view server exposes so one tenant's tail is not averaged
         away in the per-process histogram. Two string-keyed levels, so
         a sample builds no [(view, op)] key. *)
  ops_mutex : Mutex.t; (* ops are recorded from concurrent handler domains *)
  (* Network snapshot-cache outcomes, counted from concurrent handler
     domains, hence atomic. *)
  cache_hits : int Atomic.t;
  cache_stale_serves : int Atomic.t;
  cache_revalidations : int Atomic.t;
  cache_patches : int Atomic.t;
  cache_rebuilds : int Atomic.t;
  cache_index_builds : int Atomic.t;
}

let create () =
  {
    latency = Hist.create ();
    epochs = 0;
    ingested = 0;
    coalesced = 0;
    views = Hashtbl.create 8;
    ops = Hashtbl.create 8;
    view_ops = Hashtbl.create 16;
    ops_mutex = Mutex.create ();
    cache_hits = Atomic.make 0;
    cache_stale_serves = Atomic.make 0;
    cache_revalidations = Atomic.make 0;
    cache_patches = Atomic.make 0;
    cache_rebuilds = Atomic.make 0;
    cache_index_builds = Atomic.make 0;
  }

let view t name =
  match Hashtbl.find_opt t.views name with
  | Some v -> v
  | None ->
      let v =
        {
          updates = 0;
          batches = 0;
          failures = 0;
          rebuilds = 0;
          dead_letters = 0;
          skipped = 0;
          apply = Hist.create ();
        }
      in
      Hashtbl.add t.views name v;
      v

let view_names t =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.views [])

(* The histogram under [key], created on first use. *)
let find_or_add tbl key make =
  match Hashtbl.find tbl key with
  | h -> h
  | exception Not_found ->
      let h = make () in
      Hashtbl.add tbl key h;
      h

let op t name =
  Mutex.lock t.ops_mutex;
  let h = find_or_add t.ops name Hist.create in
  Mutex.unlock t.ops_mutex;
  h

(* Op histograms are written from concurrent handler domains, so the
   record path takes the mutex; view/latency histograms keep their
   lock-free single-writer discipline (only the scheduler domain). *)
let record_op t name ns =
  Mutex.lock t.ops_mutex;
  Hist.add_ns (find_or_add t.ops name Hist.create) ns;
  Mutex.unlock t.ops_mutex

let view_op_table () = Hashtbl.create 4

(* Same discipline as {!record_op}: concurrent handler domains, so the
   tables and histograms live behind the ops mutex. *)
let record_view_op t ~view ~op ns =
  Mutex.lock t.ops_mutex;
  Hist.add_ns (find_or_add (find_or_add t.view_ops view view_op_table) op Hist.create) ns;
  Mutex.unlock t.ops_mutex

let view_op_series t =
  Mutex.lock t.ops_mutex;
  let keys =
    Hashtbl.fold
      (fun view ops acc -> Hashtbl.fold (fun op _ acc -> (view, op) :: acc) ops acc)
      t.view_ops []
  in
  Mutex.unlock t.ops_mutex;
  List.sort compare keys

let view_op t ~view ~op =
  Mutex.lock t.ops_mutex;
  let h = find_or_add (find_or_add t.view_ops view view_op_table) op Hist.create in
  Mutex.unlock t.ops_mutex;
  h

let op_names t =
  Mutex.lock t.ops_mutex;
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.ops [] in
  Mutex.unlock t.ops_mutex;
  List.sort compare names

(* ------------------------------------------------------------------ *)
(* Prometheus-style text exposition: counters as plain samples,
   histograms as cumulative le-buckets plus _sum and _count. Served on
   the stats wire op and dumped by `ivm_cli serve`.                    *)

(* A # TYPE header appears once per metric name, before its first
   sample, even when the metric repeats with different label sets. *)
let typed seen buf name kind =
  if not (Hashtbl.mem seen name) then begin
    Hashtbl.add seen name ();
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  end

let add_histogram seen buf name labels h =
  let label extra =
    match labels @ extra with
    | [] -> ""
    | kvs ->
        "{"
        ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) kvs)
        ^ "}"
  in
  typed seen buf name "histogram";
  let cum = ref 0 in
  List.iter
    (fun (edge, count) ->
      cum := !cum + count;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket%s %d\n" name
           (label [ ("le", Printf.sprintf "%g" edge) ])
           !cum))
    (Hist.to_buckets h);
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket%s %d\n" name (label [ ("le", "+Inf") ]) (Hist.count h));
  Buffer.add_string buf (Printf.sprintf "%s_sum%s %g\n" name (label []) (Hist.sum h));
  Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" name (label []) (Hist.count h))

let add_counter seen buf name labels v =
  let label =
    match labels with
    | [] -> ""
    | kvs ->
        "{"
        ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) kvs)
        ^ "}"
  in
  typed seen buf name "counter";
  Buffer.add_string buf (Printf.sprintf "%s%s %d\n" name label v)

let render t =
  let buf = Buffer.create 4096 in
  let seen = Hashtbl.create 16 in
  add_counter seen buf "ivm_epochs_total" [] t.epochs;
  add_counter seen buf "ivm_ingested_total" [] t.ingested;
  add_counter seen buf "ivm_coalesced_total" [] t.coalesced;
  add_histogram seen buf "ivm_update_latency_seconds" [] t.latency;
  add_counter seen buf "ivm_snapshot_cache_hits_total" [] (Atomic.get t.cache_hits);
  add_counter seen buf "ivm_snapshot_cache_stale_serves_total" []
    (Atomic.get t.cache_stale_serves);
  add_counter seen buf "ivm_snapshot_cache_revalidations_total" []
    (Atomic.get t.cache_revalidations);
  add_counter seen buf "ivm_snapshot_cache_patches_total" [] (Atomic.get t.cache_patches);
  add_counter seen buf "ivm_snapshot_cache_rebuilds_total" [] (Atomic.get t.cache_rebuilds);
  add_counter seen buf "ivm_snapshot_cache_index_builds_total" []
    (Atomic.get t.cache_index_builds);
  List.iter
    (fun name ->
      let v = view t name in
      let l = [ ("view", name) ] in
      add_counter seen buf "ivm_view_updates_total" l v.updates;
      add_counter seen buf "ivm_view_batches_total" l v.batches;
      add_counter seen buf "ivm_view_failures_total" l v.failures;
      add_counter seen buf "ivm_view_rebuilds_total" l v.rebuilds;
      add_counter seen buf "ivm_view_dead_letters_total" l v.dead_letters;
      add_counter seen buf "ivm_view_skipped_total" l v.skipped;
      add_histogram seen buf "ivm_view_apply_seconds" l v.apply)
    (view_names t);
  List.iter
    (fun name -> add_histogram seen buf "ivm_op_seconds" [ ("op", name) ] (op t name))
    (op_names t);
  List.iter
    (fun (view, opn) ->
      add_histogram seen buf "ivm_view_op_seconds"
        [ ("view", view); ("op", opn) ]
        (view_op t ~view ~op:opn))
    (view_op_series t);
  Buffer.contents buf

let us v = v *. 1e6

let pp ppf t =
  Format.fprintf ppf
    "@[<v>epochs %d, ingested %d, coalesced %d; latency p50 %.1fus p99 %.1fus max %.1fus@,"
    t.epochs t.ingested t.coalesced
    (us (Hist.percentile t.latency 0.5))
    (us (Hist.percentile t.latency 0.99))
    (us (Hist.max_value t.latency));
  List.iter
    (fun name ->
      let v = view t name in
      Format.fprintf ppf "view %-24s %9d upd %7d batches, apply p50 %.1fus p99 %.1fus%t@,"
        name v.updates v.batches
        (us (Hist.percentile v.apply 0.5))
        (us (Hist.percentile v.apply 0.99))
        (fun ppf ->
          if v.failures + v.rebuilds + v.dead_letters + v.skipped > 0 then
            Format.fprintf ppf "; %d failures %d rebuilds %d dead-lettered %d skipped"
              v.failures v.rebuilds v.dead_letters v.skipped))
    (view_names t);
  Format.fprintf ppf "@]"
