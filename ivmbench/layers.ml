(* The per-layer metrics of the traced run, in one canonical order with
   their units. Every workload prints all of them; a layer a workload
   does not run (no WAL on serve-ryw, no router on ingest, ...) reads
   0 there. *)

module St = Ivm_stream
module Mx = Ivm_workload.Mixed

let kinds = [ Mx.Join; Mx.Triangle; Mx.Cascade; Mx.Minmax; Mx.Window; Mx.Economy ]
let engine_metric k = Printf.sprintf "engine.%s.apply_us_per_update" (Mx.kind_name k)

let all =
  [
    ("queue.pop_us_per_update", "us");
    ("scheduler.coalesce_us_per_update", "us");
    ("scheduler.coalesce_words_per_update", "words");
    ("scheduler.coalesced_ratio", "ratio");
    ("wal.append_us_per_update", "us");
    ("wal.append_words_per_update", "words");
    ("wal.sync_ms_per_epoch", "ms");
    ("wal.bytes_per_update", "B");
    ("registry.apply_us_per_update", "us");
    ("registry.apply_words_per_update", "words");
  ]
  @ List.map (fun k -> (engine_metric k, "us")) kinds
  @ [
      ("registry.touched_ratio", "ratio");
      ("registry.view_apply_us_per_epoch", "us");
      ("scheduler.epoch_us_p50", "us");
      ("scheduler.updates_per_epoch", "count");
      ("scheduler.freshness_ms_p50", "ms");
      ("server.ingest_rw_us_p50", "us");
      ("server.lookup_at_us_p50", "us");
      ("server.lookup_at_us_p99", "us");
      ("net.write_overhead_us", "us");
      ("net.read_overhead_us", "us");
      ("node.ingest_us_p50", "us");
      ("node.lookup_us_p50", "us");
      ("router.write_hop_us", "us");
      ("router.read_hop_us", "us");
      ("router.shards_per_read", "count");
      ("node.freshness_ms_p50", "ms");
      ("node.updates_per_epoch", "count");
      ("gc.minor_collections_per_kop", "1/kop");
      ("gc.major_collections_per_kop", "1/kop");
      ("trace.overhead_pct", "%");
    ]

(* Order [measured] canonically, filling absent layers with 0; a name
   outside the canonical list is a benchmark bug. *)
let complete (measured : Stats.metric list) =
  List.iter
    (fun (m : Stats.metric) ->
      if not (List.mem_assoc m.Stats.name all) then
        invalid_arg ("Layers.complete: unknown metric " ^ m.Stats.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Stats.metric) -> m.Stats.name = name) measured with
      | Some m -> m
      | None -> Stats.m name unit_ 0.)
    all

let safe_div a b = if b = 0. then 0. else a /. b

(* Per-engine apply time per update and the views' summed apply time
   per epoch, from the registries' own per-view apply histograms. *)
let engines (tenants : Mx.tenant array) metrics_list ~epochs =
  let per_kind k =
    Array.fold_left
      (fun (sum, ups) (tn : Mx.tenant) ->
        if tn.Mx.kind <> k then (sum, ups)
        else
          List.fold_left
            (fun (sum, ups) m ->
              let v = St.Metrics.view m tn.Mx.name in
              (sum +. St.Metrics.Hist.sum v.St.Metrics.apply, ups + v.St.Metrics.updates))
            (sum, ups) metrics_list)
      (0., 0) tenants
  in
  let sums = List.map (fun k -> (k, per_kind k)) kinds in
  let total = List.fold_left (fun acc (_, (s, _)) -> acc +. s) 0. sums in
  Stats.m "registry.view_apply_us_per_epoch" "us"
    (safe_div (total *. 1e6) (float_of_int epochs))
  :: List.map
       (fun (k, (s, ups)) ->
         Stats.m (engine_metric k) "us" (safe_div (s *. 1e6) (float_of_int ups)))
       sums

(* The tenant a namespaced relation belongs to: [t<i><k>_<T>]. *)
let tenant_of_rel rel =
  match String.index_opt rel '_' with Some i -> String.sub rel 0 i | None -> rel

(* Distinct views an epoch's delta front hands updates to. *)
let touched front =
  let seen = Hashtbl.create 16 in
  List.iter (fun (rel, _) -> Hashtbl.replace seen (tenant_of_rel rel) ()) front;
  Hashtbl.length seen
