(* What one benchmark run reports: the ops attempted and failed, whether
   every output check passed, and the metrics. *)

type t = { attempted : int; failed : int; correct : bool; metrics : Stats.metric list }

(* The end-to-end metrics the JSON result carries, which a regression
   gate compares. The timings (throughput, p50 and p99 latency) are
   printed with the table only: on the shared 2-core host this was
   built on, their spread between runs of the same code (interquartile
   range over ten seeds, as a share of the median) reached 20-90 %,
   beyond the largest bound (25 %) a gate may use; the host's speed
   drifts by up to 1.7x over minutes. *)
let gated = [ "setup_s"; "alloc_words_per_op"; "live_mb" ]

let error_rate t = float_of_int t.failed /. float_of_int (max 1 t.attempted)

(* Printed as the last line of output; JSON numbers must be finite. *)
let json ~trace t =
  let metrics =
    if trace then t.metrics
    else List.filter (fun (m : Stats.metric) -> List.mem m.Stats.name gated) t.metrics
  in
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    t.correct t.attempted t.failed;
  List.iteri
    (fun i (m : Stats.metric) ->
      let v = if Float.is_finite m.Stats.value then m.Stats.value else 0. in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i > 0 then ", " else "")
        m.Stats.name v m.Stats.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let print_table t =
  let row (m : Stats.metric) =
    Printf.printf "  %-40s %14.4f %s\n" m.Stats.name m.Stats.value m.Stats.unit_
  in
  List.iter row t.metrics;
  Printf.printf "  %-40s %14.4f %s (%d failed of %d attempted)\n" "error_rate" (error_rate t)
    "ratio" t.failed t.attempted
