(* Sample statistics and process-wide memory accounting. *)

(* Nearest-rank quantile of the samples (sorted in place); 0 when
   empty. *)
let quantile samples q =
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    Array.sort Float.compare samples;
    samples.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

let median samples = quantile (Array.copy samples) 0.5
let median_list l = median (Array.of_list l)

(* Words allocated by every domain of the process, finished ones
   included. [Gc.quick_stat] sums the domains' counters, but on OCaml
   5.1 they lag until collections run (readings moved by up to ~4 %
   between identical passes); after a [Gc.full_major] they repeat
   exactly. Call it only outside timed windows. *)
let process_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

type gc_mark = { words : float; minors : int; majors : int }

(* Marks around a timed window. The forced collection of [process_words]
   falls outside the window: the start mark counts collections after
   it, the end mark before it. *)
let gc_mark_start () =
  let words = process_words () in
  let s = Gc.quick_stat () in
  { words; minors = s.Gc.minor_collections; majors = s.Gc.major_collections }

let gc_mark_end () =
  let s = Gc.quick_stat () in
  { words = process_words (); minors = s.Gc.minor_collections; majors = s.Gc.major_collections }

(* Live heap after a full major collection, in bytes. *)
let live_bytes () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))

(* A metric as the benchmark prints it: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The collection counts and allocation of one timed window, per
   thousand ops. *)
let gc_metrics ~before ~after ~ops =
  let per_kop x = float_of_int x *. 1000. /. float_of_int (max 1 ops) in
  [
    m "gc.minor_collections_per_kop" "1/kop" (per_kop (after.minors - before.minors));
    m "gc.major_collections_per_kop" "1/kop" (per_kop (after.majors - before.majors));
  ]

let words_per_op ~before ~after ~ops = (after.words -. before.words) /. float_of_int (max 1 ops)

(* Merge the named op histograms of several metrics sets. *)
let merged_op metrics_list name =
  let h = Ivm_stream.Metrics.Hist.create () in
  List.iter
    (fun m ->
      if List.mem name (Ivm_stream.Metrics.op_names m) then
        Ivm_stream.Metrics.Hist.merge_into ~into:h (Ivm_stream.Metrics.op m name))
    metrics_list;
  h
