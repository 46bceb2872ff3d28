(* In-memory span recorder. Each domain owns one recorder (no locks on
   the hot path); spans are kept in pre-sized arrays and written out
   once, when the benchmark ends. A span is a layer boundary crossed by
   the benchmark: name, start, end, the span that caused it (-1 for a
   root), a request id shared by the spans of one client operation, and
   the words this domain allocated inside it. *)

type t = {
  domain : int;
  mutable n : int;
  name : string array;
  start : float array;
  stop : float array;
  parent : int array;
  req : int array;
  words : float array;
}

let create ~domain ~capacity =
  {
    domain;
    n = 0;
    name = Array.make capacity "";
    start = Array.make capacity 0.;
    stop = Array.make capacity 0.;
    parent = Array.make capacity (-1);
    req = Array.make capacity (-1);
    words = Array.make capacity 0.;
  }

(* Words this domain has allocated so far: exact for the calling domain,
   unlike the process-wide [Gc.quick_stat], which only advances at
   minor collections. *)
let domain_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [record t ~name ~parent ~req f] runs [f] inside a span and returns
   its result with the span's duration. A full recorder keeps running
   [f] but drops the span (counted in [dropped]). *)
let dropped = Atomic.make 0

let record t ~name ?(parent = -1) ?(req = -1) f =
  let w0 = domain_words () in
  let t0 = Clock.now () in
  let r = f () in
  let t1 = Clock.now () in
  let w1 = domain_words () in
  let i = t.n in
  if i < Array.length t.name then begin
    t.name.(i) <- name;
    t.start.(i) <- t0;
    t.stop.(i) <- t1;
    t.parent.(i) <- parent;
    t.req.(i) <- req;
    t.words.(i) <- w1 -. w0;
    t.n <- i + 1
  end
  else Atomic.incr dropped;
  (r, t1 -. t0)

(* Open a span whose children are recorded before it closes. *)
let open_ t ~name =
  let i = t.n in
  if i < Array.length t.name then begin
    t.name.(i) <- name;
    t.start.(i) <- Clock.now ();
    t.words.(i) <- domain_words ();
    t.req.(i) <- -1;
    t.parent.(i) <- -1;
    t.n <- i + 1;
    i
  end
  else begin
    Atomic.incr dropped;
    -1
  end

let close t i =
  if i >= 0 then begin
    t.stop.(i) <- Clock.now ();
    t.words.(i) <- domain_words () -. t.words.(i)
  end

let fold t ~name f init =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    if String.equal t.name.(i) name then
      acc := f !acc ~dur:(t.stop.(i) -. t.start.(i)) ~words:t.words.(i)
  done;
  !acc

let total t ~name = fold t ~name (fun acc ~dur ~words:_ -> acc +. dur) 0.
let total_words t ~name = fold t ~name (fun acc ~dur:_ ~words -> acc +. words) 0.
let durations t ~name =
  Array.of_list (List.rev (fold t ~name (fun acc ~dur ~words:_ -> dur :: acc) []))

(* Tab-separated, one span per line, times in microseconds from the
   earliest span. *)
let write ~path recorders =
  let t0 =
    List.fold_left
      (fun acc t ->
        let m = ref acc in
        for i = 0 to t.n - 1 do
          m := Float.min !m t.start.(i)
        done;
        !m)
      infinity recorders
  in
  let oc = open_out path in
  output_string oc "domain\tid\tparent\treq\tname\tstart_us\tdur_us\twords\n";
  List.iter
    (fun t ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%.1f\t%.2f\t%.0f\n" t.domain i
          t.parent.(i) t.req.(i) t.name.(i)
          ((t.start.(i) -. t0) *. 1e6)
          ((t.stop.(i) -. t.start.(i)) *. 1e6)
          t.words.(i)
      done)
    recorders;
  close_out oc
