(** A served view answer: the view's entries sorted by tuple, cut into
    immutable chunks of at most [chunk_size] entries, each already
    framed as one wire [Chunk] message — an ordered map whose nodes are
    the frames themselves.

    The value is persistent. {!patch} applies an output delta by
    rebuilding only the chunks the delta's keys fall into and sharing
    every other chunk (and its frame bytes) physically with the input,
    so a reader still holding the previous answer keeps serving it
    untouched. A chunk covers the keys from its first entry up to the
    next chunk's first entry; one that outgrows [chunk_size] splits,
    one that empties disappears. When deletions leave many small chunks
    the whole answer is re-sliced, so the frame count stays within
    twice the minimum. {!patch} also hands back the delta it applied,
    in the canonical form it merged (sorted, summed, zero-free), which
    {!of_canonical} slices into an answer of its own: the server sends
    it to a reader that holds the previous version. *)

module Tuple = Ivm_data.Tuple

type entry = Tuple.t * int

type chunk = {
  src : entry array;  (** sorted; shared between chunks sliced from one array *)
  off : int;
  len : int;
  last : bool;  (** framed as the answer's final chunk *)
  frame : Bytes.t;
}

type t = { chunk_size : int; chunks : chunk array; size : int; frames : Bytes.t list }

let compare_entry ((a, _) : entry) ((b, _) : entry) = Tuple.compare a b

(* The filler of fresh entry arrays. [Array.make] (and so
   [Array.of_list]) forces a minor collection when an array too large
   for the minor heap is filled with a young value; this one is
   long-lived, so building a big answer never does. *)
let filler : entry = (Tuple.unit, 0)

let array_of_list (l : entry list) =
  let a = Array.make (List.length l) filler in
  List.iteri (fun i e -> a.(i) <- e) l;
  a

let make_chunk ~last src ~off ~len =
  { src; off; len; last; frame = Wire.chunk_frame ~last src ~off ~len }

let first c = fst c.src.(c.off)

(* Sort a freshly built array in place, sum entries with equal tuples
   and drop zero payloads, compacting towards the front. *)
let normalize (a : entry array) =
  Array.sort compare_entry a;
  let n = Array.length a in
  let k = ref 0 and i = ref 0 in
  while !i < n do
    let ((tp, p) as e) = a.(!i) in
    let sum = ref p and j = ref (!i + 1) in
    while !j < n && Tuple.compare (fst a.(!j)) tp = 0 do
      sum := !sum + snd a.(!j);
      incr j
    done;
    if !sum <> 0 then begin
      a.(!k) <- (if !j = !i + 1 then e else (tp, !sum));
      incr k
    end;
    i := !j
  done;
  if !k = n then a else Array.sub a 0 !k

let assemble ~chunk_size chunks =
  let chunks = Array.of_list chunks in
  {
    chunk_size;
    chunks;
    size = Array.fold_left (fun acc c -> acc + c.len) 0 chunks;
    frames = Array.fold_right (fun c acc -> c.frame :: acc) chunks [];
  }

(* Slice a sorted array into chunks of at most [chunk_size] entries,
   evenly; the empty answer is one empty final chunk, so a client always
   sees a terminator. [last] says whether the slice ends the answer. *)
let slices ~chunk_size ~last (src : entry array) =
  let n = Array.length src in
  if n = 0 then if last then [ make_chunk ~last src ~off:0 ~len:0 ] else []
  else begin
    let pieces = (n + chunk_size - 1) / chunk_size in
    List.init pieces (fun i ->
        let off = i * n / pieces and stop = (i + 1) * n / pieces in
        make_chunk ~last:(last && i = pieces - 1) src ~off ~len:(stop - off))
  end

let of_sorted ~chunk_size src = assemble ~chunk_size (slices ~chunk_size ~last:true src)

let build ~chunk_size entries =
  if chunk_size < 1 then invalid_arg "Chunked.build: chunk_size < 1";
  of_sorted ~chunk_size (normalize (array_of_list entries))

let size t = t.size
let frames t = t.frames

let iter t f =
  Array.iter
    (fun c ->
      for i = c.off to c.off + c.len - 1 do
        let tp, p = c.src.(i) in
        f tp p
      done)
    t.chunks

(* Merge one chunk's sorted entries with the sorted, zero-free delta
   slice [d.(lo) .. d.(hi - 1)]: payloads add, zeros drop out. *)
let merge c (d : entry array) lo hi =
  let out = Array.make (c.len + (hi - lo)) filler in
  let k = ref 0 and i = ref c.off and j = ref lo in
  let stop = c.off + c.len in
  let push e =
    out.(!k) <- e;
    incr k
  in
  while !i < stop || !j < hi do
    if !j >= hi then (push c.src.(!i); incr i)
    else if !i >= stop then (push d.(!j); incr j)
    else begin
      let ((a, pa) as ea) = c.src.(!i) and ((b, pb) as eb) = d.(!j) in
      let cmp = Tuple.compare a b in
      if cmp < 0 then (push ea; incr i)
      else if cmp > 0 then (push eb; incr j)
      else begin
        if pa + pb <> 0 then push (a, pa + pb);
        incr i;
        incr j
      end
    end
  done;
  if !k = Array.length out then out else Array.sub out 0 !k

(* [patch] over a sorted, zero-free, non-empty delta. *)
let patch_sorted t (d : entry array) =
  let nd = Array.length d and nc = Array.length t.chunks in
  (* Walk chunks and the delta together: chunk [i] takes the delta keys
     below chunk [i + 1]'s first entry (the empty answer's lone chunk
     takes everything). Untouched chunks pass through as they are. *)
  let j = ref 0 and pieces = ref [] in
  for i = 0 to nc - 1 do
    let c = t.chunks.(i) and lo = !j in
    if i = nc - 1 then j := nd
    else begin
      let bound = first t.chunks.(i + 1) in
      while !j < nd && Tuple.compare (fst d.(!j)) bound < 0 do
        incr j
      done
    end;
    pieces := (if !j = lo then `Keep c else `Fresh (merge c d lo !j)) :: !pieces
  done;
  (* Back to front: re-frame the touched chunks (splitting oversized
     ones, dropping emptied ones), and any kept chunk whose last-chunk
     flag no longer matches. *)
  let rec rebuild acc last = function
    | [] -> acc
    | `Keep c :: rest ->
        let c = if c.last = last then c else make_chunk ~last c.src ~off:c.off ~len:c.len in
        rebuild (c :: acc) false rest
    | `Fresh [||] :: rest -> rebuild acc last rest
    | `Fresh src :: rest -> rebuild (slices ~chunk_size:t.chunk_size ~last src @ acc) false rest
  in
  let r = assemble ~chunk_size:t.chunk_size (rebuild [] true !pieces) in
  if r.size = 0 then of_sorted ~chunk_size:t.chunk_size [||]
  else if Array.length r.chunks > 2 * ((r.size + t.chunk_size - 1) / t.chunk_size) then begin
    (* Too fragmented: re-slice the whole answer from its entries. *)
    let all = Array.make r.size filler and k = ref 0 in
    iter r (fun tp p ->
        all.(!k) <- (tp, p);
        incr k);
    of_sorted ~chunk_size:t.chunk_size all
  end
  else r

let patch t (delta : entry list) =
  let d = match delta with [] -> [||] | _ -> normalize (array_of_list delta) in
  ((if Array.length d = 0 then t else patch_sorted t d), d)

let of_canonical ~chunk_size d =
  if chunk_size < 1 then invalid_arg "Chunked.of_canonical: chunk_size < 1";
  of_sorted ~chunk_size d
