(** Flat open-addressing hash tables keyed by {!Tuple.t}, the storage
    layer under {!Relation}.

    Layout: three parallel arrays — inline hashes, keys, values — with
    power-of-two capacity and linear probing. A slot's inline hash is
    the tuple's memoized structural hash ([>= 0]); [-1] marks an empty
    slot, so a probe is an int-array scan that only touches the key
    array on an exact hash match. Compared to the chained stdlib
    [Hashtbl] this removes one pointer chase and one allocation (the
    bucket cons) per entry, and a miss usually terminates without ever
    dereferencing a key.

    Collision policy is robin hood: an insert displaces a resident
    whose probe distance is shorter than its own, which bounds the
    variance of probe lengths and keeps lookups fast at high load
    (resize at 7/8). Deletion is tombstone-free backward-shift: the
    probe chain after the vacated slot is compacted one step left until
    a hole or a home-positioned entry, so tables that churn (the
    deletion-heavy epochs of IVM) never degrade into tombstone scans
    and the robin-hood invariant is restored exactly.

    Not thread-safe for concurrent mutation; concurrent read-only
    probes are fine (the read-lock sections of the registry). *)

type 'a t = {
  mutable hashes : int array; (* inline memoized hash; -1 = empty slot *)
  mutable keys : Tuple.t array; (* Tuple.unit in empty slots *)
  mutable vals : 'a array; (* [dummy] in empty slots *)
  mutable size : int;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  dummy : 'a; (* fills vacated value slots so no stale pointer survives *)
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 8

let create ?(size = 16) dummy =
  let cap = next_pow2 (max 8 size) in
  {
    hashes = Array.make cap (-1);
    keys = Array.make cap Tuple.unit;
    vals = Array.make cap dummy;
    size = 0;
    mask = cap - 1;
    dummy;
  }

let length t = t.size
let capacity t = t.mask + 1

(* Probe distance of the resident of slot [i]: how far it sits from its
   home slot, in probe order. The robin-hood invariant is that along a
   probe chain these distances never decrease by more than the step. *)
let[@inline] resident_distance t i = (i - t.hashes.(i)) land t.mask

(* Core probe: the slot holding [k] (>= 0) or, on a miss, [-1 - (i +
   d * capacity)] for the slot [i] and probe distance [d] at which a
   robin-hood insert of [k] would start — so a find-or-insert probes
   once. Misses terminate as soon as the chain reaches an empty slot or
   a resident closer to home than the probe is long — the robin-hood
   early exit. A top-level worker (not an inner [let rec]) so the
   non-flambda compiler emits a plain loop instead of allocating a
   closure per probe. *)
let rec find_slot_loop hashes keys mask k h i d =
  let hi = Array.unsafe_get hashes i in
  if hi < 0 then -1 - (i + (d * (mask + 1)))
  else if hi = h && Tuple.equal (Array.unsafe_get keys i) k then i
  else if (i - hi) land mask < d then -1 - (i + (d * (mask + 1)))
  else find_slot_loop hashes keys mask k h ((i + 1) land mask) (d + 1)

let find_slot t k h = find_slot_loop t.hashes t.keys t.mask k h (h land t.mask) 0

let mem t k = find_slot t k (Tuple.hash k) >= 0

(** [find_default t k d] is the stored value or [d] — the allocation-free
    probe (an option would box its [Some]). With [d] = the ring zero and
    the zero-elision invariant, the default unambiguously means
    "absent". *)
let find_default t k d =
  let i = find_slot t k (Tuple.hash k) in
  if i < 0 then d else t.vals.(i)

(* Insert [h,k,v] starting the probe at [i] with distance [d], robin
   hood displacement on the way: a resident closer to home than the
   carried entry swaps out and the insert continues with the evicted
   one. Replaces on key equality (only possible for the originally
   carried key — evicted residents are distinct from every stored key). *)
let rec insert_from t i d h k v =
  let hi = t.hashes.(i) in
  if hi < 0 then begin
    t.hashes.(i) <- h;
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end
  else if hi = h && Tuple.equal t.keys.(i) k then t.vals.(i) <- v
  else
    let di = resident_distance t i in
    if di < d then begin
      let h' = hi and k' = t.keys.(i) and v' = t.vals.(i) in
      t.hashes.(i) <- h;
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      insert_from t ((i + 1) land t.mask) (di + 1) h' k' v'
    end
    else insert_from t ((i + 1) land t.mask) (d + 1) h k v

let resize t cap =
  let old_hashes = t.hashes and old_keys = t.keys and old_vals = t.vals in
  t.hashes <- Array.make cap (-1);
  t.keys <- Array.make cap Tuple.unit;
  t.vals <- Array.make cap t.dummy;
  t.mask <- cap - 1;
  t.size <- 0;
  Array.iteri
    (fun i h ->
      if h >= 0 then insert_from t (h land t.mask) 0 h old_keys.(i) old_vals.(i))
    old_hashes

let grow t = resize t (2 * (t.mask + 1))

(* One rehash to the final capacity instead of a doubling chain. Keys
   fed in the slot order of a larger table (a bulk load, a sibling
   accumulator) into a much smaller one fill it in one dense run that
   every later insert must probe past; sizing first avoids that. *)
let reserve t n =
  let need = 8 * (t.size + n) in
  if need > 7 * (t.mask + 1) then begin
    let cap = ref (2 * (t.mask + 1)) in
    while need > 7 * !cap do
      cap := 2 * !cap
    done;
    resize t !cap
  end

let set t k v =
  if Tuple.is_scratch k then
    invalid_arg "Flat_tbl.set: scratch tuples must not be stored as table keys";
  (* Resize at 7/8 load: robin hood keeps probe chains short well past
     the 1/2 the chained table would want, halving resident memory. *)
  if 8 * (t.size + 1) > 7 * (t.mask + 1) then grow t;
  let h = Tuple.hash k in
  insert_from t (h land t.mask) 0 h k v

(* Backward shift: pull every displaced successor one slot left until
   the chain ends at a hole or an at-home resident. Top-level for the
   same no-closure reason as [find_slot_loop]. *)
let rec shift_back t i =
  let j = (i + 1) land t.mask in
  let hj = t.hashes.(j) in
  if hj < 0 || (j - hj) land t.mask = 0 then begin
    t.hashes.(i) <- -1;
    t.keys.(i) <- Tuple.unit;
    t.vals.(i) <- t.dummy
  end
  else begin
    t.hashes.(i) <- hj;
    t.keys.(i) <- t.keys.(j);
    t.vals.(i) <- t.vals.(j);
    shift_back t j
  end

let remove t k =
  let i = find_slot t k (Tuple.hash k) in
  if i >= 0 then begin
    t.size <- t.size - 1;
    shift_back t i
  end

(* Find-or-insert of a payload delta under zero elision, in one probe:
   a hit adds into the slot (and backward-shifts the entry out when the
   sum is zero), a miss inserts from where the probe stopped. Only that
   insert stores [k], so only it copies a scratch key. *)
let merge t k d ~add ~is_zero =
  if is_zero d then k
  else begin
    let h = Tuple.hash k in
    let i = find_slot t k h in
    if i >= 0 then begin
      let stored = t.keys.(i) in
      let s = add t.vals.(i) d in
      if is_zero s then begin
        t.size <- t.size - 1;
        shift_back t i
      end
      else t.vals.(i) <- s;
      stored
    end
    else begin
      let k = Tuple.freeze k in
      if 8 * (t.size + 1) > 7 * (t.mask + 1) then begin
        grow t;
        insert_from t (h land t.mask) 0 h k d
      end
      else begin
        let m = -1 - i in
        insert_from t (m land t.mask) (m / (t.mask + 1)) h k d
      end;
      k
    end
  end

(** Drop every entry but keep the arrays: the capacity-preserving reset
    that lets per-epoch accumulators reuse their buffers. *)
let clear t =
  Array.fill t.hashes 0 (t.mask + 1) (-1);
  Array.fill t.keys 0 (t.mask + 1) Tuple.unit;
  Array.fill t.vals 0 (t.mask + 1) t.dummy;
  t.size <- 0

let iter f t =
  let hashes = t.hashes and keys = t.keys and vals = t.vals in
  for i = 0 to Array.length hashes - 1 do
    if Array.unsafe_get hashes i >= 0 then
      f (Array.unsafe_get keys i) (Array.unsafe_get vals i)
  done

let fold f t acc =
  let hashes = t.hashes and keys = t.keys and vals = t.vals in
  let acc = ref acc in
  for i = 0 to Array.length hashes - 1 do
    if Array.unsafe_get hashes i >= 0 then
      acc := f (Array.unsafe_get keys i) (Array.unsafe_get vals i) !acc
  done;
  !acc

(* The seq walks the arrays captured at creation time: mutation during
   enumeration is unspecified (as for stdlib [Hashtbl]) but can never
   read out of bounds — a resize swaps in fresh arrays, it does not
   shrink the captured ones. *)
let to_seq t =
  let hashes = t.hashes and keys = t.keys and vals = t.vals in
  let n = Array.length hashes in
  let rec go i () =
    if i >= n then Seq.Nil
    else if hashes.(i) >= 0 then Seq.Cons ((keys.(i), vals.(i)), go (i + 1))
    else go (i + 1) ()
  in
  go 0

let copy t =
  {
    hashes = Array.copy t.hashes;
    keys = Array.copy t.keys;
    vals = Array.copy t.vals;
    size = t.size;
    mask = t.mask;
    dummy = t.dummy;
  }
