(** Binary encoding of values, tuples and updates, for the update log
    and checkpoints of [lib/stream] and the wire protocol of [lib/net].

    The encoding is little-endian and self-delimiting: every reader
    consumes exactly what the matching writer produced, so records can
    be concatenated. All three wrap encoded bodies in the one length +
    CRC-32 envelope of {!frame}, and call {!Corrupt}-raising readers
    only on bodies whose checksum already passed. *)

exception Corrupt of string
(** Raised by readers on a short or malformed buffer. The streaming
    layers translate this into "stop at the torn tail" (WAL replay) or a
    hard failure (checkpoint load). *)

let corrupt what = raise (Corrupt what)

(* --- CRC-32 (IEEE 802.3, the zlib polynomial) ----------------------- *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(** [crc32 s ~pos ~len] is the CRC-32 of the given substring, as a
    non-negative int (32 bits). *)
let crc32 (s : string) ~pos ~len : int =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* --- primitive writers ---------------------------------------------- *)

let add_u8 b i = Buffer.add_char b (Char.unsafe_chr (i land 0xFF))
let add_u16 b i = Buffer.add_uint16_le b (i land 0xFFFF)

let add_u32 b i =
  add_u16 b i;
  add_u16 b (i lsr 16)

let add_i64 b i = Buffer.add_int64_le b (Int64.of_int i)
let add_f64 b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

(* --- framing: [u32 len | u32 crc32 | body] ----------------------------- *)

let frame_header = 8

let put_u32 b pos i =
  Bytes.set_uint16_le b pos (i land 0xFFFF);
  Bytes.set_uint16_le b (pos + 2) ((i lsr 16) land 0xFFFF)

let seal b ~len =
  put_u32 b 0 len;
  put_u32 b 4 (crc32 (Bytes.unsafe_to_string b) ~pos:frame_header ~len)

let frame ~into buf =
  let len = Buffer.length buf in
  let need = frame_header + len in
  let b =
    if Bytes.length into >= need then into
    else Bytes.create (max need (2 * Bytes.length into))
  in
  Buffer.blit buf 0 b frame_header len;
  seal b ~len;
  b

(* --- primitive readers ----------------------------------------------- *)

let need s pos n = if !pos + n > String.length s then corrupt "short read"

let u8 s pos =
  need s pos 1;
  let v = Char.code s.[!pos] in
  incr pos;
  v

let u16 s pos =
  let lo = u8 s pos in
  lo lor (u8 s pos lsl 8)

let u32 s pos =
  let lo = u16 s pos in
  lo lor (u16 s pos lsl 16)

let i64 s pos =
  need s pos 8;
  let v = Int64.to_int (String.get_int64_le s !pos) in
  pos := !pos + 8;
  v

let f64 s pos =
  need s pos 8;
  let v = Int64.float_of_bits (String.get_int64_le s !pos) in
  pos := !pos + 8;
  v

let str s pos =
  let n = u32 s pos in
  need s pos n;
  let v = String.sub s !pos n in
  pos := !pos + n;
  v

(* --- values, tuples, updates ----------------------------------------- *)

let add_value b = function
  | Value.Int i ->
      add_u8 b 0;
      add_i64 b i
  | Value.Str s ->
      add_u8 b 1;
      add_str b s
  | Value.Real f ->
      add_u8 b 2;
      add_f64 b f

let value s pos =
  match u8 s pos with
  | 0 -> Value.Int (i64 s pos)
  | 1 -> Value.Str (str s pos)
  | 2 -> Value.Real (f64 s pos)
  | t -> corrupt (Printf.sprintf "unknown value tag %d" t)

let add_tuple b t =
  let n = Tuple.arity t in
  add_u16 b n;
  for i = 0 to n - 1 do
    add_value b (Tuple.get t i)
  done

(* The values go straight into the tuple's own array: no list, no
   closure, no copy. The filler is a static constant, so a wide tuple's
   array never forces a minor collection ({!Array.make} does when a
   major-heap array is filled with a young value). *)
let tuple s pos =
  let vals = Array.make (u16 s pos) (Value.Int 0) in
  for i = 0 to Array.length vals - 1 do
    vals.(i) <- value s pos
  done;
  Tuple.of_array vals

(* An update's payload is its Z-ring multiplicity, an i64. *)
let add_update b (u : int Update.t) =
  add_str b u.Update.rel;
  add_tuple b u.Update.tuple;
  add_i64 b u.Update.payload

let update s pos : int Update.t =
  (* The decode failpoint: lets a chaos harness poison the decode path
     itself (a record whose bytes pass the CRC but fail to parse), which
     the framing layers must translate into a clean Corrupt error. One
     bool read when fault injection is disabled. *)
  (match Ivm_fault.Failpoint.hit "codec.decode" with
  | Some _ -> corrupt "injected decode fault"
  | None -> ());
  let rel = str s pos in
  let t = tuple s pos in
  let payload = i64 s pos in
  Update.make ~rel ~tuple:t ~payload
