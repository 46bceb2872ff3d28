(** Binary encoding of values, tuples and updates, for the durable
    update log and checkpoints of [lib/stream] and the wire protocol of
    [lib/net]. Little-endian, self-delimiting; integrity is the one
    length + CRC-32 envelope of {!frame}, shared by all three. The
    writers allocate only when the buffer grows. *)

exception Corrupt of string
(** Raised by every reader on a short or malformed buffer. *)

val crc32 : string -> pos:int -> len:int -> int
(** CRC-32 (IEEE) of a substring, as a non-negative 32-bit int. *)

(** {1 Framing} — the one envelope of WAL records, checkpoint files and
    wire messages: [u32 len | u32 crc32 of body | body]. *)

val frame_header : int

val seal : Bytes.t -> len:int -> unit
(** Stamp length and CRC at offset 0 of a frame whose [len]-byte body
    already sits at {!frame_header}. *)

val frame : into:Bytes.t -> Buffer.t -> Bytes.t
(** [buf] behind a sealed header: [into] if it fits, else a new frame at
    least twice its size (reuse the result as the next [into]). The
    frame is its first [frame_header + Buffer.length buf] bytes. *)

(** {1 Primitives} — writers append to a [Buffer.t]; readers consume
    from a string at a position cursor, raising {!Corrupt} on underrun. *)

val add_u8 : Buffer.t -> int -> unit
val add_u16 : Buffer.t -> int -> unit
val add_u32 : Buffer.t -> int -> unit
val add_i64 : Buffer.t -> int -> unit
val add_f64 : Buffer.t -> float -> unit
val add_str : Buffer.t -> string -> unit
val u8 : string -> int ref -> int
val u16 : string -> int ref -> int
val u32 : string -> int ref -> int
val i64 : string -> int ref -> int
val f64 : string -> int ref -> float
val str : string -> int ref -> string

(** {1 Data-model codecs} *)

val add_value : Buffer.t -> Value.t -> unit
val value : string -> int ref -> Value.t
val add_tuple : Buffer.t -> Tuple.t -> unit
val tuple : string -> int ref -> Tuple.t

val add_update : Buffer.t -> int Update.t -> unit
(** Relation name, tuple, then the payload as an i64 multiplicity. *)

val update : string -> int ref -> int Update.t
