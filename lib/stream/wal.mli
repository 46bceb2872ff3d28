(** A durable append-only update log with explicit byte offsets,
    CRC-checked records and replay. A {!Checkpoint} stores the offset
    {!Z.offset} had when it was taken, and [restore + replay] from
    there is equivalent to having applied the log directly
    ({!Durable.recover}). A torn tail (record cut short by a crash, or
    failing its checksum) ends replay at the last complete record and
    is truncated on re-open.

    All load-and-append paths are result-typed over {!Errors.t}; file
    I/O is routed through {!Ivm_fault.Io} under the ["wal"] tag, so a
    fault harness can inject short writes, failed fsyncs and bit flips
    at the exact syscall boundaries. *)

val header_len : int
(** Bytes of file magic; the offset of the first record. *)

(** The log of integer-multiplicity updates (the Z ring). *)
module Z : sig
  type t

  val open_log : ?from:int -> string -> (t, Errors.t) result
  (** Open for appending, creating the file if needed. An existing log
      is scanned from [from] (default: the first record) and any torn
      tail truncated, so appends always extend a valid prefix. Pass the
      cursor recovery replayed up to: the scan then starts where the
      replay stopped, and a corrupt record below it is never cut. With
      [from] past the header, a missing, foreign or shorter file is an
      [Error] instead of a fresh log. *)

  val offset : t -> int
  (** The current end offset: the replay cursor for state that includes
      everything appended so far. *)

  val path : t -> string

  val append : t -> int Ivm_data.Update.t -> (int, Errors.t) result
  (** Append one record, returning the offset after it. Buffered; call
      {!sync} to make it durable (the scheduler syncs once per epoch). *)

  val append_batch : t -> int Ivm_data.Update.t list -> (int, Errors.t) result

  val sync : t -> (unit, Errors.t) result
  (** Flush and [fsync]: on [Ok ()] every appended record survives a
      crash. *)

  val close : t -> unit

  val crash : t -> unit
  (** Simulate a crash: drop buffered (never-synced) bytes and close the
      descriptor, leaving on disk exactly the durable prefix. *)

  val replay : string -> from:int -> (int Ivm_data.Update.t -> unit) -> (int, Errors.t) result
  (** [replay path ~from f] feeds every complete record at offset
      [>= from] to [f], returning the offset after the last one. A torn
      or corrupt tail silently ends the replay; a missing or foreign
      file, or one ending before [from], is an [Error] — replaying it
      would silently lose the log. *)

  val record_count : string -> (int, Errors.t) result
  (** Number of complete records in the log — what a crash harness uses
      as "how many updates are durable". *)
end
