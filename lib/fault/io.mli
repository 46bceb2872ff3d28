(** The injectable file-I/O layer the durability code routes through:
    result-typed operations that surface both real OS errors and
    injected faults as {!error} values. An operation [op] on a handle
    tagged [tag] consults the failpoint ["<tag>.<op>"] — the seam a
    chaos harness uses to inject short writes, failed fsyncs, bit flips
    and torn renames into one subsystem at a time. Costs one bool read
    per operation while the failpoint registry is disabled. *)

type error = { op : string; path : string; detail : string; injected : bool }

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type out
(** A buffered output handle (tag + path + channel). *)

val open_append : tag:string -> string -> (out, error) result
val open_trunc : tag:string -> string -> (out, error) result

val write : out -> string -> (unit, error) result
(** Buffered write. Failpoint ["<tag>.write"]: [Fail] writes nothing;
    [Short_write k] flushes a [k]-byte prefix to disk and errors (a
    crash mid-write, leaving a torn tail); [Bit_flip i] corrupts one bit
    and *succeeds* (silent corruption for checksums to catch). *)

val write_bytes : out -> Bytes.t -> len:int -> (unit, error) result
(** {!write} of the first [len] bytes of a buffer, straight from it:
    with no failpoint firing, nothing is copied or allocated. *)

val flush_out : out -> (unit, error) result

val fsync : out -> (unit, error) result
(** Flush + [fsync(2)]. Failpoint ["<tag>.fsync"]. *)

val close : out -> (unit, error) result
val close_noerr : out -> unit

val crash : out -> unit
(** Simulate a crash on this handle: drop buffered bytes unflushed and
    close the descriptor. Recovery sees only what earlier writes/fsyncs
    put on disk. *)

val rename : tag:string -> src:string -> dst:string -> (unit, error) result
(** Atomic replace-by-rename. Failpoint ["<tag>.rename"] simulates a
    crash before the install: the temp file stays, the target is
    untouched. *)

val fsync_dir : tag:string -> string -> (unit, error) result
(** fsync a directory, making a completed rename durable. Failpoint
    ["<tag>.dirsync"]. [EINVAL] (filesystems refusing directory fsync)
    counts as success. *)

val read_file : tag:string -> string -> (string, error) result
(** Whole-file read. Failpoint ["<tag>.read"]: [Fail] errors; [Bit_flip]
    corrupts one bit of the returned contents. *)

val truncate : tag:string -> string -> int -> (unit, error) result
val remove_noerr : string -> unit
