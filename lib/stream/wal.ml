(** A durable append-only update log (write-ahead log).

    The paper's model is an unbounded stream of single-tuple updates
    (Sec. 2); the WAL is that stream made durable: every update is
    framed as [u32 length | u32 crc32 | body] where the body is the
    {!Ivm_data.Codec} encoding of the update. Offsets are byte positions
    in the file; {!append} returns the offset *after* the record, which
    is exactly the replay cursor a checkpoint stores next to its record
    count — restore the snapshot, replay the suffix, and the state is
    as if the log had been applied directly ({!Durable.recover};
    asserted in [test/test_stream.ml]).

    Every load-and-append path is result-typed: real disk errors and
    injected faults (the log routes all file I/O through
    {!Ivm_fault.Io} under the ["wal"] tag) come back as
    {!Errors.t} values, so the scheduler can retry a failed fsync and a
    crash harness can treat a torn write as a kill point instead of an
    uncaught exception.

    Crash tolerance: a torn tail (a record cut short by a crash, or one
    whose checksum fails) terminates replay at the last complete record;
    {!open_log} truncates such a tail so later appends extend a valid
    prefix rather than burying records behind garbage. Given a [from]
    cursor, the scan starts there: a corrupt record below a checkpoint
    can then neither truncate the log beneath it nor end the suffix
    replay early. *)

module Codec = Ivm_data.Codec
module Update = Ivm_data.Update
module Io = Ivm_fault.Io

let magic = "IVMWAL01"
let header_len = String.length magic
let tag = "wal"
let ( let* ) = Result.bind

(* Integer-multiplicity updates (the Z ring): the one payload the log
   carries. *)
module Z = struct
  type t = {
    path : string;
    out : Io.out;
    buf : Buffer.t; (* the record body, encoded in place *)
    mutable frame : Bytes.t; (* header + body, reused and grown *)
    mutable offset : int; (* bytes of valid log written, including magic *)
  }

  (* The one record walk, shared by replay and the torn-tail scan so
     both stop at the same byte: from [from], feed every complete,
     checksum-correct, decodable record of [contents] to [f] and return
     the offset after the last one. *)
  let walk contents ~from f =
    let file_len = String.length contents in
    let cursor = ref from in
    (try
       while !cursor + 8 <= file_len do
         let pos = ref !cursor in
         let len = Codec.u32 contents pos in
         let crc = Codec.u32 contents pos in
         if !cursor + 8 + len > file_len then raise Exit;
         if Codec.crc32 contents ~pos:!pos ~len <> crc then raise Exit;
         let u = Codec.update contents pos in
         (* A checksum-valid body must also parse to exactly its length. *)
         if !pos <> !cursor + 8 + len then raise Exit;
         cursor := !pos;
         f u
       done
     with Exit | Codec.Corrupt _ -> ());
    !cursor

  let has_magic contents =
    String.length contents >= header_len && String.sub contents 0 header_len = magic

  (* A cursor past the end of the log: bytes a checkpoint or an earlier
     replay saw are gone, so neither replaying nor appending is safe. *)
  let short_log path ~from ~len =
    Error
      (Errors.Corrupt
         { path; detail = Printf.sprintf "log ends at byte %d, before cursor %d" len from })

  let open_log ?(from = header_len) path : (t, Errors.t) result =
    let io r = Result.map_error (fun e -> Errors.Io e) r in
    let* contents =
      if not (Sys.file_exists path) then Ok None
      else
        match In_channel.with_open_bin path In_channel.input_all with
        | c -> Ok (Some c)
        | exception Sys_error m -> Errors.io { Io.op = "scan"; path; detail = m; injected = false }
    in
    let* valid =
      match contents with
      | Some c when has_magic c ->
          let len = String.length c in
          if len < from then short_log path ~from ~len
          else
            let v = walk c ~from:(max from header_len) ignore in
            (* Torn tail from a previous crash: cut it off before appending. *)
            let* () = if v < len then io (Io.truncate ~tag path v) else Ok () in
            Ok (Some v)
      | _ when from > header_len -> Error (Errors.Bad_magic { path; expected = "WAL" })
      | None -> Ok None
      | Some _ ->
          (* A foreign or header-torn file nothing was replayed from:
             start the log afresh. *)
          Io.remove_noerr path;
          Ok None
    in
    let* out = io (Io.open_append ~tag path) in
    let* () = if valid = None then io (Io.write out magic) else Ok () in
    let* () = io (Io.flush_out out) in
    let offset = Option.value valid ~default:header_len in
    Ok { path; out; buf = Buffer.create 256; frame = Bytes.create 256; offset }

  let offset t = t.offset
  let path t = t.path

  (* Encode, frame and write one record without allocating: the body
     is encoded into [buf] and sealed into the reused [frame]. *)
  let write_record t u =
    Buffer.clear t.buf;
    Codec.add_update t.buf u;
    let len = Codec.frame_header + Buffer.length t.buf in
    t.frame <- Codec.frame ~into:t.frame t.buf;
    match Io.write_bytes t.out t.frame ~len with
    | Ok () ->
        t.offset <- t.offset + len;
        Ok ()
    | Error _ as e -> e

  let append t (u : int Update.t) : (int, Errors.t) result =
    match write_record t u with Ok () -> Ok t.offset | Error e -> Errors.io e

  (* Stops at the first failed write, like a run of {!append}s. *)
  let rec append_batch t = function
    | [] -> Ok t.offset
    | u :: rest -> (
        match write_record t u with Ok () -> append_batch t rest | Error e -> Errors.io e)

  (** Make everything appended so far durable: flush and [fsync]. *)
  let sync t : (unit, Errors.t) result =
    Result.map_error (fun e -> Errors.Io e) (Io.fsync t.out)

  let close t =
    ignore (Io.flush_out t.out);
    Io.close_noerr t.out

  (** Simulate a crash: drop buffered (never-synced) bytes and close the
      descriptor. What a recovery will replay is exactly the durable
      prefix. *)
  let crash t = Io.crash t.out

  (** [replay path ~from f] feeds every complete record at offset
      [>= from] to [f] and returns the offset after the last one — the
      next replay cursor. [from <= header_len] starts at the first
      record. A torn or corrupt tail silently ends the replay: those
      bytes were never acknowledged as applied by anyone. A missing or
      foreign file, or one that ends before [from], is an error —
      replaying it would silently lose records. *)
  let replay path ~from f : (int, Errors.t) result =
    let* contents = Result.map_error (fun e -> Errors.Io e) (Io.read_file ~tag path) in
    let file_len = String.length contents in
    if file_len < header_len && String.sub magic 0 file_len = contents && from <= header_len
    then Ok header_len
    else if not (has_magic contents) then Error (Errors.Bad_magic { path; expected = "WAL" })
    else if file_len < from then short_log path ~from ~len:file_len
    else Ok (walk contents ~from:(max from header_len) f)

  (** The number of complete records in the log — what a producer-side
      driver uses as "how many updates are durable" after a crash. *)
  let record_count path : (int, Errors.t) result =
    let n = ref 0 in
    let* _ = replay path ~from:0 (fun _ -> incr n) in
    Ok !n
end
