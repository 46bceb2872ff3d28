(** Checkpoints: a snapshot of the base database and the {!cursor} it
    is current through — how many stream records it covers and the WAL
    byte offset just past the last of them.

    The recovery contract is [restore + replay ≡ direct apply]: loading
    a checkpoint, rebuilding views from the restored base state and
    replaying the WAL suffix from [wal_offset] reproduces exactly the
    state of a run that never crashed ({!Durable.recover} is that
    path). Only base relations are written — every view is a
    deterministic function of the base database, so re-deriving them on
    restore is both simpler and safer than serializing engine
    internals.

    File format: magic, then [u32 length | u32 crc32 | body]; the body
    holds the cursor and each relation's name, schema and entries.

    Installation is atomic and durable: the snapshot is written to a
    temporary file, fsync'd, renamed into place, and the containing
    directory fsync'd. A crash at any point leaves either the previous
    checkpoint or the new one — never a torn or unlinked file. All I/O
    goes through {!Ivm_fault.Io} under the ["ckpt"] tag so each of
    those four steps is individually fault-injectable. *)

module Codec = Ivm_data.Codec
module Schema = Ivm_data.Schema
module Io = Ivm_fault.Io

let magic = "IVMCKP02"
let tag = "ckpt"
let ( let* ) = Result.bind
let io_err r = Result.map_error (fun e -> Errors.Io e) r

type cursor = { records : int; wal_offset : int }

(* The base database over the Z ring of tuple multiplicities, each
   payload an i64. *)
module Z = struct
  module Db = Ivm_data.Database.Z
  module Rel = Db.Rel

  let save path ~(db : Db.t) ~records ~wal_offset : (unit, Errors.t) result =
    let b = Buffer.create 4096 in
    Codec.add_i64 b records;
    Codec.add_i64 b wal_offset;
    let rels = List.sort compare (Db.relations db) in
    Codec.add_u32 b (List.length rels);
    List.iter
      (fun (name, rel) ->
        Codec.add_str b name;
        let schema = Rel.schema rel in
        Codec.add_u16 b (Schema.arity schema);
        List.iter (Codec.add_str b) (Schema.to_list schema);
        Codec.add_u32 b (Rel.size rel);
        Rel.iter
          (fun tuple p ->
            Codec.add_tuple b tuple;
            Codec.add_i64 b p)
          rel)
      rels;
    let frame = Codec.frame ~into:Bytes.empty b in
    let tmp = path ^ ".tmp" in
    let result =
      let* oc = io_err (Io.open_trunc ~tag tmp) in
      let write_all =
        let* () = io_err (Io.write oc magic) in
        let* () = io_err (Io.write_bytes oc frame ~len:(Bytes.length frame)) in
        (* fsync the temp file BEFORE the rename: otherwise the rename
           can become durable while the contents are not, and a crash
           leaves an installed-but-empty checkpoint. *)
        io_err (Io.fsync oc)
      in
      (match write_all with
      | Ok () ->
          Io.close_noerr oc;
          Ok ()
      | Error _ as e ->
          Io.close_noerr oc;
          e)
    in
    let* () =
      match result with
      | Ok () -> Ok ()
      | Error _ as e ->
          Io.remove_noerr tmp;
          e
    in
    let* () =
      match io_err (Io.rename ~tag ~src:tmp ~dst:path) with
      | Ok () -> Ok ()
      | Error _ as e ->
          Io.remove_noerr tmp;
          e
    in
    (* fsync the directory so the rename itself survives a crash. *)
    io_err (Io.fsync_dir ~tag (Filename.dirname path))

  let load path : (Db.t * cursor, Errors.t) result =
    let* contents = io_err (Io.read_file ~tag path) in
    let total = String.length contents in
    let mlen = String.length magic in
    if total < mlen || String.sub contents 0 mlen <> magic then
      Error (Errors.Bad_magic { path; expected = "checkpoint" })
    else begin
      match
        let pos = ref mlen in
        let len = Codec.u32 contents pos in
        let crc = Codec.u32 contents pos in
        if !pos + len > total then raise (Codec.Corrupt "truncated checkpoint body");
        if Codec.crc32 contents ~pos:!pos ~len <> crc then raise (Codec.Corrupt "checksum mismatch");
        let body = String.sub contents !pos len in
        let pos = ref 0 in
        let records = Codec.i64 body pos in
        let wal_offset = Codec.i64 body pos in
        let nrels = Codec.u32 body pos in
        let db = Db.create () in
        for _ = 1 to nrels do
          let name = Codec.str body pos in
          let arity = Codec.u16 body pos in
          let schema = Schema.of_list (List.init arity (fun _ -> Codec.str body pos)) in
          let entries = Codec.u32 body pos in
          let rel = Db.declare db name schema in
          for _ = 1 to entries do
            let tuple = Codec.tuple body pos in
            let p = Codec.i64 body pos in
            Rel.set_entry rel tuple p
          done
        done;
        (db, { records; wal_offset })
      with
      | result -> Ok result
      | exception Codec.Corrupt detail -> Error (Errors.Corrupt { path; detail })
    end
end
