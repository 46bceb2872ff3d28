(** Crash recovery: load the checkpoint, rebuild the registry over it,
    replay the WAL suffix from the checkpoint's byte offset. A
    zero-payload record (a checkpoint tick) counts as a record but
    changes nothing, so it is not applied. *)

let ( let* ) = Result.bind

let batch = 256

let recover ~wal ~ckpt ~fresh build =
  let* db, start =
    if Sys.file_exists ckpt then Checkpoint.Z.load ckpt
    else Ok (fresh (), { Checkpoint.records = 0; wal_offset = Wal.header_len })
  in
  let reg = build db in
  let pending = ref [] and replayed = ref 0 in
  let flush () =
    Registry.apply_batch reg (List.rev !pending);
    pending := []
  in
  let* wal_offset =
    if start.Checkpoint.wal_offset <= Wal.header_len && not (Sys.file_exists wal) then
      Ok Wal.header_len
    else
      Wal.Z.replay wal ~from:start.wal_offset (fun u ->
          if u.Ivm_data.Update.payload <> 0 then pending := u :: !pending;
          incr replayed;
          if !replayed mod batch = 0 then flush ())
  in
  flush ();
  Ok (reg, { Checkpoint.records = start.records + !replayed; wal_offset })
