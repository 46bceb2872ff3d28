(** Crash recovery, the one path from a checkpoint + WAL pair back to a
    live registry. Every view is a deterministic function of the base
    database (paper Sec. 2), so a checkpoint stores only base relations
    and recovery is: load it, rebuild the views, replay the WAL suffix
    from the checkpoint's byte offset. *)

val recover :
  wal:string ->
  ckpt:string ->
  fresh:(unit -> Registry.Db.t) ->
  (Registry.Db.t -> Registry.t) ->
  (Registry.t * Checkpoint.cursor, Errors.t) result
(** [recover ~wal ~ckpt ~fresh build] loads [ckpt] (or, without one,
    starts from [fresh ()], the database the log began from), builds
    the registry with [build] and replays the log's suffix into it in
    batches of 256 updates. Read-only. The cursor returned is where the
    recovered state ends: checkpointed plus replayed records, and the
    offset the replay stopped at — reopen the log with
    [Wal.Z.open_log ~from:cursor.wal_offset] so a corrupt record the
    checkpoint covers is never cut. A checkpoint that does not load, or
    a log that is missing, foreign or shorter than its offset, is an
    [Error]; no checkpoint and no log is a cold start. *)
