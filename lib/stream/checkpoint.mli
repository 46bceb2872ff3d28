(** Checkpoints: a CRC-framed snapshot of the base database and the
    {!cursor} it is current through. The recovery contract — asserted
    in [test/test_stream.ml] — is
    [load + Registry.restore + Wal.replay ≡ direct apply];
    {!Durable.recover} is the one implementation of it.

    Installation is atomic and durable: write temp file, fsync it,
    rename into place, fsync the directory. A crash at any point leaves
    either the previous checkpoint or the new one. All I/O goes through
    {!Ivm_fault.Io} under the ["ckpt"] tag, and every failure is a
    result over {!Errors.t}, not an exception. *)

type cursor = {
  records : int;  (** stream records the state covers, counted from the stream's start *)
  wal_offset : int;  (** WAL byte offset just past the last of them: where replay resumes *)
}

(** Checkpoints of the base database over the Z ring of tuple
    multiplicities. *)
module Z : sig
  val save :
    string -> db:Ivm_data.Database.Z.t -> records:int -> wal_offset:int -> (unit, Errors.t) result

  val load : string -> (Ivm_data.Database.Z.t * cursor, Errors.t) result
  (** [Error (Bad_magic _)] when the file is not a checkpoint,
      [Error (Corrupt _)] on a checksum or parse failure, [Error (Io _)]
      when the file cannot be read. *)
end
