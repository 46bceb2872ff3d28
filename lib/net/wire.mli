(** The binary wire protocol of the view server: length-prefixed,
    CRC-framed request/response messages layered on {!Ivm_data.Codec}.

    A frame is [u32 len | u32 crc | body] (little-endian); [crc] is the
    CRC-32 of the body, [len] its byte length, capped at {!max_body}.
    All decoding is result-typed over {!error} — corrupt, truncated or
    oversized input yields a value, never an exception or a hang.
    Answers are versioned: every {!Lookup} answer names the snapshot it
    serves ({!Token}), and a whole-view {!Lookup} that names the
    version it holds ([since]) may be answered with the delta from it. *)

module Tuple = Ivm_data.Tuple
module Update = Ivm_data.Update

val header_len : int
(** Frame header bytes (length + checksum). *)

val max_body : int
(** Hard cap on a frame body (16 MiB): a reader never trusts the peer
    for its allocation size. *)

type error =
  | Eof  (** peer closed cleanly at a frame boundary *)
  | Truncated  (** stream ended mid-frame *)
  | Too_large of int  (** advertised body length over {!max_body} *)
  | Crc_mismatch of { expected : int; actual : int }
  | Bad_op of int  (** unknown opcode byte *)
  | Decode of string  (** malformed message body *)
  | Io of string  (** socket-level failure *)
  | Timeout
      (** the [SO_RCVTIMEO]/[SO_SNDTIMEO] deadline expired — the peer
          may be dead or just slow; retryable for idempotent ops *)
  | Closed  (** this endpoint was already closed locally *)
  | Remote of string  (** the server answered with an error message *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

(** {1 Framing} *)

val frame : string -> string
(** Wrap a body into a complete frame — the reference layout the
    staged writers ({!write_request}, {!write_response}) produce.
    @raise Invalid_argument over {!max_body}. *)

val frame_bytes : string -> Bytes.t
(** A complete frame (header, CRC, body) preserialized into one buffer,
    for bytes written more than once: the snapshot cache's chunks (see
    {!chunk_frame}) and a delta fanned out to every subscriber. Serve
    it with {!write_prebuilt}. Treat the result as immutable.
    @raise Invalid_argument over {!max_body}. *)

val chunk_frame :
  last:bool -> (Ivm_data.Tuple.t * int) array -> off:int -> len:int -> Bytes.t
(** The {!frame_bytes} of a [Chunk { last; entries }] response whose
    entries are [entries.(off) .. entries.(off + len - 1)] — the same
    bytes, built in one exact-size allocation (the body is staged in
    the per-domain buffer {!write_request} uses). *)

val decode_frame : string -> pos:int -> (string * int, error) result
(** Parse one frame starting at [pos] of a byte buffer, returning the
    body and the position after the frame. [Error Eof] when [pos] is
    exactly the end of the buffer; [Error Truncated] when the buffer
    ends mid-frame. Pure — the property-testing seam under
    {!read_frame}. *)

val address : string -> int -> (Unix.sockaddr, error) result
(** [address host port]: the IPv4 socket address of [host] (a dotted
    quad, or a name resolved with [getaddrinfo]) and [port];
    [Error (Io _)] when the name does not resolve. *)

val write_prebuilt : Unix.file_descr -> Bytes.t -> (unit, error) result
(** Write a {!frame_bytes}-prebuilt frame fully, looping over partial
    writes — no staging buffer, no re-encoding, no re-CRC. A socket
    send timeout ([SO_SNDTIMEO]) surfaces as [Error Timeout]. *)

val read_frame : Unix.file_descr -> (string, error) result
(** Read exactly one frame, looping over partial reads, and verify its
    checksum. The header is read into per-domain scratch; the body is
    the one allocation. After a [Crc_mismatch] the stream is still
    aligned on a frame boundary — the connection can keep serving. *)

(** {1 Messages} *)

type request =
  | Ping
  | Lookup of {
      view : string;
      prefix : Tuple.t;
      token : int;
      timeout_ms : int;
      since : int;
    }
      (** The one read (CQAP access request): bind the first
          [arity prefix] output columns and enumerate the matching
          entries; an empty prefix reads the whole view. A [token <= 0]
          reads the latest completed epoch; a [token > 0] waits (up to
          [timeout_ms]) for the served watermark to reach it — the
          read-your-writes gate. [since] is the version ({!Token}) of
          the whole view the caller already holds, 0 for none: a
          whole-view read whose [since] names the served snapshot or
          the one it was patched from is answered with the delta from
          it. Answered with a {!Token} frame then entry chunks, or an
          {!Err}. *)
  | Ingest of int Update.t list  (** feed the server's update queue *)
  | Subscribe  (** push one {!Delta} per applied epoch from now on *)
  | Stats  (** Prometheus text exposition of the server metrics *)
  | Health
  | Fingerprints
  | Heal
  | Checkpoint
  | Shutdown
  | Sql of string
      (** a SQL script ([CREATE TABLE], [CREATE MATERIALIZED VIEW],
          [INSERT], [DELETE], [SELECT], [EXPLAIN]) executed against the
          server's SQL session; answered with one [Text] holding every
          statement's output *)
  | Barrier
      (** fence: answer {!Barrier_done} only once every update admitted
          before this request has been applied and made durable *)
  | Ingest_rw of int Update.t list
      (** like [Ingest], but acknowledged with an {!Ack_token} carrying
          the epoch token a session threads into a gated {!Lookup} *)

type response =
  | Pong
  | Chunk of { last : bool; entries : (Tuple.t * int) list }
      (** one slice of a [Lookup] enumeration *)
  | Ack of { admitted : int; dropped : int }
  | Text of string
  | Health_list of (string * string * string option) list
      (** (view, health, last error) *)
  | Fingerprint_list of (string * int) list
  | Healed of string list  (** names still unhealthy after healing *)
  | Checkpointed of { wal_offset : int }
  | Delta of { epoch : int; updates : int Update.t list }
  | Err of string
  | Bye
  | Subscribed
  | Barrier_done of { epoch : int }
      (** the scheduler epoch at which the fence held *)
  | Ack_token of { admitted : int; dropped : int; token : int }
      (** [token] is the ingest-queue watermark after this batch was
          admitted: once the served watermark reaches it, every update
          of the batch is visible to reads *)
  | Token of { watermark : int; version : int; base : int }
      (** prefix of every [Lookup] answer's chunk stream: the served
          watermark the entries that follow were materialized at;
          [version], the snapshot served (a nonce drawn when the server
          started combined with the view's change stamp, never 0, so a
          restarted or failed-over server never repeats an old one);
          and [base]. [base = 0]: the chunks are the whole answer.
          [base = since] of the request: they are the delta from the
          snapshot [since] to [version], ascending and zero-free like
          an answer — empty when the view did not change. *)

val request_name : request -> string
(** Stable lowercase tag, the per-op latency label in
    {!Ivm_stream.Metrics}. A gated [Lookup] ([token > 0]) is
    ["lookup_at"], an ungated one ["lookup"]. *)

val response_name : response -> string

val write_request : Unix.file_descr -> request -> (unit, error) result
(** Frame a request and write it fully. The body is encoded into a
    per-domain stage and sealed behind its header in place, so a send
    allocates nothing once the stage has grown to the domain's largest
    message. A body over {!max_body} is [Error (Too_large _)], nothing
    written; a socket send timeout ([SO_SNDTIMEO]) is [Error Timeout]. *)

val write_response : Unix.file_descr -> response -> (unit, error) result
(** {!write_request} for a response. *)

val encode_request : request -> string
(** A request's frame body, as {!write_request} frames it. *)

val decode_request : string -> (request, error) result
val encode_response : response -> string
val decode_response : string -> (response, error) result

val decode_chunk :
  string ->
  (Tuple.t * int) list ->
  (bool * (Tuple.t * int) list, error) result
(** [decode_chunk body acc] decodes a [Chunk] body without building the
    [Chunk] value: [Ok (last, acc')], where [acc'] is the chunk's
    entries in reverse order pushed onto [acc]. Draining a whole answer
    is then one accumulator across its chunks, reversed once. An [Err]
    body is [Error (Remote msg)], any other response an [Error (Decode _)]
    naming it. The checks of {!decode_response} hold: a malformed body
    or trailing bytes are a [Decode] error. *)
