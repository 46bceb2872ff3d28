(** The binary wire protocol of the view server: length-prefixed,
    CRC-framed request/response messages layered on {!Ivm_data.Codec}.

    A frame is [u32 len | u32 crc | body] (little-endian, like every
    codec in this library): [len] is the body length, [crc] the CRC-32
    of the body. The length prefix lets a reader recover the frame
    boundary even when the body fails its checksum, so a single
    corrupted frame costs one error, not the connection. Bodies are
    capped at {!max_body} — a reader never trusts the peer for its
    allocation size.

    Everything here is result-typed over {!error}: short reads,
    truncated frames, checksum failures, unknown opcodes and malformed
    bodies are values, never exceptions — the property harness in
    [test/test_net.ml] feeds this module bit-flipped and cut-off bytes
    and asserts exactly that. The pure {!decode_frame} is the testing
    seam; {!read_frame} and the staged writers {!write_request} and
    {!write_response} do the same framing over blocking socket I/O
    with partial read/write loops, allocating only the bodies read. *)

module Codec = Ivm_data.Codec
module Tuple = Ivm_data.Tuple
module Update = Ivm_data.Update

let header_len = Codec.frame_header
let max_body = 16 * 1024 * 1024

type error =
  | Eof  (** peer closed cleanly at a frame boundary *)
  | Truncated  (** stream ended mid-frame *)
  | Too_large of int  (** advertised body length over {!max_body} *)
  | Crc_mismatch of { expected : int; actual : int }
  | Bad_op of int  (** unknown opcode byte *)
  | Decode of string  (** malformed message body *)
  | Io of string  (** socket-level failure *)
  | Timeout  (** the [SO_RCVTIMEO]/[SO_SNDTIMEO] deadline expired *)
  | Closed  (** this endpoint was already closed locally *)
  | Remote of string  (** the server answered with an error message *)

let error_to_string = function
  | Eof -> "connection closed"
  | Truncated -> "truncated frame"
  | Too_large n -> Printf.sprintf "frame body of %d bytes exceeds %d" n max_body
  | Crc_mismatch { expected; actual } ->
      Printf.sprintf "frame checksum mismatch (expected %08x, got %08x)" expected actual
  | Bad_op op -> Printf.sprintf "unknown opcode 0x%02x" op
  | Decode msg -> "malformed message: " ^ msg
  | Io msg -> "io error: " ^ msg
  | Timeout -> "operation timed out"
  | Closed -> "endpoint closed"
  | Remote msg -> "server error: " ^ msg

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* --- framing ---------------------------------------------------------- *)

let check_body len = if len > max_body then invalid_arg "Wire.frame: body too large"

(* A complete frame (header, CRC, body) preserialized into one buffer,
   for bytes written more than once — a delta fanned out to every
   subscriber; the snapshot cache's chunks are built the same way by
   {!chunk_frame}. The header and CRC go straight into the one
   exact-size allocation. *)
let frame_bytes body =
  let len = String.length body in
  check_body len;
  let b = Bytes.create (header_len + len) in
  Bytes.blit_string body 0 b header_len len;
  Codec.seal b ~len;
  b

let frame body = Bytes.unsafe_to_string (frame_bytes body)

let decode_frame buf ~pos =
  let n = String.length buf in
  if pos < 0 || pos > n then invalid_arg "Wire.decode_frame: position out of range";
  if pos = n then Error Eof
  else if n - pos < header_len then Error Truncated
  else
    let cur = ref pos in
    let len = Codec.u32 buf cur in
    let crc = Codec.u32 buf cur in
    if len > max_body then Error (Too_large len)
    else if n - !cur < len then Error Truncated
    else
      let actual = Codec.crc32 buf ~pos:!cur ~len in
      if actual <> crc then Error (Crc_mismatch { expected = crc; actual })
      else Ok (String.sub buf !cur len, !cur + len)

(* --- blocking socket I/O ---------------------------------------------- *)

(* A dotted quad is taken as is; anything else is a host name, resolved
   to its first IPv4 address. *)
let address host port =
  match Unix.inet_addr_of_string host with
  | addr -> Ok (Unix.ADDR_INET (addr, port))
  | exception Failure _ -> (
      match
        Unix.getaddrinfo host (string_of_int port)
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with
      | { Unix.ai_addr; _ } :: _ -> Ok ai_addr
      | [] -> Error (Io (Printf.sprintf "cannot resolve host %S" host)))

(* Write [b.[pos .. pos + len)] fully, looping over partial writes. *)
let rec write_all fd b pos len =
  if len = 0 then Ok ()
  else
    match Unix.write fd b pos len with
    | 0 -> Error (Io "write returned 0")
    | n -> write_all fd b (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b pos len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error Timeout
    | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

(* The zero-copy send: one write loop straight out of a prebuilt
   frame, no staging buffer. *)
let write_prebuilt fd b = write_all fd b 0 (Bytes.length b)

(* Fill [b.[pos .. n)] from [fd]. Zero bytes at the very start is a
   clean EOF when [clean_eof]; an EOF anywhere else is a truncated
   frame. *)
let rec fill fd b pos n ~clean_eof =
  if pos = n then Ok ()
  else
    match Unix.read fd b pos (n - pos) with
    | 0 -> if pos = 0 && clean_eof then Error Eof else Error Truncated
    | k -> fill fd b (pos + k) n ~clean_eof
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill fd b pos n ~clean_eof
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Error Timeout
    | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

let get_u32 b pos = Bytes.get_uint16_le b pos lor (Bytes.get_uint16_le b (pos + 2) lsl 16)

(* The header lands in per-domain scratch; only the body, which the
   caller keeps, is allocated, at its exact size. *)
let header = Domain.DLS.new_key (fun () -> Bytes.create header_len)

let read_frame fd =
  let h = Domain.DLS.get header in
  match fill fd h 0 header_len ~clean_eof:true with
  | Error e -> Error e
  | Ok () -> (
      let len = get_u32 h 0 and crc = get_u32 h 4 in
      if len > max_body then Error (Too_large len)
      else
        let body = Bytes.create len in
        match fill fd body 0 len ~clean_eof:false with
        | Error e -> Error e
        | Ok () ->
            let body = Bytes.unsafe_to_string body in
            let actual = Codec.crc32 body ~pos:0 ~len in
            if actual <> crc then Error (Crc_mismatch { expected = crc; actual }) else Ok body)

(* Outgoing messages are staged per domain: the body is encoded into a
   reused buffer, copied behind the header of a reused frame, sealed in
   place and written by one loop, so a send allocates nothing once the
   stage has grown to the domain's largest message. *)
type stage = { body : Buffer.t; mutable frame : Bytes.t }

let stage = Domain.DLS.new_key (fun () -> { body = Buffer.create 256; frame = Bytes.empty })

let staged fd add v =
  let st = Domain.DLS.get stage in
  Buffer.clear st.body;
  add st.body v;
  let len = Buffer.length st.body in
  let r =
    if len > max_body then Error (Too_large len)
    else begin
      st.frame <- Codec.frame ~into:st.frame st.body;
      write_all fd st.frame 0 (header_len + len)
    end
  in
  (* A huge message must not pin its stage for the domain's life. *)
  if len > 1 lsl 20 then begin
    Buffer.reset st.body;
    st.frame <- Bytes.empty
  end;
  r

(* --- messages --------------------------------------------------------- *)

(* The first body byte is the opcode: requests in 0x01-0x10, responses
   in 0x81-0x90. The bytes of deleted ops (0x03, 0x0C, 0x0E, 0x11 and
   0x8D) stay unassigned, so a stale peer gets [Bad_op], never a
   misread body. *)
type request =
  | Ping
  | Lookup of {
      view : string;
      prefix : Tuple.t;
      token : int;
      timeout_ms : int;
      since : int;
    }
      (** Bind the first [arity prefix] output columns and enumerate the
          rest; a [token > 0] gates the read on the served watermark
          reaching it. [since] is the version of the whole view the
          caller holds (0: none). Answered with a {!Token} frame then
          chunks. *)
  | Ingest of int Update.t list
  | Subscribe
  | Stats
  | Health
  | Fingerprints
  | Heal
  | Checkpoint
  | Shutdown
  | Sql of string
  | Barrier
  | Ingest_rw of int Update.t list
      (** Like [Ingest], but acknowledged with an {!Ack_token} carrying
          the epoch token a session threads into a gated {!Lookup}. *)

type response =
  | Pong
  | Chunk of { last : bool; entries : (Tuple.t * int) list }
  | Ack of { admitted : int; dropped : int }
  | Text of string
  | Health_list of (string * string * string option) list
  | Fingerprint_list of (string * int) list
  | Healed of string list
  | Checkpointed of { wal_offset : int }
  | Delta of { epoch : int; updates : int Update.t list }
  | Err of string
  | Bye
  | Subscribed
  | Barrier_done of { epoch : int }
  | Ack_token of { admitted : int; dropped : int; token : int }
      (** [token] is the queue watermark after this batch was admitted:
          once the served watermark reaches it, the batch is visible. *)
  | Token of { watermark : int; version : int; base : int }
      (** Prefix of every [Lookup] answer's chunk stream: the served
          watermark the following entries were materialized at, the
          version of the snapshot served, and [base]: 0 when the chunks
          are the whole answer, the request's [since] when they are the
          delta from it. *)

let request_name = function
  | Ping -> "ping"
  | Lookup { token; _ } -> if token > 0 then "lookup_at" else "lookup"
  | Ingest _ -> "ingest"
  | Subscribe -> "subscribe"
  | Stats -> "stats"
  | Health -> "health"
  | Fingerprints -> "fingerprints"
  | Heal -> "heal"
  | Checkpoint -> "checkpoint"
  | Shutdown -> "shutdown"
  | Sql _ -> "sql"
  | Barrier -> "barrier"
  | Ingest_rw _ -> "ingest_rw"

let response_name = function
  | Pong -> "pong"
  | Chunk _ -> "chunk"
  | Ack _ -> "ack"
  | Text _ -> "text"
  | Health_list _ -> "health_list"
  | Fingerprint_list _ -> "fingerprint_list"
  | Healed _ -> "healed"
  | Checkpointed _ -> "checkpointed"
  | Delta _ -> "delta"
  | Err _ -> "err"
  | Bye -> "bye"
  | Subscribed -> "subscribed"
  | Barrier_done _ -> "barrier_done"
  | Ack_token _ -> "ack_token"
  | Token _ -> "token"

let add_list add buf xs =
  Codec.add_u32 buf (List.length xs);
  List.iter (add buf) xs

let read_list read s cur =
  let n = Codec.u32 s cur in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (read s cur :: acc) in
  go n []

let add_entry buf (tp, p) =
  Codec.add_tuple buf tp;
  Codec.add_i64 buf p

let entry s cur =
  let tp = Codec.tuple s cur in
  let p = Codec.i64 s cur in
  (tp, p)

let rec entries_onto s cur k acc =
  if k = 0 then acc else entries_onto s cur (k - 1) (entry s cur :: acc)

(* A [Chunk] body after its tag: the last flag, then the entries, each
   pushed onto [acc] — so [acc] comes back with this chunk's entries in
   reverse order in front. The one chunk decoder: {!decode_response}
   and {!decode_chunk} both run it. *)
let chunk_body s cur acc =
  let last = Codec.u8 s cur <> 0 in
  (last, entries_onto s cur (Codec.u32 s cur) acc)

(* The one request encoder: every request body is written here, into
   the caller's buffer. *)
let add_request buf (r : request) =
  match r with
  | Ping -> Codec.add_u8 buf 0x01
  | Lookup { view; prefix; token; timeout_ms; since } ->
      Codec.add_u8 buf 0x02;
      Codec.add_str buf view;
      Codec.add_tuple buf prefix;
      Codec.add_i64 buf token;
      Codec.add_u32 buf timeout_ms;
      Codec.add_i64 buf since
  | Ingest updates ->
      Codec.add_u8 buf 0x04;
      add_list Codec.add_update buf updates
  | Subscribe -> Codec.add_u8 buf 0x05
  | Stats -> Codec.add_u8 buf 0x06
  | Health -> Codec.add_u8 buf 0x07
  | Fingerprints -> Codec.add_u8 buf 0x08
  | Heal -> Codec.add_u8 buf 0x09
  | Checkpoint -> Codec.add_u8 buf 0x0A
  | Shutdown -> Codec.add_u8 buf 0x0B
  | Sql text ->
      Codec.add_u8 buf 0x0D;
      Codec.add_str buf text
  | Barrier -> Codec.add_u8 buf 0x0F
  | Ingest_rw updates ->
      Codec.add_u8 buf 0x10;
      add_list Codec.add_update buf updates

(* The body of a [Chunk] response: its tag, the last flag, then
   [count] entries, each handed to [add] by [iter]. *)
let add_chunk_body buf ~last ~count iter =
  Codec.add_u8 buf 0x82;
  Codec.add_u8 buf (if last then 1 else 0);
  Codec.add_u32 buf count;
  iter (add_entry buf)

(* Chunk bodies are encoded into the domain's stage, then copied once
   into their exact-size frame. *)
let chunk_frame ~last (entries : (Tuple.t * int) array) ~off ~len =
  let buf = (Domain.DLS.get stage).body in
  Buffer.clear buf;
  add_chunk_body buf ~last ~count:len (fun add ->
      for i = off to off + len - 1 do
        add entries.(i)
      done);
  check_body (Buffer.length buf);
  let b = Codec.frame ~into:Bytes.empty buf in
  (* A huge chunk must not pin its scratch space for the domain's life. *)
  if Buffer.length buf > 1 lsl 20 then Buffer.reset buf;
  b

(* The one response encoder, like {!add_request}. *)
let add_response buf (r : response) =
  match r with
  | Pong -> Codec.add_u8 buf 0x81
  | Chunk { last; entries } ->
      add_chunk_body buf ~last ~count:(List.length entries) (fun add -> List.iter add entries)
  | Ack { admitted; dropped } ->
      Codec.add_u8 buf 0x83;
      Codec.add_u32 buf admitted;
      Codec.add_u32 buf dropped
  | Text s ->
      Codec.add_u8 buf 0x84;
      Codec.add_str buf s
  | Health_list hs ->
      Codec.add_u8 buf 0x85;
      add_list
        (fun buf (name, health, err) ->
          Codec.add_str buf name;
          Codec.add_str buf health;
          match err with
          | None -> Codec.add_u8 buf 0
          | Some e ->
              Codec.add_u8 buf 1;
              Codec.add_str buf e)
        buf hs
  | Fingerprint_list fps ->
      Codec.add_u8 buf 0x86;
      add_list
        (fun buf (name, fp) ->
          Codec.add_str buf name;
          Codec.add_i64 buf fp)
        buf fps
  | Healed names ->
      Codec.add_u8 buf 0x87;
      add_list Codec.add_str buf names
  | Checkpointed { wal_offset } ->
      Codec.add_u8 buf 0x88;
      Codec.add_i64 buf wal_offset
  | Delta { epoch; updates } ->
      Codec.add_u8 buf 0x89;
      Codec.add_i64 buf epoch;
      add_list Codec.add_update buf updates
  | Err msg ->
      Codec.add_u8 buf 0x8A;
      Codec.add_str buf msg
  | Bye -> Codec.add_u8 buf 0x8B
  | Subscribed -> Codec.add_u8 buf 0x8C
  | Barrier_done { epoch } ->
      Codec.add_u8 buf 0x8E;
      Codec.add_i64 buf epoch
  | Ack_token { admitted; dropped; token } ->
      Codec.add_u8 buf 0x8F;
      Codec.add_u32 buf admitted;
      Codec.add_u32 buf dropped;
      Codec.add_i64 buf token
  | Token { watermark; version; base } ->
      Codec.add_u8 buf 0x90;
      Codec.add_i64 buf watermark;
      Codec.add_i64 buf version;
      Codec.add_i64 buf base

let encoded add v =
  let buf = Buffer.create 64 in
  add buf v;
  Buffer.contents buf

let encode_request r = encoded add_request r
let encode_response r = encoded add_response r
let write_request fd r = staged fd add_request r
let write_response fd r = staged fd add_response r

(* A request body after its opcode byte. An unknown opcode raises
   [Exit]. *)
let request_body body cur op =
  match op with
  | 0x01 -> Ping
  | 0x02 ->
      let view = Codec.str body cur in
      let prefix = Codec.tuple body cur in
      let token = Codec.i64 body cur in
      let timeout_ms = Codec.u32 body cur in
      let since = Codec.i64 body cur in
      Lookup { view; prefix; token; timeout_ms; since }
  | 0x04 -> Ingest (read_list Codec.update body cur)
  | 0x05 -> Subscribe
  | 0x06 -> Stats
  | 0x07 -> Health
  | 0x08 -> Fingerprints
  | 0x09 -> Heal
  | 0x0A -> Checkpoint
  | 0x0B -> Shutdown
  | 0x0D -> Sql (Codec.str body cur)
  | 0x0F -> Barrier
  | 0x10 -> Ingest_rw (read_list Codec.update body cur)
  | _ -> raise Exit

let health_entry body cur =
  let name = Codec.str body cur in
  let health = Codec.str body cur in
  let err = if Codec.u8 body cur = 0 then None else Some (Codec.str body cur) in
  (name, health, err)

let fingerprint_entry body cur =
  let name = Codec.str body cur in
  let fp = Codec.i64 body cur in
  (name, fp)

(* A response body after its opcode byte, like {!request_body}. *)
let response_body body cur op =
  match op with
  | 0x81 -> Pong
  | 0x82 ->
      let last, rev = chunk_body body cur [] in
      Chunk { last; entries = List.rev rev }
  | 0x83 ->
      let admitted = Codec.u32 body cur in
      let dropped = Codec.u32 body cur in
      Ack { admitted; dropped }
  | 0x84 -> Text (Codec.str body cur)
  | 0x85 -> Health_list (read_list health_entry body cur)
  | 0x86 -> Fingerprint_list (read_list fingerprint_entry body cur)
  | 0x87 -> Healed (read_list Codec.str body cur)
  | 0x88 -> Checkpointed { wal_offset = Codec.i64 body cur }
  | 0x89 ->
      let epoch = Codec.i64 body cur in
      let updates = read_list Codec.update body cur in
      Delta { epoch; updates }
  | 0x8A -> Err (Codec.str body cur)
  | 0x8B -> Bye
  | 0x8C -> Subscribed
  | 0x8E -> Barrier_done { epoch = Codec.i64 body cur }
  | 0x8F ->
      let admitted = Codec.u32 body cur in
      let dropped = Codec.u32 body cur in
      let token = Codec.i64 body cur in
      Ack_token { admitted; dropped; token }
  | 0x90 ->
      let watermark = Codec.i64 body cur in
      let version = Codec.i64 body cur in
      let base = Codec.i64 body cur in
      Token { watermark; version; base }
  | _ -> raise Exit

(* Run a body reader over a whole body after its opcode byte: every
   [Codec.Corrupt] becomes a [Decode] error, an unknown opcode a
   [Bad_op], and trailing bytes are rejected — a frame is exactly one
   message. *)
let decoding read body =
  if body = "" then Error (Decode "empty body")
  else
    let op = Char.code (String.unsafe_get body 0) in
    let cur = ref 1 in
    match read body cur op with
    | v -> if !cur = String.length body then Ok v else Error (Decode "trailing bytes")
    | exception Codec.Corrupt msg -> Error (Decode msg)
    | exception Exit -> Error (Bad_op op)

let decode_request body : (request, error) result = decoding request_body body
let decode_response body : (response, error) result = decoding response_body body

let decode_chunk body acc =
  if body <> "" && Char.code (String.unsafe_get body 0) = 0x82 then (
    let cur = ref 1 in
    match chunk_body body cur acc with
    | v -> if !cur = String.length body then Ok v else Error (Decode "trailing bytes")
    | exception Codec.Corrupt msg -> Error (Decode msg))
  else
    match decode_response body with
    | Ok (Err msg) -> Error (Remote msg)
    | Ok resp -> Error (Decode ("unexpected response " ^ response_name resp))
    | Error e -> Error e
