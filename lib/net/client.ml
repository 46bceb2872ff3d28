(** The blocking OCaml client for the {!Wire} protocol. One connection
    per value; not domain-safe — give each domain its own connection
    (the ivmbench closed loop does exactly that). Every
    call is result-typed over {!Wire.error}; a server-side [Err] frame
    surfaces as [Error (Remote _)]. *)

module Tuple = Ivm_data.Tuple
module Update = Ivm_data.Update

let ( let* ) = Result.bind

(* A peer that dies mid-request (crash, kill, failover) must surface as
   [Error (Io "EPIPE")] on the next write, not as a process-killing
   SIGPIPE. Module init is good enough: anything that can write to a
   socket links this module. *)
let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

type t = { fd : Unix.file_descr; mutable closed : bool }

(* [SO_RCVTIMEO]/[SO_SNDTIMEO] bound every blocking socket call,
   including [connect] itself on Linux — the expired deadline surfaces
   from {!Wire} as [Error Timeout] instead of hanging on a dead peer.
   [None]/[0.] means block forever (the pre-deadline behaviour). *)
let apply_timeout fd = function
  | None -> ()
  | Some d ->
      let d = if d <= 0. then 0. else d in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO d;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO d

(* The fd is closed on every path that does not return it. *)
let connect ?(host = "127.0.0.1") ?timeout ~port () =
  match Wire.address host port with
  | Error e -> Error e
  | Ok addr -> (
      match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) -> Error (Wire.Io (Unix.error_message e))
      | fd -> (
          match
            Unix.setsockopt fd Unix.TCP_NODELAY true;
            apply_timeout fd timeout;
            Unix.connect fd addr
          with
          | () -> Ok { fd; closed = false }
          | exception e -> (
              (try Unix.close fd with Unix.Unix_error _ -> ());
              match e with
              | Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINPROGRESS | Unix.ETIMEDOUT), _, _)
                ->
                  Error Wire.Timeout
              | Unix.Unix_error (e, _, _) -> Error (Wire.Io (Unix.error_message e))
              | e -> raise e)))

let set_timeout t d =
  if not t.closed then
    try apply_timeout t.fd (Some (Option.value d ~default:0.))
    with Unix.Unix_error _ -> ()

(* Which failures are safe to retry on a fresh connection? [Timeout]
   and [Closed]/[Eof]/[Io] mean the op may never have reached the
   server; [Remote] means it did and was rejected — retrying would just
   repeat the rejection (or worse, re-run a non-idempotent op). *)
let retryable = function
  | Wire.Timeout | Wire.Closed | Wire.Eof | Wire.Truncated | Wire.Io _ -> true
  | Wire.Too_large _ | Wire.Crc_mismatch _ | Wire.Bad_op _ | Wire.Decode _
  | Wire.Remote _ ->
      false

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let send t req = if t.closed then Error Wire.Closed else Wire.write_request t.fd req
let recv_body t = if t.closed then Error Wire.Closed else Wire.read_frame t.fd

let recv t =
  match recv_body t with Ok body -> Wire.decode_response body | Error e -> Error e

let unexpected resp =
  Error (Wire.Decode ("unexpected response " ^ Wire.response_name resp))

let rpc t req = match send t req with Ok () -> recv t | Error e -> Error e

(* Drain [Chunk] frames until the [last] one: every chunk's entries go
   onto one reversed accumulator, reversed once at the end. *)
let rec read_entries t acc =
  match recv_body t with
  | Error e -> Error e
  | Ok body -> (
      match Wire.decode_chunk body acc with
      | Error e -> Error e
      | Ok (true, acc) -> Ok (List.rev acc)
      | Ok (false, acc) -> read_entries t acc)

(* A response handed to [ok], which names the one it expects: an [Err]
   answer is [Error (Remote _)], a transport error passes through. The
   callers' [ok] functions capture nothing, so the call allocates no
   closure. *)
let answered r ok =
  match r with
  | Ok (Wire.Err msg) -> Error (Wire.Remote msg)
  | Ok resp -> ok resp
  | Error e -> Error e

let ping t = answered (rpc t Wire.Ping) (function Wire.Pong -> Ok () | resp -> unexpected resp)

type answer = {
  watermark : int;
  version : int;
  delta : bool;
  entries : (Tuple.t * int) list;
}

let lookup ?(token = 0) ?(timeout_ms = 5_000) ?(since = 0) t ~view ~prefix =
  match rpc t (Wire.Lookup { view; prefix; token; timeout_ms; since }) with
  | Ok (Wire.Token { watermark; version; base }) -> (
      match read_entries t [] with
      | Error e -> Error e
      | Ok _ when base <> 0 && base <> since ->
          Error (Wire.Decode (Printf.sprintf "delta from version %d, not %d" base since))
      | Ok entries -> Ok { watermark; version; delta = base <> 0; entries })
  | Ok (Wire.Err msg) -> Error (Wire.Remote msg)
  | Ok resp -> unexpected resp
  | Error e -> Error e

let snapshot t ~view = Result.map (fun a -> a.entries) (lookup t ~view ~prefix:Tuple.unit)

let ingest t updates =
  answered (rpc t (Wire.Ingest updates)) (function
    | Wire.Ack { admitted; dropped } -> Ok (admitted, dropped)
    | resp -> unexpected resp)

let subscribe t =
  answered (rpc t Wire.Subscribe) (function Wire.Subscribed -> Ok () | resp -> unexpected resp)

let next_delta t =
  answered (recv t) (function
    | Wire.Delta { epoch; updates } -> Ok (epoch, updates)
    | resp -> unexpected resp)

let stats t = answered (rpc t Wire.Stats) (function Wire.Text s -> Ok s | resp -> unexpected resp)

let health t =
  answered (rpc t Wire.Health) (function Wire.Health_list hs -> Ok hs | resp -> unexpected resp)

let fingerprints t =
  answered (rpc t Wire.Fingerprints) (function
    | Wire.Fingerprint_list fps -> Ok fps
    | resp -> unexpected resp)

let heal t =
  answered (rpc t Wire.Heal) (function Wire.Healed names -> Ok names | resp -> unexpected resp)

let checkpoint t =
  answered (rpc t Wire.Checkpoint) (function
    | Wire.Checkpointed { wal_offset } -> Ok wal_offset
    | resp -> unexpected resp)

let shutdown t = answered (rpc t Wire.Shutdown) (function Wire.Bye -> Ok () | resp -> unexpected resp)

let barrier t =
  answered (rpc t Wire.Barrier) (function
    | Wire.Barrier_done { epoch } -> Ok epoch
    | resp -> unexpected resp)

let sql t text =
  answered (rpc t (Wire.Sql text)) (function Wire.Text s -> Ok s | resp -> unexpected resp)

let ingest_rw t updates =
  answered (rpc t (Wire.Ingest_rw updates)) (function
    | Wire.Ack_token { admitted; dropped; token } -> Ok (admitted, dropped, token)
    | resp -> unexpected resp)

(* Read-your-writes sessions: the token of the last acknowledged write
   rides every read, and the server's reported watermark is re-checked
   client-side — a server that served a stale snapshot (failpoint, bug,
   failover to a lagging replica) is caught here, not trusted. *)
module Session = struct
  type client = t
  type t = { client : client; mutable token : int }

  let create client = { client; token = 0 }
  let client s = s.client
  let token s = s.token
  let reattach s client = { client; token = s.token }

  let write s updates =
    let* admitted, dropped, token = ingest_rw s.client updates in
    if token > s.token then s.token <- token;
    Ok (admitted, dropped)

  let read ?timeout_ms s ~view ~prefix =
    let* { watermark; entries; _ } = lookup ~token:s.token ?timeout_ms s.client ~view ~prefix in
    if watermark < s.token then
      Error
        (Wire.Remote
           (Printf.sprintf
              "read-your-writes violated: served watermark %d behind session token %d"
              watermark s.token))
    else Ok entries
end
