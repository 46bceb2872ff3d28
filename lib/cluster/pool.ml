(** Per-node connection pooling with deadlines and bounded
    jittered-backoff retry.

    An {!endpoint} is a mutable address slot: the router points one at
    each shard's current primary and {!redirect}s it on failover, which
    bumps a generation counter so connections dialed against the dead
    primary are discarded instead of being returned to the pool.
    Checked-out connections are per-caller (a {!Ivm_net.Client.t} is
    not domain-safe), so concurrent domains each get their own.

    {!run} retries only failures {!Ivm_net.Client.retryable} classifies
    as transport-level ([Timeout]/[Closed]/[Eof]/[Io]): the request may
    never have reached the server, so re-sending an idempotent op is
    safe. A [Remote] answer is the server speaking — retrying would
    only repeat it — and is returned as-is. Backoff between attempts is
    exponential with seeded jitter, so a thundering herd of retriers
    decorrelates deterministically under test seeds.

    The [cluster.conn] failpoint fires on checkout — the seam the
    kill-schedule property tests use to inject connection failures on
    the router path without touching a socket. [cluster.ack] fires
    after a served request and drops its answer as a dead connection
    would: the request took effect, but the caller sees a transport
    error. *)

module Client = Ivm_net.Client
module Wire = Ivm_net.Wire
module Fp = Ivm_fault.Failpoint

type endpoint = {
  host : string;
  mutable port : int;
  mutable idle : Client.t list;
  mutable generation : int;
  ep_mutex : Mutex.t;
}

type t = {
  timeout : float;
  attempts : int;
  backoff : float;
  max_backoff : float;
  max_idle : int;
  rng : Random.State.t;
  rng_mutex : Mutex.t;
}

let create ?(timeout = 2.0) ?(attempts = 3) ?(backoff = 0.01) ?(max_backoff = 0.25)
    ?(max_idle = 8) ?(seed = 0) () =
  if attempts < 1 then invalid_arg "Pool.create: attempts < 1";
  {
    timeout;
    attempts;
    backoff;
    max_backoff;
    max_idle;
    rng = Random.State.make [| seed; 0x9E3779B9 |];
    rng_mutex = Mutex.create ();
  }

let timeout t = t.timeout

let endpoint ?(host = "127.0.0.1") ~port () =
  { host; port; idle = []; generation = 0; ep_mutex = Mutex.create () }

let port ep = Mutex.protect ep.ep_mutex (fun () -> ep.port)

let drain ep =
  let idle = Mutex.protect ep.ep_mutex (fun () ->
      let idle = ep.idle in
      ep.idle <- [];
      idle)
  in
  List.iter Client.close idle

let redirect ep ~port =
  Mutex.protect ep.ep_mutex (fun () ->
      ep.port <- port;
      ep.generation <- ep.generation + 1);
  drain ep

(* Checkout: reuse an idle connection or dial a fresh one against the
   endpoint's current address, tagged with the generation it was dialed
   at so a later checkin can tell whether a failover superseded it. *)
let checkout t ep =
  match Fp.hit "cluster.conn" with
  | Some Fp.Fail -> Error (Wire.Io "injected connection failure")
  | other -> (
      (match other with Some (Fp.Delay d) -> Unix.sleepf d | _ -> ());
      let cached, port, gen =
        Mutex.protect ep.ep_mutex (fun () ->
            match ep.idle with
            | c :: rest ->
                ep.idle <- rest;
                (Some c, ep.port, ep.generation)
            | [] -> (None, ep.port, ep.generation))
      in
      match cached with
      | Some c -> Ok (c, gen)
      | None ->
          Result.map
            (fun c -> (c, gen))
            (Client.connect ~host:ep.host ~timeout:t.timeout ~port ()))

let checkin t ep conn gen =
  let keep =
    Mutex.protect ep.ep_mutex (fun () ->
        if gen = ep.generation && List.length ep.idle < t.max_idle then begin
          ep.idle <- conn :: ep.idle;
          true
        end
        else false)
  in
  if not keep then Client.close conn

let jittered_sleep t k =
  let r = Mutex.protect t.rng_mutex (fun () -> Random.State.float t.rng 1.0) in
  let d = t.backoff *. (2. ** float_of_int k) *. (0.5 +. r) in
  Unix.sleepf (Float.min d t.max_backoff)

let run ?attempts t ep f =
  let attempts = Option.value attempts ~default:t.attempts in
  let rec go k last =
    if k >= attempts then Error last
    else begin
      if k > 0 then jittered_sleep t (k - 1);
      match checkout t ep with
      | Error e when Client.retryable e -> go (k + 1) e
      | Error e -> Error e
      | Ok (conn, gen) -> (
          match f conn with
          | Ok _ when Fp.hit "cluster.ack" = Some Fp.Fail ->
              Client.close conn;
              go (k + 1) (Wire.Io "injected lost answer")
          | Ok v ->
              checkin t ep conn gen;
              Ok v
          | Error e when Client.retryable e ->
              (* The connection is suspect (dead peer, torn stream):
                 never pool it again. *)
              Client.close conn;
              go (k + 1) e
          | Error e ->
              (* A remote/decode answer arrived over a healthy stream —
                 the connection is fine, the answer is final. *)
              checkin t ep conn gen;
              Error e)
    end
  in
  go 0 Wire.Closed

let run_once t ep f = run ~attempts:1 t ep f
