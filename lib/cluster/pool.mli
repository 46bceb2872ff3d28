(** Per-node connection pooling with deadlines and bounded
    jittered-backoff retry — the router's transport layer.

    Every dialed connection carries the pool's per-op deadline
    ({!Ivm_net.Client.connect}'s [timeout]), so a dead peer costs a
    bounded [Timeout], never a hang. {!run} retries only transport
    failures ({!Ivm_net.Client.retryable}) with exponential backoff and
    seeded jitter; server answers ([Remote]) are final. Endpoints are
    mutable address slots: {!redirect} repoints one at a promoted
    replica and generation-tags the pool so stale connections are
    discarded, which is how in-flight requests re-route across a
    failover. For seeded fault-schedule tests, the [cluster.conn]
    failpoint fails a checkout, and [cluster.ack] drops the answer of a
    request the peer has already served. *)

module Client = Ivm_net.Client
module Wire = Ivm_net.Wire

type t
type endpoint

val create :
  ?timeout:float ->
  ?attempts:int ->
  ?backoff:float ->
  ?max_backoff:float ->
  ?max_idle:int ->
  ?seed:int ->
  unit ->
  t
(** Defaults: 2 s per-op deadline, 3 attempts, 10 ms base backoff
    doubling per attempt with jitter in [0.5, 1.5), capped at 250 ms,
    at most 8 pooled idle connections per endpoint. *)

val timeout : t -> float

val endpoint : ?host:string -> port:int -> unit -> endpoint
val port : endpoint -> int

val redirect : endpoint -> port:int -> unit
(** Point the endpoint at a new address (failover). Bumps the
    generation: pooled and in-flight connections dialed before the
    redirect are closed instead of reused. *)

val drain : endpoint -> unit
(** Close every pooled idle connection. *)

val run :
  ?attempts:int ->
  t ->
  endpoint ->
  (Client.t -> ('a, Wire.error) result) ->
  ('a, Wire.error) result
(** Check out a connection (pooled or fresh), run [f], return the
    connection to the pool on success. Transport failures retry up to
    [attempts] times (default: the pool's) on fresh connections with
    jittered backoff; only use this for idempotent ops. *)

val run_once :
  t -> endpoint -> (Client.t -> ('a, Wire.error) result) -> ('a, Wire.error) result
(** One attempt, no retry — for non-idempotent ops (ingest), where the
    caller must decide re-send safety (e.g. only after the peer is
    confirmed dead). *)
