(** Fault-tolerant cluster router: shard-hash partitioned ingest over N
    {!Node}s, ring-sum merged reads, two-phase epoch-barrier consistent
    snapshots, health probing, and replica failover with exactly-once
    re-send accounting. Whole-view reads keep each view's merged answer
    with the per-shard versions it was merged from, and ask each shard
    only for its output delta since that version. See the
    implementation header for the failure model and the re-send
    soundness argument. *)

module D = Ivm_data
module Wire = Ivm_net.Wire

type t

val start :
  ?handlers:int ->
  ?queue_capacity:int ->
  ?checkpoint_every:int ->
  ?standby:bool ->
  ?probe_interval:float ->
  ?probe_failures:int ->
  ?auto_failover:bool ->
  ?timeout:float ->
  ?attempts:int ->
  ?backoff:float ->
  ?seed:int ->
  base_dir:string ->
  topology:Topology.t ->
  declare:(Ivm_stream.Registry.t -> unit) ->
  unit ->
  (t, string) result
(** Boot one node per shard under [base_dir]/shardN/primary (recovering
    any durable state already there), arm a warm standby per shard when
    [standby] (default true), and start the health prober when
    [probe_interval] > 0 (default 50 ms; [probe_failures] consecutive
    failed probes declare a primary dead and, when [auto_failover],
    promote). [timeout]/[attempts]/[backoff] parameterize the
    connection pool. *)

val stop : t -> unit
val shard_count : t -> int
val topology : t -> Topology.t
val shard_port : t -> shard:int -> int
val shard_sent : t -> shard:int -> int

(** {1 Ingest} *)

val ingest : t -> int D.Update.t list -> (int * int, string) result
(** Route a batch to owner shards and send; [(admitted,
    dead_lettered)]. Not idempotent: a transport failure against a
    live-but-slow shard is returned as an error without blind retry. A
    confirmed-dead shard is failed over in place and only the
    not-yet-durable suffix of the in-flight batch is re-sent. *)

val ingest_shard : t -> shard:int -> int D.Update.t list -> (int, string) result
(** Send a batch to one explicit shard, bypassing routing — for
    re-sending a lost range from a driver's send log (broadcast updates
    must not be re-routed to healthy shards). *)

val dead_letters : t -> int D.Update.t list
(** Updates that had no owner (unknown relation, or hash column out of
    range), oldest first. *)

val dead_letter_count : t -> int

val take_lost : t -> shard:int -> (int * int) list
(** Drain the shard's acked-but-lost ranges: each [(from, upto)] means
    send-log records with indices [from <= i < upto] (0-based, in send
    order) were acked by a primary that died before making them
    durable. The caller re-sends them via {!ingest_shard}. Empty when
    every kill was preceded by {!barrier}. *)

val has_lost : t -> shard:int -> bool
(** Whether the shard has published lost ranges not yet drained — a
    non-draining peek. Never use {!take_lost} to test for emptiness:
    it drains, and discarding the result silently abandons the
    records. *)

val reconcile_sent : t -> shard:int -> (int, string) result
(** Resolve an ambiguous ingest after a transport error that may have
    hidden an admission (the node admitted the batch, then the
    connection died before the ack crossed). Promotes the shard first
    if its primary is confirmed dead, fences it, and returns the
    node's absorbed record count — the authoritative number of records
    ever admitted from this router. The router's internal send counter
    is trued up to it; a driver compares the count against its own
    send log to learn how much of the failed batch actually landed,
    instead of blindly re-sending (which would duplicate records). *)

(** {1 Reads} *)

val lookup :
  t -> view:string -> prefix:D.Tuple.t -> ((D.Tuple.t * int) list, string) result
(** Route by the view's {!Topology.route}: [Keyed] with a non-empty
    prefix goes to the key's owner; [Replicated] reads any one healthy
    node; otherwise fan out and ring-sum merge ({!merge_entries}). The
    answer is ascending and zero-free; a shard answer that is not fails
    the read. Best-effort with respect to in-flight ingest (no
    barrier).

    A whole-view read (empty prefix) goes through the view's merged
    answer: each shard it reads is sent the version the merged answer
    holds of it ({!Ivm_net.Client.lookup}'s [since]), and the shard
    deltas that come back are added onto it with the same checked
    linear merge — an unchanged view costs each shard an empty answer.
    When any shard answers in full (a first read, a dropped or
    oversized pending delta, a reinstall, a restarted node), the shards
    that sent deltas are re-read in full and the merged answer is
    rebuilt from the full answers. A failover drops the merged answers
    that hold a version of the failed shard. Prefixed reads always read
    whole answers. *)

val lookup_full :
  t -> view:string -> prefix:D.Tuple.t -> ((D.Tuple.t * int) list, string) result
(** {!lookup} with every shard answer read whole ([since = 0]) and
    merged, leaving the merged answers alone: the cold read that a
    cached whole-view read must equal. *)

val merge_entries :
  (int * (D.Tuple.t * int) list) list -> ((D.Tuple.t * int) list, string) result
(** [merge_entries [(shard, answer); …]] is the ring sum of per-shard
    answers, the merge every read above runs (a one-shard read merges
    one answer). Each answer must be canonical, as a node serves it:
    strictly ascending by {!D.Tuple.compare} and free of zero payloads.
    The merge is then one linear pass per answer: equal tuples add
    their payloads and zero sums drop out, so the result is canonical
    too. An answer that is not canonical is an [Error] naming its shard
    (the [int]), never a wrong answer. *)

val snapshot : t -> view:string -> ((D.Tuple.t * int) list, string) result
(** Cluster-consistent enumeration: pause routed ingest (phase 1),
    fence every node with the barrier op (phase 2), then read and
    merge — the result never mixes epochs across nodes. *)

val fingerprint : t -> view:string -> (int, string) result
(** Order-insensitive digest of {!snapshot} — comparable against a
    single-node reference's view fingerprint. *)

val barrier : t -> (int array, string) result
(** The two-phase fence alone: every update admitted before the call
    is applied and durable everywhere when it returns (per-node epoch
    numbers, in shard order). Run before a planned kill to guarantee
    {!take_lost} stays empty. *)

val quiesced : t -> (unit -> 'a) -> ('a, string) result
(** Fence the cluster and run [f] while routed ingest is still paused —
    a kill inside [f] cannot lose acked records, and benches can
    measure promotion with nothing in flight. *)

val primary : t -> shard:int -> Node.t
(** The shard's current primary — an in-process escape hatch for
    harnesses inspecting registries/metrics directly. The handle goes
    stale across a failover. *)

(** {1 Failure handling} *)

val kill_primary : t -> shard:int -> unit
(** Crash the shard's primary ({!Node.kill}) and mark it dead — the
    test/bench hook. The prober or the next routed request triggers
    (or, with [auto_failover:false], surfaces) the failure. *)

val fail_over : t -> shard:int -> (float * int, string) result
(** Promote the shard now: fence the dead primary, retire the standby,
    restart from the durable directory on a fresh port, redirect the
    endpoint, re-arm a standby. Returns [(seconds, recovered)]. No-op
    [(0., sent)] if the primary is healthy. *)

(** {1 Status} *)

type shard_status = {
  shard : int;
  port : int;
  alive : bool;
  node_health : string;
  failovers : int;
  sent : int;
  applied : int;
  has_standby : bool;
  standby_lag : int option;  (** primary applied - standby applied *)
  lost_ranges : (int * int) list;
}

val status : t -> shard_status list
