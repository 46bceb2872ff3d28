(** A reusable fixed-size pool of OCaml 5 domains.

    [create ~domains:n] gives a pool of parallelism width [n]: [n - 1]
    worker domains plus the submitting domain, which helps execute tasks
    while waiting — [~domains:1] degenerates to a plain sequential loop
    with no spawning or locking. Workers are spawned once and reused
    across batches.

    The pool schedules independent closures; the soundness argument for
    running maintenance work concurrently (ring commutativity, one
    writer per relation or view) lives with the callers. *)

type t

val create : domains:int -> t
(** @raise Invalid_argument when [domains < 1]. *)

val width : t -> int
(** The parallelism width [n] passed to {!create}. *)

val run : t -> (unit -> unit) list -> unit
(** Execute every task, returning when all have finished (a barrier).
    Tasks run in an unspecified order, possibly concurrently; they must
    not contend on shared mutable state. The first exception raised by
    any task is re-raised after the barrier. *)

val submit : t -> (unit -> unit) -> unit
(** Fire-and-forget: hand one task to a worker domain and return
    immediately. For long-lived tasks (connection handlers) that must
    not ride a {!run} barrier. Only the [width - 1] worker domains
    execute submitted tasks, so at most that many run concurrently; a
    width-1 pool runs the task inline on the submitting domain.
    Escaping exceptions are swallowed — the task owns its error
    handling. {!destroy} drains already-submitted tasks before
    returning. *)

val fold : t -> add:('a -> 'a -> 'a) -> zero:'a -> (unit -> 'a) list -> 'a
(** Run the tasks and combine their results with [add] in an unspecified
    order — sound when [add] is commutative and associative, which is
    what the ring structure of payloads guarantees (Sec. 2). *)

val chunk_bounds : t -> int -> (int * int) list
(** [chunk_bounds pool n] splits [0..n-1] into at most [width pool]
    contiguous [(offset, length)] chunks, for chunk-per-task fan-out
    over arrays. *)

val destroy : t -> unit
(** Stop and join the worker domains. The pool must not be used after. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool, destroying it on
    exit (also on exceptions). *)
