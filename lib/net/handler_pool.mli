(** The connection-handler pool of {!Server}: a fixed set of worker
    domains draining one queue of fire-and-forget tasks. *)

type t

val create : workers:int -> t
(** Spawn [workers] domains. *)

val submit : t -> (unit -> unit) -> unit
(** Queue one task and return immediately. At most [workers] tasks run
    at once. An exception escaping a task is swallowed: the task owns
    its error handling. *)

val destroy : t -> unit
(** Run the tasks already submitted, then join the workers. The pool
    must not be used after. *)
