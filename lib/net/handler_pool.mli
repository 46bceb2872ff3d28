(** The connection-handler pool of {!Server}: a fixed set of worker
    domains running one function over a queue of submitted items (the
    server's connections). *)

type 'a t

val create : workers:int -> ('a -> unit) -> 'a t
(** Spawn [workers] domains, each running the function on submitted
    items. *)

val submit : 'a t -> 'a -> unit
(** Queue one item and return immediately. At most [workers] items are
    run at once. An exception escaping the function is swallowed: it
    owns its error handling. Allocates nothing once the queue has grown
    to the largest backlog. *)

val destroy : 'a t -> unit
(** Run the items already submitted, then join the workers. The pool
    must not be used after. *)
