(** Queries over static and dynamic relations (Sec. 4.5): a variable
    order witnesses tractability in the mixed setting when updates to
    every dynamic relation propagate to the root with constant-time
    steps and the free variables form a connex top fragment. The checker
    is exhaustive (hence exact on its search space) for queries with at
    most {!max_search_vars} variables. *)

type kind = Static | Dynamic
type adornment = (string * kind) list

val kind_of : adornment -> string -> kind
(** Defaults to [Dynamic] for unlisted relations. *)

val max_search_vars : int


val is_witness : Cq.t -> adornment -> Variable_order.forest -> bool
(** The order is valid for the query, its free variables form a connex
    top fragment, and an update to every dynamic relation propagates
    to the root with constant-time steps. *)

val witness : Cq.t -> adornment -> Variable_order.forest option
(** A witness order: the canonical one if it qualifies, else the first
    found by the exhaustive search (only for ≤ {!max_search_vars}
    variables). *)

val all_dynamic : Cq.t -> adornment
(** With this adornment the class collapses to q-hierarchical (tested). *)
