(** Tuples: immutable arrays of values, positionally aligned with a
    {!Schema}, carrying a memoized structural hash so hash-table probes
    and resizes do not re-traverse the value array. The empty tuple is
    the tuple over the empty schema — the key of fully aggregated
    (scalar) views. *)

type t

val unit : t
(** The empty tuple [()]. *)

val of_list : Value.t list -> t

val of_array : Value.t array -> t
(** [of_array vs] is the tuple of [vs], without a copy: the caller
    hands the array over and must never write to it again. For
    decoders that fill a fresh array. *)

val to_list : t -> Value.t list

val of_ints : int list -> t
(** Convenience: a tuple of integer values. *)

val init : int -> (int -> Value.t) -> t
(** [init n f] is the tuple [(f 0, ..., f (n-1))]. *)

val arity : t -> int
val get : t -> int -> Value.t
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Structural hash, computed on first use and cached. Safe to read
    from several domains: racing computations store the same value. *)

val project : t -> int array -> t
(** [project t idxs] picks the fields of [t] at positions [idxs]; used
    with {!Schema.projection}. *)

val append : t -> t -> t

val scratch : int -> t
(** A mutable probe buffer of arity [n] (fields initialised to [Int 0]).
    Fill it with {!set} and use it as a lookup key; reusing one buffer
    across probes keeps hot enumeration loops allocation-free.

    {b Invariant}: a scratch tuple must {e never} be stored as a
    hash-table key — it keeps mutating after the store, which would
    leave the entry unreachable under its stale inline hash and corrupt
    the table. The storage layer enforces this: {!Flat_tbl.set} (and so
    {!Relation.S.add_entry}/{!Relation.S.set_entry}) raises
    [Invalid_argument] on a key for which {!is_scratch} is true, and
    the find-or-insert {!Flat_tbl.merge} (and so {!Relation.S.merge}
    and the group indexes) stores a {!freeze} copy instead. Probing
    ([get]/[mem]/index lookups) is always fine, and {!project}/{!append}
    return fresh immutable tuples that are safe to store. *)

val is_scratch : t -> bool
(** Whether this tuple is a mutable {!scratch} buffer. One field read;
    checked by {!Flat_tbl} on every store. *)

val set : t -> int -> Value.t -> unit
(** [set t i v] overwrites field [i] (invalidating the cached hash).
    Only meaningful on {!scratch} buffers. *)

val freeze : t -> t
(** [freeze t] is [t] itself unless it is a {!scratch} buffer, then an
    immutable copy of its current fields — what a table stores when a
    scratch probe key becomes a stored key. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Hash tables keyed by tuples. *)
module Tbl : Hashtbl.S with type key = t
