(** Flat open-addressing hash tables keyed by {!Tuple.t} — the storage
    layer under {!Relation} and the scheduler's coalescing buffers.

    Three parallel arrays (inline memoized hashes, keys, values) with
    power-of-two capacity, robin-hood linear probing, and tombstone-free
    backward-shift deletion. Probes scan the int hash array and touch a
    key only on an exact hash match; inserts allocate nothing beyond
    the amortized array doubling. See [flat_tbl.ml] for the invariants.

    Not thread-safe for concurrent mutation; concurrent read-only
    probes of a quiescent table are safe. *)

type 'a t

val create : ?size:int -> 'a -> 'a t
(** [create ?size dummy] is an empty table with capacity for at least
    [size] entries. [dummy] fills empty value slots (typically the ring
    zero) so vacated entries keep no value alive; it is also what
    {!find_default} callers conventionally pass for "absent". *)

val length : 'a t -> int
val capacity : 'a t -> int

val mem : 'a t -> Tuple.t -> bool

val find_default : 'a t -> Tuple.t -> 'a -> 'a
(** The stored value, or the default when absent — the allocation-free
    probe. Under zero elision, passing the ring zero makes the default
    unambiguous. *)

val set : 'a t -> Tuple.t -> 'a -> unit
(** Insert or overwrite.
    @raise Invalid_argument when the key {!Tuple.is_scratch} — a
    mutable probe buffer must never become a stored key. *)

val merge :
  'a t -> Tuple.t -> 'a -> add:('a -> 'a -> 'a) -> is_zero:('a -> bool) -> Tuple.t
(** [merge t k d ~add ~is_zero] adds the payload delta [d] into [k]'s
    entry in one probe, under zero elision: an absent key is inserted
    with [d], an entry whose sum is zero is removed, a zero [d] is a
    no-op. A {!Tuple.scratch} [k] is copied ({!Tuple.freeze}) only when
    it becomes a stored key, so probing with a reused buffer allocates
    only for new entries. Returns the key as the table holds (or, after
    a removal, held) it — [k] itself when [d] is zero. *)

val reserve : 'a t -> int -> unit
(** [reserve t n] grows [t] once, if needed, so that [n] more entries
    fit without a resize — for bulk inserts, in particular of keys that
    arrive in another table's slot order. *)

val remove : 'a t -> Tuple.t -> unit
(** Backward-shift deletion: no tombstones, the probe chain is
    compacted in place. Absent keys are a no-op. *)

val clear : 'a t -> unit
(** Drop all entries but keep the arrays — the capacity-preserving
    reset that lets epoch-scoped accumulators reuse their buffers. *)

val iter : (Tuple.t -> 'a -> unit) -> 'a t -> unit
val fold : (Tuple.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val to_seq : 'a t -> (Tuple.t * 'a) Seq.t
(** Lazy enumeration of the contents at call time; unspecified (but
    memory-safe) under concurrent mutation, like stdlib [Hashtbl]. *)

val copy : 'a t -> 'a t

