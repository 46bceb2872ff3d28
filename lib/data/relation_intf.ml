(** The signature of {!Relation.Make}'s result, shared between the
    implementation and the interface of {!Relation}. See that module
    for the zero-elision invariant the operations maintain. *)

module type S = sig
  type payload
  (** One ring element; never zero once stored. *)

  type t

  val create : ?size:int -> Schema.t -> t
  val schema : t -> Schema.t

  val size : t -> int
  (** The number of entries — by zero elision, exactly the tuples with
      non-zero payload. *)

  val get : t -> Tuple.t -> payload
  (** Total: absent tuples read as the ring zero. *)

  val mem : t -> Tuple.t -> bool

  val add_entry : t -> Tuple.t -> payload -> unit
  (** Merge a payload delta into a tuple's entry with the ring add —
      the single-tuple update of the paper (insert for positive,
      delete for negated payloads). A zero delta is a no-op; an entry
      whose merged payload becomes zero is removed. *)

  val merge : t -> Tuple.t -> payload -> Tuple.t
  (** {!add_entry} in one probe that returns the key as stored (see
      {!Flat_tbl.merge}): a {!Tuple.scratch} key is copied only when it
      becomes a new entry, so a caller can index the stored copy. *)

  val set_entry : t -> Tuple.t -> payload -> unit
  (** Overwrite (not merge); setting zero removes the entry. *)

  val clear : t -> unit
  val iter : (Tuple.t -> payload -> unit) -> t -> unit
  val fold : (Tuple.t -> payload -> 'a -> 'a) -> t -> 'a -> 'a
  val to_seq : t -> (Tuple.t * payload) Seq.t

  val of_list : Schema.t -> (Tuple.t * payload) list -> t
  (** Entries are merged with {!add_entry}, so duplicates sum and zero
      sums vanish. *)

  val of_tuples : Schema.t -> Tuple.t list -> t
  (** Each tuple with multiplicity one. *)

  val copy : t -> t

  val equal : t -> t -> bool
  (** Extensional equality over the same (ordered) schema — sound as
      an entry-wise comparison only because neither side stores
      zeros. *)

  val union : t -> t -> t
  (** The paper's [⊎]: payload-wise addition. *)

  val join : t -> t -> t
  (** The paper's [·] over the union schema: output payloads are
      products of the matching input payloads. *)

  val aggregate : ?lift:(Value.t -> payload) -> t -> Schema.var -> t
  (** The paper's [Σ_X]: marginalize one variable, scaling each payload
      by the lifting of the marginalized value (default: counting). *)

  val project_onto : t -> Schema.t -> t
  (** Marginalize everything outside the target schema and reorder to
      it. *)

  val map_payloads : (payload -> payload) -> t -> t
  (** Zero results are dropped, preserving the invariant. *)

  val scalar : t -> payload
  (** The payload at the empty tuple — how scalar aggregates (e.g. the
      triangle count) are read off a relation over the empty schema. *)

  val sum_payloads : t -> payload
  val pp : Format.formatter -> t -> unit

  (** Secondary group index (Sec. 2): for a sub-schema [key] of the
      relation schema, constant-delay enumeration of the tuples
      agreeing on a key projection, maintained incrementally. The
      zero-elision invariant extends to groups: an empty group is
      removed, so [group_count]/[iter_keys] enumerate only keys with
      live tuples. *)
  module Index : sig
    type rel_t := t
    type t

    val create : rel_schema:Schema.t -> key:Schema.t -> t
    (** @raise Invalid_argument when [key] is not a sub-schema. *)

    val key_schema : t -> Schema.t

    val update : t -> Tuple.t -> payload -> unit
    (** Merge a payload delta for one tuple, as {!add_entry}. *)

    val of_relation : key:Schema.t -> rel_t -> t
    val clear : t -> unit
    val group_count : t -> int
    val group_size : t -> Tuple.t -> int
    val iter_group : t -> Tuple.t -> (Tuple.t -> payload -> unit) -> unit
    val seq_group : t -> Tuple.t -> (Tuple.t * payload) Seq.t
    val fold_group : t -> Tuple.t -> (Tuple.t -> payload -> 'a -> 'a) -> 'a -> 'a
    val iter_keys : t -> (Tuple.t -> unit) -> unit
    val seq_keys : t -> Tuple.t Seq.t
    val mem_key : t -> Tuple.t -> bool
  end
end
