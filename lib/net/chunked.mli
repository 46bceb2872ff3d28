(** A served view answer: the view's entries sorted by tuple and cut
    into immutable, pre-framed chunks of at most [chunk_size] entries —
    a persistent ordered map whose nodes are wire frames. {!patch} is
    copy-on-write: it re-frames only the chunks an output delta
    touches and shares the rest physically with its input, which stays
    valid for readers still serving it. Zero payloads are never
    stored. *)

type t

val build : chunk_size:int -> (Ivm_data.Tuple.t * int) list -> t
(** The answer over [entries] (any order; equal tuples are summed and
    zero payloads dropped). The empty answer is one empty final chunk.
    @raise Invalid_argument when [chunk_size < 1]. *)

val patch : t -> (Ivm_data.Tuple.t * int) list -> t * (Ivm_data.Tuple.t * int) array
(** [patch t delta] is [(t', d)]: [t'] the answer over [t]'s entries
    plus [delta] (Z-set addition; tuples may repeat), and [d] that
    delta in canonical form — sorted, equal tuples summed, zeros
    dropped — so that [t'] is [t] plus [d]. Chunks the delta does not
    touch keep their frames; an empty or all-zero delta returns [t]
    itself and [[||]]. *)

val of_canonical : chunk_size:int -> (Ivm_data.Tuple.t * int) array -> t
(** The answer over entries already in canonical form (a {!patch}
    delta), sliced without sorting again.
    @raise Invalid_argument when [chunk_size < 1]. *)

val size : t -> int
(** Entries in the answer. *)

val frames : t -> Bytes.t list
(** The answer's chunk frames in order; the final one is flagged
    [last]. *)

val iter : t -> (Ivm_data.Tuple.t -> int -> unit) -> unit
(** The entries in tuple order. *)
