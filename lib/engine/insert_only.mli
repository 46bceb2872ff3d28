(** Insert-only maintenance of the α-acyclic, non-q-hierarchical path
    join Q(A,B,C,D) = R(A,B)·S(B,C)·T(C,D) (Sec. 4.6): amortized O(1)
    per insert and O(1) enumeration delay via monotone activation —
    under inserts a tuple becomes "active" at most once, ever. With
    deletes the query is OuMv-hard (Thm. 4.1); {!With_deletes} is the
    first-order-delta baseline that pays the output-delta size. *)

module Tuple = Ivm_data.Tuple

type t

val create : unit -> t

val work : t -> int
(** Elementary operations so far; flat per insert in benchmarks. *)

val insert_r : t -> a:int -> b:int -> int -> unit
val insert_s : t -> b:int -> c:int -> int -> unit
val insert_t : t -> c:int -> d:int -> int -> unit
(** Inserts only; negative multiplicities are rejected. *)

val insert :
  ?emit:(Tuple.t -> int -> unit) -> t -> [ `R | `S | `T ] -> x:int -> y:int -> int -> unit
(** [insert t slot ~x ~y m] inserts (x, y) into [slot] like {!insert_r},
    {!insert_s} or {!insert_t}. [emit], when given, is then called on
    every output tuple the insert added, with its multiplicity: the
    output delta, at the cost of its size. *)

val enumerate : t -> (Tuple.t * int) Seq.t
(** Constant-delay: every visited entry emits, by the calibration
    invariants. *)

val output_size : t -> int

module With_deletes : sig
  type t

  val create : unit -> t
  val work : t -> int
  val update : t -> [ `R | `S | `T ] -> x:int -> y:int -> int -> unit
  val enumerate : t -> (Tuple.t * int) Seq.t
end
