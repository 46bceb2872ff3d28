(** A SQL session over a {!Ivm_stream.Registry}: the catalog (tables,
    declared FDs, created views) plus the execution of statements. The
    registry owns the authoritative base database and keeps every
    SQL-created view current off the shared update stream — the same
    machinery the TCP server already uses, so a session can run
    standalone (CLI) or be grafted onto a serving registry (the wire's
    [CreateView]/[Explain] ops). *)

module Registry = Ivm_stream.Registry
module Value = Ivm_data.Value

type t

val create : ?registry:Registry.t -> unit -> t
(** Without [registry], a private one over an empty database. *)

val registry : t -> Registry.t

type result_set = {
  header : string list;
  rows : (Value.t list * int) list;
      (** (output tuple, payload): multiplicity for plain selects, the
          aggregate value for COUNT/SUM. Sorted. *)
}

type outcome =
  | Msg of string  (** DDL/DML acknowledgements *)
  | Rows of result_set
  | Explained of string

val exec :
  t -> ?params:Value.t list -> Ast.stmt -> (outcome, string) result
(** Execute one statement. A [SELECT] matching a created view's shape
    (same text modulo parameter values) is answered from the maintained
    view — the CQAP access-pattern lookup; any other [SELECT] runs one
    shot against the current base state. *)

val exec_text :
  t -> ?params:Value.t list -> string -> (outcome list, string) result
(** Parse and execute a whole [;]-separated script, stopping at the
    first error. *)

val view_names : t -> string list

val view_entries :
  t -> string -> ((Ivm_data.Tuple.t * int) list, string) result
(** The raw maintained output of a SQL-created view (epoch-consistent
    read) — what tests compare against a directly-built engine. *)

val explain_view : t -> string -> (string, string) result
(** The EXPLAIN report of an already-created view. *)

val render : outcome -> string
