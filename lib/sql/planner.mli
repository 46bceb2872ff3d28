(** The strategy planner: given a lowered query, the declared FDs and
    the view options, classify the query once with
    {!Ivm_query.Taxonomy.analyze}, map the verdict to a maintenance
    engine and variable order, and record the classification facts that
    justify the choice — the substance of [EXPLAIN]. The planner adds
    only SQL decisions on top of the taxonomy: dataflow routing and
    kernel slot matching. Every engine it picks reports each batch's
    output delta ({!Ivm_engine.Maintainable.apply_delta}).

    Decision table (first match wins):

    + The select uses [MIN]/[MAX], [DISTINCT] or [WINDOW] → the dataflow
      operator graph ({!Ivm_dataflow.Graph}), the only engine with
      incremental rules for non-ring aggregates; the DAG is part of the
      EXPLAIN report.
    + [WITH (STATIC t)] → static/dynamic view tree over the verdict's
      order: the static/dynamic witness of
      {!Ivm_query.Static_dynamic.witness} (Sec. 4.5), or the stronger
      q-hierarchical / Σ-reduct order when one applies; without an
      order, over a free-first chain. Static relations are loaded once
      and excluded from the update stream.
    + [WITH (INSERT ONLY)] and the query is the 3-path full join
      [R(A,B), S(B,C), T(C,D)] → the monotone activation engine:
      amortized O(1) per insert despite the query not being
      q-hierarchical (Sec. 4.6).
    + The query is the triangle count
      ["COUNT(*)" over R(A,B), S(B,C), T(C,A)] → the first-order delta
      kernel, O(N) per single-tuple update (Sec. 3.1).
    + q-hierarchical, or its Σ-reduct under the declared FDs is
      (Thm. 4.11) → factorized view tree (F-IVM, the eager-fact
      strategy of Fig. 4) over the canonical free-top order — of the
      query or of the Σ-reduct — or over a free-first chain when the
      reduct's order puts a bound variable above a free one
      (constant-delay enumeration needs a free top).
    + Otherwise → factorized view tree over a free-first chain order
      (always valid, free-top by construction); updates may cost more
      than O(1) but enumeration stays constant-delay. *)

module Cq = Ivm_query.Cq
module Vo = Ivm_query.Variable_order
module Sd = Ivm_query.Static_dynamic

type role = { rel : string; flipped : bool }
(** A base table playing one of a kernel's fixed relation slots;
    [flipped] when the table's column order is the reverse of the
    kernel's schema for that slot. *)

type choice =
  | Tree of Vo.forest
  | Triangle of { r : role; s : role; t : role }
      (** First-order delta triangle kernel: roles R(A,B), S(B,C),
          T(C,A). *)
  | Monotone_path of { r : role; s : role; t : role }
      (** Insert-only path join: roles R(A,B), S(B,C), T(C,D). *)
  | Dataflow
      (** Operator-graph runtime ({!Ivm_dataflow.Graph}): mandatory for
          MIN/MAX, DISTINCT and WINDOW — {!Lower.needs_dataflow}. *)

type plan = {
  choice : choice;
  static : string list;  (** relations excluded from the update stream *)
  facts : string list;  (** classification facts justifying [choice] *)
}

val engine_name : plan -> string

val plan :
  ?sizes:(string * int) list ->
  ?fds:Ivm_query.Fd.t list ->
  opts:Ast.view_opt list ->
  Lower.t ->
  (plan, string) result
(** [sizes] are current base-relation cardinalities (recorded as a
    planning fact). *)

val explain : plan -> string
(** Multi-line report: [engine: <name>] then one [- fact] per line. *)
