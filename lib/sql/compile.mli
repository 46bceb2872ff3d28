(** From a plan to a running engine: build the {!Ivm_engine.Maintainable}
    handle the registry / server / CLI host for a SQL-created view.

    The wrapper around the chosen engine owns the SQL-specific residue:

    - constant-predicate {e filters} are applied to the initial load and
      to every incoming update (selections commute with deltas);
    - updates to [STATIC] relations are dropped (and the handle's
      [relations] list omits them, so the registry never routes them);
    - for the fixed-schema kernels (triangle, monotone path) updates are
      translated from table names and column orders onto the kernel's
      R/S/T slots, flipping binary tuples where the declaration order is
      reversed;
    - a [SUM(c)] view folds [Σ c·multiplicity] out of the trailing free
      column at read time, so [enumerate]/[output_count]/[fingerprint]
      describe the user-visible grouped sums. SUM columns must hold
      integers;
    - a {!Planner.Dataflow} plan compiles onto an
      {!Ivm_dataflow.Graph}: sources (with filter nodes for constant
      predicates), left-deep natural joins, then the distinct /
      extrema / window tail, grouped on the plain select columns.
      Initial data is pushed through the graph directly so [STATIC]
      tables reach the operators. *)

type source = (string * Ivm_data.Relation.Z.t) list
(** Current table contents, keyed by table name; tuple fields are in
    declaration (column) order. *)

val build :
  name:string ->
  Lower.t ->
  Planner.plan ->
  source ->
  (Ivm_engine.Maintainable.t, string) result

val dag : name:string -> Lower.t -> (string list, string) result
(** The operator DAG a {!Planner.Dataflow} plan would run on — built
    empty, one {!Ivm_dataflow.Graph.describe} line per node — for
    EXPLAIN. [Error] when the select cannot lower onto a graph (e.g. a
    disconnected join). *)
