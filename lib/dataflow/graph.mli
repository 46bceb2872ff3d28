(** Composable delta-propagating operator DAGs (DBSP-style).

    Operators consume and emit Z-set deltas — coalesced
    [(tuple, multiplicity)] maps over the integer ring, one reusable
    accumulator per node — pushing each epoch's batch through the
    nodes in topological order. Linear operators (filter, project,
    aggregate-with-lift) are stateless; [join] keeps both input
    integrals indexed on the shared columns and applies
    ΔQ = ΔR⋈S + R⋈ΔS + ΔR⋈ΔS; [distinct] integrates its input and
    emits the ±1 zero-crossings of the Boolean-semiring image;
    [extrema] (every MIN/MAX of one select) keeps one ordered value
    multiset per group and value column and re-reads it when a
    currently served extremum is deleted; [window] buckets rows into
    tumbling panes by an integer event-time column and retracts whole
    panes once the watermark (max event time seen on inserts) passes
    their end plus the allowed lateness — late arrivals for retracted
    panes are dropped. A batch is judged late against the watermark at
    its start and expired against the one at its end, so its order is
    moot.

    Zero-elision invariant: no materialized state (join indexes, the
    distinct multiset, extrema multisets, pane accumulators, view
    outputs) ever stores a zero payload.

    Nodes may feed any number of consumers and sources are hash-consed
    per (relation, schema) — common sub-operators are physically shared
    between the views registered on one graph. *)

type t
type node
type delta = (Ivm_data.Tuple.t * int) list

type dir = Asc | Desc

val create : unit -> t

(** {1 Operator algebra} *)

val source : t -> rel:string -> schema:string list -> node
(** Subscribe to base relation [rel] under the given column names.
    Hash-consed: an identical subscription returns the existing node. *)

val filter : t -> ?label:string -> (Ivm_data.Tuple.t -> bool) -> node -> node
(** Stateless predicate; [label] only decorates {!describe}. *)

val project : t -> cols:string list -> node -> node
(** Multiplicity-summing projection onto [cols] — aggregation with the
    unit lift. *)

val aggregate :
  t -> ?lift:(Ivm_data.Tuple.t -> int) -> ?label:string -> group:string list -> node -> node
(** Linear ring aggregate: each input delta [(t, m)] contributes
    [m * lift t] to its group's payload. The default lift is [1]
    (COUNT); lifting a column's value gives SUM. *)

val join : t -> node -> node -> node
(** Natural join on the shared column names; output schema is the left
    schema followed by the right side's own columns. Rejects inputs
    with no shared column. *)

val distinct : t -> node -> node
(** Boolean-semiring image: a tuple is present with payload 1 iff its
    integrated input multiplicity is positive. *)

val extrema : t -> group:string list -> aggs:(dir * string) list -> node -> node
(** Every MIN/MAX of one select over [group]: per group, one ordered
    value multiset per distinct column of [aggs] (MIN(v) and MAX(v)
    share one), emitted as the single row [(group..., extremum...)]
    with payload 1 — [Asc] is MIN, [Desc] is MAX, in [aggs] order —
    and retracted when the group empties. The aggregate columns are
    named [MIN(col)] / [MAX(col)]. [group] may be empty: one scalar
    row over the whole input.
    @raise Invalid_argument when [aggs] is empty. *)

val window :
  t ->
  ?lateness:int ->
  ?lift:(Ivm_data.Tuple.t -> int) ->
  time:string ->
  size:int ->
  group:string list ->
  node ->
  node
(** Windowed ring aggregate over integer event-time column [time]:
    output rows are [(pane_start, group...)] with the aggregated
    payload, one tumbling pane per [size] ticks covering
    [[pane_start, pane_start + size)]. Once the watermark
    passes a pane's end plus [lateness], the pane's rows are retracted
    from the output, its state dropped, and later arrivals for it are
    counted in {!late_drops} instead of applied. *)

val output : t -> name:string -> node -> unit
(** Register [node] as named view: its deltas are folded into a
    materialized output Z-set served by {!entries}. *)

val node_schema : node -> string list
(** The column names a node emits — what a downstream operator joins or
    groups on. *)

(** {1 Epoch propagation} *)

val apply : t -> int Ivm_data.Update.t list -> unit
(** Push one epoch's batch through the DAG, fed straight into the
    sources' accumulators, and fold each view's output delta in. *)

val apply_delta : t -> int Ivm_data.Update.t list -> view:string -> delta
(** {!apply}, returning the named view's output delta for the batch —
    the coalesced change folded into its materialized output.
    @raise Invalid_argument when [view] is not registered. *)

(** {1 Reads} *)

val entries : t -> string -> (Ivm_data.Tuple.t * int) list
(** The named view's materialized output in canonical order (sorted by
    tuple; zero payloads never stored). *)

val output_count : t -> string -> int

val iter_output : t -> string -> (Ivm_data.Tuple.t -> int -> unit) -> unit
(** The named view's materialized output, in unspecified order, without
    building a copy. *)

val view_names : t -> string list
val view_schema : t -> string -> Ivm_data.Schema.t

val relations : t -> string list
(** Base relations the graph subscribes to, sorted, deduplicated. *)

(** {1 Introspection} *)

val node_count : t -> int

val rescans : t -> int
(** Extrema re-reads forced by deleting a currently served value, one
    per aggregate whose value left its multiset. *)

val late_drops : t -> int
(** Window rows dropped because their pane was already retracted. *)

val retracted_panes : t -> int

val describe : t -> string list
(** One line per node in topological order — the operator DAG that
    EXPLAIN emits. *)

val state_fingerprint : t -> int
(** Order-independent digest over every operator's internal state and
    the materialized outputs — compare a restored graph against the
    original. *)
