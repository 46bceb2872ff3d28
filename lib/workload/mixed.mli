(** Multi-tenant mixed workloads for the ivmbench macro-benchmark.

    A {e tenant} is one materialized view plus the private, namespaced
    base tables that feed it, so tens-to-hundreds of heterogeneous
    views — q-hierarchical joins, triangle kernels, cascade joins,
    dataflow MIN/MAX and window views, and a closed-economy ring-sum
    view — coexist in one registry over one update stream. Generators
    draw keys from a Zipf whose hot set drifts on a seeded schedule,
    and the economy tenant emits debit/credit pairs that sum to zero by
    construction so the view total is a standing conservation
    invariant. *)

type kind = Join | Triangle | Cascade | Minmax | Window | Economy

val kind_name : kind -> string
val kind_char : kind -> char
val kind_of_char : char -> kind option

type tenant = {
  name : string;  (** view name, e.g. ["t3e"] *)
  kind : kind;
  index : int;
  tables : (string * string list) list;  (** namespaced table -> columns *)
  keys : int;  (** key-domain size the generators draw from *)
}

val tenant : index:int -> kind -> keys:int -> tenant

val tenants : views:int -> keys:int -> tenant list
(** [views] tenants cycling through all kinds, economy second so even a
    two-view mix carries the conservation invariant. *)

val of_tables : (string * string list) list -> tenant list
(** Reconstruct tenants from namespaced table schemas ([t<i><k>_<T>]);
    unparseable names are ignored and [keys] comes back [0] (factories
    do not need it). *)

val table : tenant -> string -> string
(** [table t "R"] is the namespaced table name; raises
    [Invalid_argument] if the tenant has no such table. *)

val factory : tenant -> Ivm_data.Database.Z.t -> Ivm_engine.Maintainable.t
(** Build the tenant's maintenance engine seeded from [db]'s current
    contents of its tables. *)

val initial_balance : int

val init_updates : tenant -> accounts:int -> int Ivm_data.Update.t list
(** Opening state: [accounts] economy accounts of {!initial_balance}
    each; empty for every other kind. *)

val expected_total : accounts:int -> int
val conservation_total : (Ivm_data.Tuple.t * int) list -> int

val check_conservation :
  tenant -> accounts:int -> (Ivm_data.Tuple.t * int) list -> (unit, string) result
(** [Ok ()] for non-economy tenants; for the economy, asserts the
    enumerated view total equals {!expected_total}. *)

val window_size : int
val window_lateness : int

(** Seeded hot-set drift: a pure function of [(seed, op / period)], so
    two generators with the same seed drift in lockstep and any run
    replays exactly. *)
module Drift : sig
  type t

  val create : seed:int -> keys:int -> period:int -> t
  (** [period <= 0] disables drift (phase is always 0). *)

  val phase : t -> op:int -> int
  val offset : t -> op:int -> int

  val key : t -> zipf:Zipf.t -> Random.State.t -> op:int -> int
  (** A Zipf draw rotated by the current phase's offset, in [1, keys]. *)
end

(** Stateful per-tenant update generator: one workload step per {!next}
    call. Deterministic given [(tenant, drift, seed, worker)]. *)
module Tgen : sig
  type t

  val create :
    ?worker:int ->
    ?workers:int ->
    ?zipf_s:float ->
    ?accounts:int ->
    tenant ->
    drift:Drift.t ->
    seed:int ->
    unit ->
    t
  (** Each worker owns a disjoint slice of the economy's accounts, so
      local balance tracking is globally exact and debits never
      overdraw. *)

  val next : t -> op:int -> int Ivm_data.Update.t list
  (** The updates for workload step [op]: a single insert/delete for
      most kinds, a zero-sum debit/credit pair for the economy (or []
      when the worker's slice has under two accounts). *)
end
