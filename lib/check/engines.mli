(** The differential engine matrix: every maintenance implementation in
    the library wrapped as a uniform driver the harness can feed one
    epoch at a time and enumerate in canonical form. Per family:

    - [Join]: the factorized view tree; the four Fig. 4 strategies
      (sequential) and the two lazy kinds again over a domain pool; the
      [Scheduler]+[Registry] streaming path (WAL + mid-stream checkpoint,
      with a kill-and-replay {!driver.self_check}); a loopback
      [Net.Client] against a real TCP server.
    - [Triangle]: first-order delta and single-view kernels, IVM^ε, the
      polarized batch fronts (sequential and pooled), streaming and net.
    - [Kclique]: the maintained count and its from-scratch recompute.
    - [Static_dynamic]: the Sec. 4.5 engine, its all-dynamic twin, a
      plain view tree over the same order, and the dataflow operator
      graph over the fixed (connected) query.
    - [Minmax]: the dataflow operator graph (shared source feeding MIN
      and MAX extremum nodes, renamed and natural-joined on the group —
      with a from-scratch state-fingerprint rebuild as its
      {!driver.self_check}), the same graph behind the streaming,
      net and cluster paths (group-hash partitioned, scattered reads),
      and the SQL front end lowering [SELECT g, MIN(v), MAX(v)].
    - [Mixed]: several {!Ivm_workload.Mixed} tenants at once — the
      [mixed] direct driver (one supervised registry holding every
      tenant view) plus the streaming, net and cluster paths with one
      registered view per tenant. Enumerations are the union of
      per-view entries, each tagged with a leading view-name column;
      the cluster path hash-partitions each tenant's pivot table and
      ring-sums the scattered per-view partials.

    The [Join] matrix also gains the [dataflow] driver whenever the
    generated query is connected with distinct per-atom columns — the
    shapes the operator graph's natural join can express.

    The deliberately injectable bug: while the {!bug_failpoint} is armed
    (via [Ivm_fault.Failpoint]), the [view-tree], [tri-delta] and
    [mixed] drivers silently drop delete-polarity updates — the
    regression the fuzz smoke proves it can catch and shrink. *)

type driver = {
  name : string;
  apply : int Ivm_data.Update.t list -> unit;  (** absorb one epoch *)
  enumerate : unit -> (Ivm_data.Tuple.t * int) list;
      (** current output, already {!Oracle.normalize}d *)
  self_check : unit -> string option;
      (** end-of-stream internal cross-checks (durability paths);
          [Some msg] is reported as a divergence of this engine *)
  finish : unit -> unit;  (** release pools, sockets, domains, files *)
}

val bug_failpoint : string
(** ["check.drop_delete"] — arm it with [times:max_int] to make the
    susceptible drivers lose deletes. *)

val names : Case.t -> string list
(** The engines applicable to a case's family, in build order. *)

val all_names : string list

val build :
  dir:string -> ?select:string list -> Case.t -> (string * (unit -> driver)) list
(** The matrix over the case's initial database, as named constructors —
    deferred so a crashing build is a recordable divergence of that one
    engine, not a harness failure. [dir] is a scratch directory for
    WAL/checkpoint files (the caller owns its lifecycle). [select] keeps
    only the named engines (unknown names are ignored; an empty
    selection builds everything). *)

val rm_rf : string -> unit
(** Remove a file or a directory tree; an absent path is fine. *)
