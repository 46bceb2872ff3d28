(** Seeded fault-injection soaks of the durable serving pipeline, and
    the sharded deployment demo — the drivers behind [ivm_cli chaos]
    and [ivm_cli cluster], callable from tests. They return results;
    the CLI prints them.

    A soak runs one deterministic stream twice: through a fault-free
    reference, and under a scenario's seeded fault schedule
    ({!Ivm_fault.Failpoint}). Single node, the stream goes through WAL
    + checkpoints + the supervised registry, and every durability error
    is a crash recovered by {!Ivm_stream.Durable.recover}. Sharded, it
    goes through a 2-shard {!Ivm_cluster.Router} fed by an exactly-once
    {!Ivm_cluster.Send_log}, and a node's durability error is a node
    death recovered by failover. Either way the final per-view
    fingerprints must equal the reference's. *)

(** The serving workload [serve], [chaos] and [cluster] share: three
    binary edge relations and a heterogeneous set of views over them
    (delta kernel, view tree, two recomputation strategies). *)
module Views : sig
  val names : string list
  (** The standard views, in registration order. *)

  val declare : ?flaky:bool -> Ivm_stream.Registry.t -> unit
  (** Declare R, S and T (already-declared tables are fine) and register
      the standard views; with [flaky], also a view whose engine fails
      on every apply. *)

  val stream :
    ?poison:bool -> updates:int -> nodes:int -> unit -> int Ivm_data.Update.t array
  (** A seeded skewed edge stream over [nodes] graph nodes; with
      [poison], one update a third of the way in carries a string where
      the triangle kernel expects an int. *)
end

type scenario = {
  name : string;
  describe : string;
  poison : bool;  (** splice the poison update into the stream *)
  flaky : bool;  (** register the always-failing view *)
  arm : updates:int -> unit;  (** arm the fault schedule *)
  expect_crash : bool;  (** at least one recovery (or failover) is required *)
}

val scenarios : cluster:bool -> scenario list
(** The seven scenarios: torn-wal, ckpt-fsync, ckpt-rename, bit-flip,
    poison, flaky, ckpt-over-corrupt. *)

type outcome = {
  recoveries : int;  (** crash-recovery cycles, or failovers when sharded *)
  dead_lettered : int;
  quarantined : string list;  (** views seen quarantined *)
}

val run :
  cluster:bool ->
  dir:string ->
  updates:int ->
  nodes:int ->
  seed:int ->
  scenario ->
  (outcome, string) result
(** Run one scenario under fault seed [seed], with scratch files in
    [dir] (created if absent). [Error] names what failed: a run that
    did not converge, an armed failpoint that never fired, a missing
    crash, diverging fingerprints (per view), an undead-lettered
    poison, or an unquarantined flaky view. *)

type demo_view = {
  view : string;
  entries : int;
  fingerprint : int;
  reference : int;  (** the single-node reference's fingerprint *)
}

val demo :
  shards:int ->
  updates:int ->
  nodes:int ->
  standby:bool ->
  kill:int ->
  dir:string ->
  seed:int ->
  log:(string -> unit) ->
  (demo_view list, string) result
(** Start a [shards]-shard loopback cluster under [dir] (wiped first),
    route the standard stream through it, kill shard [kill]'s primary
    halfway behind a barrier and fail it over ([-1] skips the kill),
    then read every view and pair it with the single-node reference.
    Progress and shard status go to [log]. *)
