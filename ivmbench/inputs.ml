(* Seeded inputs shared by the three workloads: the same 100 Mixed
   tenants (~17 each of join, triangle, cascade, minmax, window and
   economy), an initial database bulk-loaded before the views are
   registered, and pre-generated per-worker update streams. Everything
   here is a pure function of the seed and runs before timing starts. *)

module D = Ivm_data
module U = D.Update
module Db = D.Database.Z
module Mx = Ivm_workload.Mixed

let views = 100

type shape = {
  keys : int;  (** key domain of the drifting-Zipf generators *)
  accounts : int;  (** accounts per economy tenant *)
  workers : int;  (** client workers, each with its own generators *)
  init_steps : int;  (** generator steps per worker and tenant in the initial database *)
  drift_period : int;  (** workload steps between hot-set rotations *)
}

type t = {
  shape : shape;
  seed : int;
  tenants : Mx.tenant array;
  rows : int U.t list;  (** the initial database, one update per distinct row *)
  gens : Mx.Tgen.t array array;  (** [worker].(tenant), past the initial steps *)
  next_op : int array;  (** per worker: the next workload step number *)
}

let declare_tables db tenants =
  Array.iter
    (fun (tn : Mx.tenant) ->
      List.iter
        (fun (name, cols) -> ignore (Db.declare db name (D.Schema.of_list cols)))
        tn.Mx.tables)
    tenants

let create shape ~seed =
  let tenants = Array.of_list (Mx.tenants ~views ~keys:shape.keys) in
  let drift = Mx.Drift.create ~seed ~keys:shape.keys ~period:shape.drift_period in
  let gens =
    Array.init shape.workers (fun worker ->
        Array.map
          (fun tn ->
            Mx.Tgen.create ~worker ~workers:shape.workers ~accounts:shape.accounts tn
              ~drift ~seed ())
          tenants)
  in
  (* The initial database is the generators' own first steps, so the
     streams that follow delete rows that exist and the window clock
     keeps moving forward. *)
  let initial = Db.create () in
  declare_tables initial tenants;
  Array.iter
    (fun tn -> List.iter (Db.apply initial) (Mx.init_updates tn ~accounts:shape.accounts))
    tenants;
  Array.iter
    (fun per_tenant ->
      for op = 1 to shape.init_steps do
        Array.iter (fun g -> List.iter (Db.apply initial) (Mx.Tgen.next g ~op)) per_tenant
      done)
    gens;
  let rows =
    List.concat_map
      (fun (rel, r) ->
        Db.Rel.fold (fun tuple payload acc -> U.make ~rel ~tuple ~payload :: acc) r [])
      (Db.relations initial)
  in
  {
    shape;
    seed;
    tenants;
    rows;
    gens;
    next_op = Array.make shape.workers (shape.init_steps + 1);
  }

(* The bulk load: a fresh database holding the initial rows. *)
let load_db t =
  let db = Db.create () in
  declare_tables db t.tenants;
  Db.apply_batch db t.rows;
  db

let next t ~worker ~tenant =
  let op = t.next_op.(worker) in
  t.next_op.(worker) <- op + 1;
  Mx.Tgen.next t.gens.(worker).(tenant) ~op

(* One flat stream of at least [updates] updates from worker 0's
   generators, each step on a uniformly drawn tenant. *)
let stream t ~updates =
  let rng = Random.State.make [| t.seed; 0x5eed |] in
  let rec loop acc n =
    if n >= updates then Array.of_list (List.rev acc)
    else
      let ups = next t ~worker:0 ~tenant:(Random.State.int rng views) in
      loop (List.rev_append ups acc) (n + List.length ups)
  in
  loop [] 0

(* A closed-loop client's operations: [write_pct] % writes of one
   generator step, the rest reads; [ups = []] marks a read. *)
type op = { tenant : int; ups : int U.t list }

let ops t ~worker ~count ~write_pct =
  let rng = Random.State.make [| t.seed; worker; 0x0b5 |] in
  Array.init count (fun _ ->
      let tenant = Random.State.int rng views in
      if Random.State.int rng 100 >= write_pct then { tenant; ups = [] }
      else
        (* An economy worker slice never runs dry at these sizes, but a
           step with no updates must not pass for a read. *)
        let rec write tries =
          match next t ~worker ~tenant with
          | [] when tries > 0 -> write (tries - 1)
          | ups -> { tenant; ups }
        in
        write 8)

let tenant_name t i = t.tenants.(i).Mx.name
