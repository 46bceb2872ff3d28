(** The multi-view server: N registered views maintained off one shared
    update stream, with per-view supervision.

    The registry owns the authoritative base database — the durable
    truth that checkpoints snapshot — and a list of registered views,
    each built by a *factory* from a database. Keeping the factory
    around is what makes both crash recovery and fault recovery
    uniform: any view can be rebuilt from the base state at any time,
    so a view whose engine misbehaves is never fatal — it is degraded,
    retried, and rebuilt, while every other view keeps serving.

    Supervision model:

    - A view whose [apply_batch] raises is marked {e degraded}. Its
      updates stop flowing (the base database still absorbs them), and
      recovery is scheduled with exponential backoff plus seeded
      jitter.
    - Recovery rebuilds the view from the live base database — the
      same operation as crash recovery, because the base state already
      contains everything the view missed while degraded.
    - If the rebuild itself fails, the updates of the failed batch are
      suspected of being {e poison}. The registry retries the rebuild
      excluding each single suspect in turn (then all of them); the
      smallest exclusion that works is {e dead-lettered}: recorded
      per-view, optionally appended to a dead-letter WAL, and filtered
      out of every future rebuild of that view.
    - A view that keeps failing past the threshold is {e quarantined}:
      no more automatic retries, but {!heal} can still force one.
    - {!self_check} compares each healthy view's fingerprint against a
      fresh rebuild and reinstalls the rebuild on divergence — silent
      state corruption heals itself at the next check.

    [apply_batch] routes each healthy view the sub-batch on its
    relations. A view whose apply raises is degraded on the spot; the
    epoch's other views still run.

    Delta consumers: a view whose reader has called {!track} is applied
    through its engine's [apply_delta], and the reported output deltas
    are folded into a pending Z-set relative to the view's stamp at the
    last [track]. The network server patches its cached snapshot with
    it instead of re-enumerating the view. Views nobody tracks are
    applied exactly as before and hold nothing. A pending delta larger
    than a rewrite of the whole view (twice its size at the last
    [track], plus a small floor) is dropped, and a failure, recovery,
    {!heal}, a {!self_check} reinstall or a dead-letter rebuild breaks
    it too: the consumer's next read rebuilds. *)

module Db = Ivm_data.Database.Z
module Rel = Ivm_data.Relation.Z
module Tuple = Ivm_data.Tuple
module Update = Ivm_data.Update
module M = Ivm_engine.Maintainable

type health = Healthy | Degraded | Quarantined

let health_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Quarantined -> "quarantined"

(* A delta consumer's pending output change: every output delta the
   view reported since stamp value [since], folded into one Z-set —
   what the network server patches its cached snapshot with. [since <
   0] means broken (dropped over [bound], or the view failed or was
   reinstalled): nothing is folded until the consumer re-tracks, and
   its next read must rebuild. *)
type pending = {
  mutable since : int;
  mutable bound : int;
  delta : int Tuple.Tbl.t;
}

type entry = {
  name : string;
  build : Db.t -> M.t;
  mutable view : M.t;
  mutable health : health;
  mutable failures : int; (* consecutive failures since the last clean apply *)
  mutable retry_at : float; (* wall clock of the next automatic recovery *)
  mutable suspects : int Update.t list; (* the batch in flight when it failed *)
  mutable dead : (string * Tuple.t) list; (* dead-lettered (relation, tuple) *)
  mutable last_error : string option;
  stamp : int Atomic.t;
      (* bumped whenever the view's state may have changed: handed a
         non-empty sub-front, or (re)installed *)
  mutable pending : pending option; (* [None] until a consumer tracks the view *)
  mutable groups : int Update.t list list;
      (* the relation groups routed to the view this epoch, newest
         first ([] = untouched); reused across epochs *)
}

type stamp = int Atomic.t

type t = {
  db : Db.t;
  metrics : Metrics.t option;
  mutable entries : entry list; (* registration order, reversed *)
  routes : (string, entry list) Hashtbl.t;
      (* relation -> the entries whose current view consumes it; kept
         current by every view install *)
  mutable unhealthy : int; (* entries not [Healthy]: 0 skips every supervision walk *)
  (* supervision knobs *)
  backoff_base : float;
  max_failures : int;
  rng : Random.State.t;
  dead_wal : Wal.Z.t option;
  (* Epoch-consistency seam for network readers: every mutating entry
     point (apply_batch, heal, self_check, register) holds the
     exclusive side; [read] exposes the shared side. The read accessors
     below do NOT lock — a concurrent reader wraps them in [read]. *)
  lock : Rwlock.t;
  pending_mutex : Mutex.t;
      (* serializes consumers' reads and resets of pending deltas, which
         run under the shared lock; epochs fold under the exclusive one *)
}

let make ?metrics ~backoff_base ~max_failures ~rng ?dead_wal db =
  {
    db;
    metrics;
    entries = [];
    routes = Hashtbl.create 16;
    unhealthy = 0;
    backoff_base;
    max_failures;
    rng;
    dead_wal;
    lock = Rwlock.create ();
    pending_mutex = Mutex.create ();
  }

let create ?metrics ?(backoff_base = 0.01) ?(max_failures = 5) ?(seed = 0) ?dead_wal db =
  make ?metrics ~backoff_base ~max_failures
    ~rng:(Random.State.make [| 0x51e9; seed |])
    ?dead_wal db

let db t = t.db
let read t f = Rwlock.read t.lock f
let now () = Unix.gettimeofday ()

(* A placeholder installed when even the initial build fails: consumes
   nothing, serves empty state (so its output delta is exactly empty),
   until recovery rebuilds the real view. *)
let stub name =
  {
    M.name;
    relations = [];
    apply_batch = (fun _ -> ());
    apply_delta = (fun _ -> []);
    output_count = (fun () -> 0);
    fingerprint = (fun () -> 0);
    enumerate = (fun () -> []);
  }

let metrics_view t name = Option.map (fun m -> Metrics.view m name) t.metrics

let count_failure t name =
  Option.iter (fun v -> v.Metrics.failures <- v.Metrics.failures + 1) (metrics_view t name)

let set_health t e h =
  if e.health = Healthy && h <> Healthy then t.unhealthy <- t.unhealthy + 1
  else if e.health <> Healthy && h = Healthy then t.unhealthy <- t.unhealthy - 1;
  e.health <- h

(* The relation index: [set_view] is the only way a view is put in
   place, so the routes always match the installed views' relations
   (a failed initial build's stub consumes nothing and is routed
   nothing). *)
let consumed (m : M.t) = List.sort_uniq String.compare m.M.relations

let set_view t e view =
  List.iter
    (fun rel ->
      match List.filter (fun e' -> e' != e) (Hashtbl.find t.routes rel) with
      | [] -> Hashtbl.remove t.routes rel
      | rest -> Hashtbl.replace t.routes rel rest
      | exception Not_found -> ())
    (consumed e.view);
  e.view <- view;
  List.iter
    (fun rel ->
      let consumers = Option.value (Hashtbl.find_opt t.routes rel) ~default:[] in
      Hashtbl.replace t.routes rel (e :: consumers))
    (consumed view)

(* The base database minus a view's dead-lettered tuples: what its
   factory rebuilds from. With no dead letters this is the live
   database itself — the common case costs nothing. *)
let filtered_db t (dead : (string * Tuple.t) list) =
  if dead = [] then t.db
  else begin
    let db' = Db.copy t.db in
    List.iter
      (fun (rel, tuple) -> if Db.mem db' rel then Rel.set_entry (Db.find db' rel) tuple 0)
      dead;
    db'
  end

let backoff t failures =
  let doubling = 2. ** float_of_int (max 0 (failures - 1)) in
  t.backoff_base *. doubling *. (1. +. Random.State.float t.rng 0.5)

(* Force the consumer's next read to rebuild: the pending delta no
   longer describes the view's change since its snapshot. *)
let break p =
  p.since <- -1;
  Tuple.Tbl.reset p.delta

let break_pending e = Option.iter break e.pending

(* Record one more failure for [e]: schedule the next retry, or
   quarantine past the threshold. *)
let note_failure t e detail =
  break_pending e;
  e.failures <- e.failures + 1;
  e.last_error <- Some detail;
  count_failure t e.name;
  if e.failures >= t.max_failures then set_health t e Quarantined
  else begin
    set_health t e Degraded;
    e.retry_at <- now () +. backoff t e.failures
  end

let dead_letter t e (updates : int Update.t list) =
  List.iter
    (fun (u : int Update.t) ->
      e.dead <- (u.Update.rel, u.Update.tuple) :: e.dead;
      Option.iter (fun w -> ignore (Wal.Z.append w u)) t.dead_wal)
    updates;
  Option.iter (fun w -> ignore (Wal.Z.sync w)) t.dead_wal;
  Option.iter
    (fun v -> v.Metrics.dead_letters <- v.Metrics.dead_letters + List.length updates)
    (metrics_view t e.name)

let install t e view =
  break_pending e;
  set_view t e view;
  set_health t e Healthy;
  e.suspects <- [];
  Atomic.incr e.stamp;
  Option.iter (fun v -> v.Metrics.rebuilds <- v.Metrics.rebuilds + 1) (metrics_view t e.name)

let try_build e db = match e.build db with v -> Some v | exception _ -> None

(* Distinct (relation, tuple) suspects from the failed batch, oldest
   first, excluding anything already dead-lettered. *)
let distinct_suspects e =
  let seen = Hashtbl.create 8 in
  List.iter (fun (rel, tu) -> Hashtbl.replace seen (rel, Tuple.to_string tu) ()) e.dead;
  List.filter
    (fun (u : int Update.t) ->
      let key = (u.Update.rel, Tuple.to_string u.Update.tuple) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    (List.rev e.suspects)

let as_dead (us : int Update.t list) = List.map (fun (u : int Update.t) -> (u.Update.rel, u.Update.tuple)) us

(* One recovery attempt: rebuild from the (dead-filtered) base state;
   on failure, isolate poison by retrying with each single suspect
   excluded, then with all of them. The smallest exclusion that works
   is dead-lettered. On total failure, back off again. *)
let attempt_recovery t e =
  match try_build e (filtered_db t e.dead) with
  | Some v -> install t e v
  | None -> begin
      let suspects = distinct_suspects e in
      let single =
        List.find_map
          (fun (u : int Update.t) ->
            match try_build e (filtered_db t (as_dead [ u ] @ e.dead)) with
            | Some v -> Some (v, [ u ])
            | None -> None)
          suspects
      in
      let outcome =
        match single with
        | Some _ -> single
        | None when suspects <> [] -> (
            match try_build e (filtered_db t (as_dead suspects @ e.dead)) with
            | Some v -> Some (v, suspects)
            | None -> None)
        | None -> None
      in
      match outcome with
      | Some (v, poison) ->
          dead_letter t e poison;
          install t e v
      | None -> note_failure t e "rebuild failed"
    end

(* Retry every degraded view whose backoff has elapsed. Quarantined
   views are skipped — only {!heal} touches those. *)
let maybe_recover t =
  let clock = now () in
  List.iter
    (fun e -> if e.health = Degraded && clock >= e.retry_at then attempt_recovery t e)
    t.entries

let find_entry t name = List.find_opt (fun e -> String.equal e.name name) t.entries

let register t ~name build =
  if find_entry t name <> None then invalid_arg ("Registry.register: duplicate view " ^ name);
  Rwlock.write t.lock (fun () ->
      let e =
        {
          name;
          build;
          view = stub name;
          health = Healthy;
          failures = 0;
          retry_at = 0.;
          suspects = [];
          dead = [];
          last_error = None;
          stamp = Atomic.make 0;
          pending = None;
          groups = [];
        }
      in
      (match try_build e t.db with
      | Some v -> set_view t e v
      | None -> note_failure t e "initial build failed");
      t.entries <- e :: t.entries)

(* Declare a new empty base relation under the exclusive lock — the
   seam the SQL front end's CREATE TABLE goes through: the registry owns
   the authoritative base database, so table DDL must take the same lock
   as every other mutation. *)
let declare_table t name schema =
  Rwlock.write t.lock (fun () ->
      if Db.mem t.db name then
        Error (Printf.sprintf "relation %s already exists" name)
      else begin
        ignore (Db.declare t.db name schema);
        Ok ()
      end)

let views t = List.rev_map (fun e -> (e.name, e.view)) t.entries
let view_count t = List.length t.entries

let entry t fn name =
  match find_entry t name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Registry.%s: no view %s" fn name)

let find t name = (entry t "find" name).view
let stamp t name = (entry t "stamp" name).stamp
let stamp_value = Atomic.get
(* --- delta consumers --- *)

(* A folded delta holds at most one retraction per old row and one
   insertion per new row, so past twice the view's size (plus a floor
   that keeps tiny views patchable) it is bigger than a rewrite of the
   whole view: a rebuild is cheaper than the patch. *)
let bound_of_size size = (2 * size) + 16

let track t name ~size =
  let e = entry t "track" name in
  Mutex.protect t.pending_mutex (fun () ->
      let p =
        match e.pending with
        | Some p -> p
        | None ->
            let p = { since = -1; bound = 0; delta = Tuple.Tbl.create 16 } in
            e.pending <- Some p;
            p
      in
      Tuple.Tbl.reset p.delta;
      p.since <- Atomic.get e.stamp;
      p.bound <- bound_of_size size)

let pending_delta t name ~since =
  let e = entry t "pending_delta" name in
  Mutex.protect t.pending_mutex (fun () ->
      match e.pending with
      | Some p when p.since >= 0 && p.since = since ->
          Some (Tuple.Tbl.fold (fun tp d acc -> (tp, d) :: acc) p.delta [])
      | _ -> None)

let pending_size t name =
  let e = entry t "pending_size" name in
  Mutex.protect t.pending_mutex (fun () ->
      Option.map (fun p -> if p.since < 0 then 0 else Tuple.Tbl.length p.delta) e.pending)

(* Fold one batch's output delta into the pending Z-set; past the bound
   a patch would cost more than the rebuild it saves, so drop it. *)
let fold_pending p (delta : M.delta) =
  List.iter
    (fun (tp, d) ->
      let s = Option.value (Tuple.Tbl.find_opt p.delta tp) ~default:0 + d in
      if s = 0 then Tuple.Tbl.remove p.delta tp else Tuple.Tbl.replace p.delta tp s)
    delta;
  if Tuple.Tbl.length p.delta > p.bound then break p

(* Apply a view's sub-front; a view whose consumer is tracking it also
   reports its output delta. Readers are locked out while it runs. *)
let apply_view e sub =
  match e.pending with
  | Some p when p.since >= 0 -> fold_pending p (e.view.M.apply_delta sub)
  | _ -> e.view.M.apply_batch sub

let counts t = List.map (fun (name, m) -> (name, m.M.output_count ())) (views t)
let fingerprints t = List.map (fun (name, m) -> (name, m.M.fingerprint ())) (views t)
let health t name = (entry t "health" name).health
let statuses t = List.rev_map (fun e -> (e.name, e.health)) t.entries

let last_error t name =
  match find_entry t name with
  | Some e -> e.last_error
  | None -> None

let dead_letters t = List.rev_map (fun e -> (e.name, List.rev e.dead)) t.entries

(* Dead-lettered tuples stay quarantined out of the view — also on WAL
   replay after a restore. *)
let without_dead e (sub : int Update.t list) =
  if e.dead = [] then sub
  else
    List.filter
      (fun (u : int Update.t) ->
        not
          (List.exists
             (fun (rel, tu) -> rel = u.Update.rel && Tuple.equal tu u.Update.tuple)
             e.dead))
      sub

(* The [skipped] charge of a view that is not healthy: the updates on
   the relations it consumes — or, for the relation-less stub a failed
   initial build leaves behind, the whole epoch, since which relations
   the real view will consume is unknown. *)
let charge_skipped t front =
  List.iter
    (fun e ->
      if e.health <> Healthy then begin
        let missed =
          match e.view.M.relations with
          | [] -> List.fold_left (fun n (_, ups) -> n + List.length ups) 0 front
          | rels ->
              List.fold_left
                (fun n (rel, ups) -> if List.mem rel rels then n + List.length ups else n)
                0 front
        in
        if missed > 0 then
          Option.iter
            (fun v -> v.Metrics.skipped <- v.Metrics.skipped + missed)
            (metrics_view t e.name)
      end)
    t.entries

(* Route the epoch's per-relation front through the relation index:
   each group goes only to the healthy views consuming its relation,
   and each touched view gets the concatenation of its groups (a
   single group is shared physically). Untouched views cost nothing —
   the epoch is O(relations and views it touches), not O(registered
   views) — and with every view healthy the supervision walks are
   skipped too. Within one epoch the ring payloads make updates
   commute, so regrouping by relation is sound. *)
let apply_front_locked t (front : (string * int Update.t list) list) =
  if t.unhealthy > 0 then begin
    maybe_recover t;
    charge_skipped t front
  end;
  let touched = ref [] in
  List.iter
    (fun (rel, ups) ->
      match Hashtbl.find t.routes rel with
      | exception Not_found -> ()
      | consumers ->
          List.iter
            (fun e ->
              if e.health = Healthy then begin
                if e.groups = [] then touched := e :: !touched;
                e.groups <- ups :: e.groups
              end)
            consumers)
    front;
  List.iter (fun (_, ups) -> Db.apply_batch t.db ups) front;
  List.iter
    (fun e ->
      let sub = match e.groups with [ ups ] -> ups | groups -> List.concat (List.rev groups) in
      e.groups <- [];
      match without_dead e sub with
      | [] -> ()
      | sub -> (
          Atomic.incr e.stamp;
          let t0 = now () in
          match apply_view e sub with
          | () ->
              let elapsed = now () -. t0 in
              e.failures <- 0;
              Option.iter
                (fun v ->
                  v.Metrics.updates <- v.Metrics.updates + List.length sub;
                  v.Metrics.batches <- v.Metrics.batches + 1;
                  Metrics.Hist.add v.Metrics.apply elapsed)
                (metrics_view t e.name)
          | exception exn ->
              (* The view's in-memory state is now suspect; recovery
                 will rebuild it from the base database, which did
                 absorb this batch. *)
              e.suspects <- List.rev_append sub e.suspects;
              note_failure t e (Printexc.to_string exn)))
    !touched

let apply_front t (front : (string * int Update.t list) list) =
  match List.filter (fun (_, ups) -> ups <> []) front with
  | [] -> ()
  | front -> Rwlock.write t.lock (fun () -> apply_front_locked t front)

(* Flat-batch entry point (recovery replay, tests): group per relation,
   preserving order within each, then route the front. *)
let apply_batch t (batch : int Update.t list) =
  match batch with
  | [] -> ()
  | batch ->
      let rels = ref [] in
      let tbl = Hashtbl.create 4 in
      List.iter
        (fun (u : int Update.t) ->
          match Hashtbl.find_opt tbl u.Update.rel with
          | Some l -> l := u :: !l
          | None ->
              Hashtbl.add tbl u.Update.rel (ref [ u ]);
              rels := u.Update.rel :: !rels)
        batch;
      apply_front t
        (List.rev_map (fun rel -> (rel, List.rev !(Hashtbl.find tbl rel))) !rels)

(** Force a recovery attempt on every view that is not healthy,
    ignoring backoff timers and quarantine — the convergence point a
    driver calls at end of stream (or an operator invokes by hand).
    Returns the names still not healthy afterwards. *)
let heal t =
  Rwlock.write t.lock (fun () ->
      List.iter (fun e -> if e.health <> Healthy then attempt_recovery t e) (List.rev t.entries);
      List.filter_map (fun e -> if e.health <> Healthy then Some e.name else None) t.entries
      |> List.rev)

(** Verify every healthy view's fingerprint against a fresh rebuild
    from the base state; on divergence install the rebuild. Returns the
    names that diverged. Expensive — run it off the hot path, every N
    epochs. *)
let self_check t =
  Rwlock.write t.lock (fun () ->
      List.filter_map
        (fun e ->
          if e.health <> Healthy then None
          else
            match try_build e (filtered_db t e.dead) with
            | None ->
                note_failure t e "self-check rebuild failed";
                Some e.name
            | Some fresh ->
                if fresh.M.fingerprint () = e.view.M.fingerprint () then None
                else begin
                  count_failure t e.name;
                  install t e fresh;
                  Some e.name
                end)
        (List.rev t.entries))

(** [restore t db] is a fresh registry over [db] with every view rebuilt
    by its registration factory — the recovery path: pair it with a WAL
    replay from the checkpoint's offset. Dead-letter sets carry over, so
    a view poisoned before the checkpoint rebuilds filtered. The
    restored registry records no metrics unless given its own. *)
let restore ?metrics t db =
  let fresh =
    make ?metrics ~backoff_base:t.backoff_base ~max_failures:t.max_failures
      ~rng:(Random.State.copy t.rng) ?dead_wal:t.dead_wal db
  in
  List.iter
    (fun e ->
      register fresh ~name:e.name e.build;
      match find_entry fresh e.name with
      | Some e' ->
          e'.dead <- e.dead;
          if e.dead <> [] || e'.health <> Healthy then begin
            (* Rebuild with the inherited filter (register built from
               the raw db, which may still contain the poison). *)
            match try_build e' (filtered_db fresh e'.dead) with
            | Some v -> install fresh e' v
            | None -> note_failure fresh e' "restore rebuild failed"
          end
      | None -> ())
    (List.rev t.entries);
  fresh
