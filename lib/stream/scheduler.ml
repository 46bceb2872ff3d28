(** The epoch micro-batcher: the maintenance loop between the ingestion
    queue and the registered views.

    Each epoch (i) pops up to [batch_limit] queued updates, (ii) makes
    them durable — WAL append + flush — *before* any view sees them,
    (iii) coalesces per (relation, tuple) with the ring add, sound
    because ring payloads make batches commute (Sec. 2) and often a
    large win under skew (an insert/delete pair cancels to nothing),
    and (iv) hands the coalesced batch to {!Registry.apply_batch}.

    The batch limit adapts to observed apply latency toward a target:
    halved when an epoch overshoots 1.5x the target (bounding staleness
    and enqueue→applied latency), doubled when a *full* epoch finishes
    under half the target (amortizing per-epoch overhead when the
    stream is heavy). This is the classic micro-batching control loop
    of DBSP-style streaming systems, sized here by measurement rather
    than configuration. *)

module Update = Ivm_data.Update
module Tuple = Ivm_data.Tuple
module Flat_tbl = Ivm_data.Flat_tbl

let ( let* ) = Result.bind

type item = { update : int Update.t; enqueued_at : float }

(* One relation's coalescing accumulator; [listed] is true while it
   sits in the scheduler's dirty list. *)
type acc = { rel : string; sums : int Flat_tbl.t; mutable listed : bool }

let item u = { update = u; enqueued_at = Unix.gettimeofday () }

type t = {
  queue : item Queue.t;
  registry : Registry.t;
  wal : Wal.Z.t option;
  metrics : Metrics.t;
  target : float; (* target epoch apply latency, seconds *)
  min_batch : int;
  max_batch : int;
  sync_retries : int; (* extra fsync attempts before giving up an epoch *)
  self_check_every : int option; (* epochs between fingerprint self-checks *)
  on_apply : (epoch:int -> (string * int Update.t list) list -> unit) option;
      (* delta-subscription fan-out: the coalesced front just applied *)
  coalescer : (string, acc) Hashtbl.t;
      (* per-relation coalescing accumulators, reused across epochs: a
         capacity-preserving [Flat_tbl.clear] after each emit keeps the
         tables' arrays alive, so steady-state epochs allocate no fresh
         buffers for coalescing *)
  mutable dirty : acc array;
      (* the accumulators the current epoch wrote, in first-touch order
         ([n_dirty] of them): the emit folds and clears only these, so
         an epoch costs O(relations it touched), not O(relations ever
         seen) *)
  mutable n_dirty : int;
  mutable limit : int; (* the adaptive batch cap *)
  mutable applied : int; (* updates applied so far (pre-coalescing) *)
  mutable front : (string * int Update.t list) list;
      (* the per-relation coalesced delta front of the most recently
         applied epoch — what {!delta_front} serves *)
  barrier_mutex : Mutex.t;
  barrier_cond : Condition.t;
      (* broadcast after every epoch: the rendezvous {!barrier} waits on *)
  mutable finished : bool; (* the loop exited (drained or durability error) *)
}

let create ?wal ?(target_latency = 0.002) ?(min_batch = 16) ?(max_batch = 65_536)
    ?initial_batch ?(sync_retries = 3) ?self_check_every ?on_apply ~queue ~registry ~metrics () =
  if min_batch < 1 || max_batch < min_batch then
    invalid_arg "Scheduler.create: need 1 <= min_batch <= max_batch";
  let limit =
    match initial_batch with
    | Some b -> max min_batch (min max_batch b)
    | None -> max min_batch (min max_batch 1024)
  in
  {
    queue;
    registry;
    wal;
    metrics;
    target = target_latency;
    min_batch;
    max_batch;
    sync_retries;
    self_check_every;
    on_apply;
    coalescer = Hashtbl.create 4;
    dirty = [||];
    n_dirty = 0;
    limit;
    applied = 0;
    front = [];
    barrier_mutex = Mutex.create ();
    barrier_cond = Condition.create ();
    finished = false;
  }

let batch_limit t = t.limit
let applied t = t.applied
let metrics t = t.metrics
let registry t = t.registry
let delta_front t = t.front

(* Coalesce an epoch per (relation, tuple): nested tables because the
   outer generic Hashtbl must never key on Tuple.t directly (its
   memoized-hash field breaks structural hashing). Zero sums are elided
   incrementally — an insert/delete pair inside one epoch vanishes
   entirely, and because stored sums are never zero the default-0 probe
   is unambiguous. The accumulators live in [t]; the first write of an
   epoch to a relation lists its accumulator as dirty, and the emit
   folds and clears (capacity preserved) only the dirty ones, so a
   one-update epoch costs the same whether the scheduler has seen ten
   relations or a thousand. *)
let accumulator t rel =
  match Hashtbl.find t.coalescer rel with
  | a -> a
  | exception Not_found ->
      let a = { rel; sums = Flat_tbl.create ~size:64 0; listed = false } in
      Hashtbl.add t.coalescer rel a;
      a

let mark_dirty t a =
  if not a.listed then begin
    a.listed <- true;
    if t.n_dirty = Array.length t.dirty then begin
      let grown = Array.make (max 8 (2 * t.n_dirty)) a in
      Array.blit t.dirty 0 grown 0 t.n_dirty;
      t.dirty <- grown
    end;
    t.dirty.(t.n_dirty) <- a;
    t.n_dirty <- t.n_dirty + 1
  end

let coalesce_front t (items : item list) : (string * int Update.t list) list =
  List.iter
    (fun { update = u; _ } ->
      let a = accumulator t u.Update.rel in
      mark_dirty t a;
      let tuple = u.Update.tuple in
      let s = Flat_tbl.find_default a.sums tuple 0 + u.Update.payload in
      if s = 0 then Flat_tbl.remove a.sums tuple else Flat_tbl.set a.sums tuple s)
    items;
  let front = ref [] in
  for i = t.n_dirty - 1 downto 0 do
    let a = t.dirty.(i) in
    let rel = a.rel in
    let ups =
      Flat_tbl.fold (fun tuple p acc -> Update.make ~rel ~tuple ~payload:p :: acc) a.sums []
    in
    Flat_tbl.clear a.sums;
    a.listed <- false;
    if ups <> [] then front := (rel, ups) :: !front
  done;
  t.n_dirty <- 0;
  !front

let coalesce t items = List.concat_map snd (coalesce_front t items)

(* A failed fsync does not mean lost data — the bytes are still in the
   log — so a transient failure (injected or a blip) is worth retrying
   before declaring the epoch undurable. *)
let rec sync_retrying w retries =
  match Wal.Z.sync w with
  | Ok () -> Ok ()
  | Error e -> if retries <= 0 then Error e else sync_retrying w (retries - 1)

(* Epoch rendezvous plumbing: [signal_epoch] wakes barrier waiters
   after every applied epoch; [signal_finished] wakes them for good when
   the loop exits (drained or durability error), so no fence ever hangs
   on a scheduler that will not run again. *)
let signal_epoch t =
  Mutex.protect t.barrier_mutex (fun () -> Condition.broadcast t.barrier_cond)

let signal_finished t =
  Mutex.protect t.barrier_mutex (fun () ->
      t.finished <- true;
      Condition.broadcast t.barrier_cond)

(** Run one epoch. [Ok false] means the stream ended: the queue is
    closed and fully drained. [Error _] is a durability failure — the
    popped updates were {e not} applied (crash-and-recover semantics:
    they are replayed from the last durable state). View failures never
    surface here; they are handled by the registry's supervision. *)
let step_inner t : (bool, Errors.t) result =
  match Queue.pop_batch t.queue ~max:t.limit with
  | [] -> Ok false
  | items ->
      let n = List.length items in
      (* Durability first: every popped update reaches the log before
         any view sees it, so a crash mid-epoch replays the whole
         epoch from the previous checkpoint state. *)
      let* () =
        match t.wal with
        | Some w ->
            let* _offset =
              Wal.Z.append_batch w (List.map (fun { update; _ } -> update) items)
            in
            sync_retrying w t.sync_retries
        | None -> Ok ()
      in
      let front = coalesce_front t items in
      t.front <- front;
      let coalesced = List.fold_left (fun n (_, ups) -> n + List.length ups) 0 front in
      let t0 = Unix.gettimeofday () in
      Registry.apply_front t.registry front;
      let applied_at = Unix.gettimeofday () in
      let dt = applied_at -. t0 in
      List.iter
        (fun { enqueued_at; _ } ->
          Metrics.Hist.add t.metrics.Metrics.latency (applied_at -. enqueued_at))
        items;
      t.metrics.Metrics.epochs <- t.metrics.Metrics.epochs + 1;
      t.metrics.Metrics.ingested <- t.metrics.Metrics.ingested + n;
      t.metrics.Metrics.coalesced <- t.metrics.Metrics.coalesced + coalesced;
      t.applied <- t.applied + n;
      (* Fan the applied epoch's front out to delta subscribers after
         the views have absorbed it, so a subscriber that re-reads the
         server never observes a delta before the state reflecting it. *)
      (match t.on_apply with
      | Some f when front <> [] -> f ~epoch:t.metrics.Metrics.epochs front
      | Some _ | None -> ());
      if dt > 1.5 *. t.target then t.limit <- max t.min_batch (t.limit / 2)
      else if dt < 0.5 *. t.target && n >= t.limit then
        t.limit <- min t.max_batch (t.limit * 2);
      (match t.self_check_every with
      | Some k when k > 0 && t.metrics.Metrics.epochs mod k = 0 ->
          ignore (Registry.self_check t.registry)
      | _ -> ());
      Ok true

let step t : (bool, Errors.t) result =
  match step_inner t with
  | Ok true as r ->
      signal_epoch t;
      r
  | (Ok false | Error _) as r ->
      signal_finished t;
      r

(* The two-phase cluster fence, phase 2: admit nothing new (the caller
   — the router — pauses ingest first), then wait until everything the
   queue has ever admitted is applied. The target is read before the
   wait, so the fence covers exactly the updates admitted before the
   call; with ingest paused, that is all of them. Waiters ride the
   per-epoch broadcast; a scheduler that exits before reaching the
   target fails the fence instead of hanging it. *)
let barrier t : (int, string) result =
  let target = Queue.pushed t.queue in
  Mutex.protect t.barrier_mutex (fun () ->
      let rec wait () =
        if t.applied >= target then Ok t.metrics.Metrics.epochs
        else if t.finished then Error "scheduler stopped before the fence"
        else begin
          Condition.wait t.barrier_cond t.barrier_mutex;
          wait ()
        end
      in
      wait ())

(* An exception escaping the driving loop (an [on_epoch] hook, say)
   bypasses [step]'s finished signal; whoever catches it aborts the
   scheduler so barrier waiters fail instead of hanging. *)
let abort t = signal_finished t

(** Drain the stream to its end, calling [on_epoch] after every epoch
    (live stats, periodic checkpoints). Stops at the first durability
    error. *)
let run ?(on_epoch = fun (_ : t) -> ()) t =
  let rec loop () =
    match step t with
    | Ok true ->
        on_epoch t;
        loop ()
    | Ok false -> Ok ()
    | Error _ as e -> e
  in
  loop ()
