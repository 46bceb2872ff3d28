(** The TCP view server: one accept loop plus per-connection handlers
    scheduled over a fixed pool of handler domains.

    Reads (the one [Lookup] op) are served from a per-view snapshot
    cache keyed by the view's own change stamp
    ({!Ivm_stream.Registry.stamp}), so an epoch that touches other
    views leaves a view's cached answer in place: the snapshot is
    refreshed under {!Ivm_stream.Registry.read} — the shared side of
    the registry's writer-preferring lock — so it is exactly one epoch
    boundary's state, never a half-applied batch. A stale snapshot is
    patched with the view's pending output delta
    ({!Ivm_stream.Registry.pending_delta}), re-framing only the chunks
    the delta touches; it is re-enumerated only on a first read or when
    the registry dropped the delta. Point lookups answer
    from a hash index on the view's first output field, built on the
    snapshot's first keyed lookup. Under a live producer the semantics
    are latest-completed-epoch with stale-while-revalidate: one request
    per view pays the refresh, concurrent ones serve the previous
    epoch. A gated [Lookup] whose token is ahead of an unchanged view's
    cached watermark re-stamps that watermark in O(1) instead of
    rebuilding. [Health] and
    [Fingerprints] still read the registry directly under the shared
    lock. Writes go through the [ingest] callback
    into the scheduler's bounded queue, whose policy (block / drop) is
    the server's backpressure. Delta subscribers are fed from the
    scheduler's [on_apply] hook via {!publish_delta}; a subscriber that
    cannot keep up past the socket send timeout is disconnected — a
    half-written frame cannot be resynchronized, and a slow consumer
    must not stall the maintenance loop. *)

module Registry = Ivm_stream.Registry
module Metrics = Ivm_stream.Metrics
module M = Ivm_engine.Maintainable
module Tuple = Ivm_data.Tuple
module Value = Ivm_data.Value
module Update = Ivm_data.Update
module Failpoint = Ivm_fault.Failpoint

(* Same rationale as {!Client}: a subscriber or requester that vanishes
   mid-write must cost us an [EPIPE], not the process. *)
let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

(* One materialized view answer. [answer] holds the entries sorted
   and already sliced into complete length-prefixed, CRC-stamped chunk
   frames, built at cache-fill time: serving a cache hit is a single
   write of prebuilt bytes per chunk — zero per-request encoding or
   checksums. Snapshots are immutable (copy-on-write): a patch builds
   a new one sharing the untouched chunks, because stale-while-
   revalidate readers may still be serving the old one.

   The snapshot holds its view's live stamp handle and the value it
   had at materialization ([at]): the snapshot is current exactly while
   the two agree, a lock-free O(1) check. [watermark] only rises — an
   unchanged view's snapshot is re-stamped to the served watermark
   instead of rebuilt. A snapshot patched from an older one keeps that
   one's stamp value ([base]; -1 when it was enumerated) and the
   canonical delta between them ([delta]): a reader that holds the
   older version is sent only the delta. It is framed per request, not
   kept framed: the reader that asks for it (the cluster router) asks
   once per refresh, and sessions never do.

   The access-pattern index for bound-first-variable lookups ([keyed]:
   the entries grouped by first output field, each group preserialized
   too) is built on the first keyed lookup, under [key_mutex] — a
   [Lazy] would be unsafe to force from two domains — so whole-view
   readers never pay for it. Only multi-field prefix lookups (rare:
   they need filtering) still encode per request. *)
type keyed = {
  by_key : (Value.t, (Tuple.t * int) list) Hashtbl.t;
  key_frames : (Value.t, Bytes.t list) Hashtbl.t;
}

type snapshot = {
  stamp : Registry.stamp;
  at : int;
  watermark : int Atomic.t;
      (* the served watermark (queue items applied) this snapshot is
         known to reflect — what a gated [Lookup] compares its token to *)
  answer : Chunked.t;
  base : int;
  delta : (Tuple.t * int) array;
  keyed : keyed option Atomic.t;
  key_mutex : Mutex.t;
}

let current snap = Registry.stamp_value snap.stamp = snap.at

let frames snap = Chunked.frames snap.answer

(* Slice an entry list into prebuilt [Chunk] frames; the empty answer
   is still one (empty, last) chunk so the client always sees a
   terminator. *)
let build_frames ~chunk_size entries = Chunked.frames (Chunked.build ~chunk_size entries)

(* The shared terminator served to every lookup that finds no group —
   one buffer for the whole server's lifetime. *)
let empty_answer : Bytes.t list = build_frames ~chunk_size:1 []

let make_keyed ~chunk_size answer =
  let by_key = Hashtbl.create 64 in
  Chunked.iter answer (fun tp p ->
      if Tuple.arity tp > 0 then begin
        let k = Tuple.get tp 0 in
        let group = Option.value (Hashtbl.find_opt by_key k) ~default:[] in
        Hashtbl.replace by_key k ((tp, p) :: group)
      end);
  let key_frames = Hashtbl.create (Hashtbl.length by_key) in
  Hashtbl.iter
    (fun k group -> Hashtbl.replace key_frames k (build_frames ~chunk_size group))
    by_key;
  { by_key; key_frames }

(* How a read was answered — one count per answered read in
   {!Metrics}: from a current cached snapshot, from the previous
   snapshot while another read refreshes it, after an O(1) watermark
   re-stamp, from a snapshot this read patched with the view's pending
   output delta, or from one it re-enumerated. *)
type source = Cached | Stale | Revalidated | Patched | Rebuilt

(* A connection knows its server, so the handler pool runs connections
   themselves; [watch] is the one-fd list of the readability probe,
   built once. *)
type conn = {
  fd : Unix.file_descr;
  write_mutex : Mutex.t;
  watch : Unix.file_descr list;
  server : t;
}

and t = {
  listen_fd : Unix.file_descr;
  port : int;
  nonce : int;
      (* drawn at [start]; a snapshot's version is the nonce combined
         with its stamp value, so no other server instance serves it *)
  registry : Registry.t;
  metrics : Metrics.t;
  chunk_size : int;
  snd_timeout : float;
  ingest : (int Update.t list -> int * int) option;
  ingest_rw : (int Update.t list -> int * int * int) option;
      (* like [ingest], plus the queue watermark after admission — the
         epoch token handed back to read-your-writes sessions *)
  served : (unit -> int) option;
      (* the scheduler's served watermark (items applied); a gated
         [Lookup] waits on it and snapshots are stamped with it *)
  checkpoint : (unit -> (int, string) result) option;
  sql : (string -> (string, string) result) option;
  barrier : (unit -> (int, string) result) option;
  on_shutdown : (unit -> unit) option;
  pool : conn Handler_pool.t;
  (* Snapshot cache: view name -> materialized answer stamped with the
     view's change stamp at materialization (exact: the refresh runs
     under the shared lock). A bump of that view's stamp marks it
     stale; epochs touching other views do not. Reads are
     stale-while-revalidate: at most one request per view pays the
     refresh — a patch, or a re-enumeration (tracked in
     [refreshing]); concurrent reads serve the previous epoch's
     snapshot instead of piling up behind it. *)
  cache_mutex : Mutex.t;
  cache : (string, snapshot) Hashtbl.t;
  refreshing : (string, unit) Hashtbl.t;
  mutex : Mutex.t; (* guards conns, subscribers, stopping, active *)
  mutable conns : conn list;
  mutable subscribers : conn list;
  mutable stopping : bool;
  mutable active : int;
      (* requests currently inside [handle] — the drain count [stop]
         waits on before slamming connections shut *)
  mutable accept_domain : unit Domain.t option;
  (* Idle parking: a connection waiting for its next request sits here,
     watched by the poller domain, and costs no handler. Without this a
     handful of idle pooled connections (plus a delta subscriber, which
     never speaks again) would pin every handler domain and starve new
     requests — the fixed-size pool would be trivially DoS-able. *)
  park_mutex : Mutex.t;
  mutable parked : conn list;
  mutable parked_fds : Unix.file_descr list;
      (* the fds of [parked], in the same order, then [wake_r]: the
         poller's select set, kept beside the parked set so a wake
         builds no list *)
  wake_r : Unix.file_descr; (* self-pipe: park/stop wake the poller's select *)
  wake_w : Unix.file_descr;
  drain : Bytes.t; (* the poller's buffer for emptying the self-pipe *)
  mutable poller_domain : unit Domain.t option;
}

let port t = t.port

(* The nonce's high bits count the server instances of this process
   (never 0, so neither is a version); its low 40 bits, where stamp
   values live, are random, for instances of other processes. *)
let instances = Atomic.make 0

let draw_nonce () =
  let rng = Random.State.make_self_init () in
  let low = (Random.State.bits rng lor (Random.State.bits rng lsl 30)) land ((1 lsl 40) - 1) in
  ((Atomic.fetch_and_add instances 1 + 1) lsl 40) lor low

let version t at = t.nonce lxor at

let connections t = Mutex.protect t.mutex (fun () -> List.length t.conns)
let subscriber_count t = Mutex.protect t.mutex (fun () -> List.length t.subscribers)

(* The request path takes its locks without [Mutex.protect], whose
   thunk would be a closure per call; nothing between lock and unlock
   raises. *)
let stopping t =
  Mutex.lock t.mutex;
  let s = t.stopping in
  Mutex.unlock t.mutex;
  s

(* Every socket write on a connection holds its write mutex: request
   responses (handler domain) and pushed deltas (scheduler domain)
   interleave only at frame boundaries. *)
let send conn resp =
  Mutex.lock conn.write_mutex;
  let r = Wire.write_response conn.fd resp in
  Mutex.unlock conn.write_mutex;
  r

let rec write_frames fd = function
  | [] -> Ok ()
  | f :: rest -> (
      match Wire.write_prebuilt fd f with Ok () -> write_frames fd rest | Error e -> Error e)

(* A [Lookup] answer: its [Token] frame, staged, then the prebuilt
   chunk frames, all under one hold of the write mutex (frames of one
   answer must not interleave with pushed deltas). *)
let send_answer conn mark chunks =
  Mutex.lock conn.write_mutex;
  let r =
    match Wire.write_response conn.fd mark with
    | Ok () -> write_frames conn.fd chunks
    | Error e -> Error e
  in
  Mutex.unlock conn.write_mutex;
  r

let drop_conn t conn =
  Mutex.protect t.mutex (fun () ->
      t.conns <- List.filter (fun c -> c != conn) t.conns;
      t.subscribers <- List.filter (fun c -> c != conn) t.subscribers);
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* --- request handling ------------------------------------------------- *)

let matches_prefix prefix tp =
  let k = Tuple.arity prefix in
  Tuple.arity tp >= k
  &&
  let rec go i = i >= k || (Value.equal (Tuple.get tp i) (Tuple.get prefix i) && go (i + 1)) in
  go 0

let note t source =
  let m = t.metrics in
  Atomic.incr
    (match source with
    | Cached -> m.Metrics.cache_hits
    | Stale -> m.Metrics.cache_stale_serves
    | Revalidated -> m.Metrics.cache_revalidations
    | Patched -> m.Metrics.cache_patches
    | Rebuilt -> m.Metrics.cache_rebuilds)

(* Refresh [view]'s snapshot under the shared lock, where the stamp
   read is exact for the view's state: patch [stale] when the registry
   has folded every output change since it was built, keeping the
   canonical delta for readers of the stale one; otherwise (a first
   read, or the delta was dropped) re-enumerate. Either way the
   consumer's pending delta restarts at this stamp. [owner]: this read
   claimed the view in [refreshing], and releases it. *)
let refresh t view ~stale ~owner =
  Fun.protect
    ~finally:(fun () ->
      if owner then Mutex.protect t.cache_mutex (fun () -> Hashtbl.remove t.refreshing view))
    (fun () ->
      Registry.read t.registry (fun () ->
          match Registry.find t.registry view with
          | exception Invalid_argument msg -> Error msg
          | m ->
              let stamp = Registry.stamp t.registry view in
              (* Read the watermark before enumerating, inside the
                 shared lock: [apply_front] needs the exclusive side,
                 so no batch lands mid-enumeration and the stamp is
                 conservative (never claims visibility the entries do
                 not have). *)
              let watermark = match t.served with Some f -> f () | None -> 0 in
              let rebuild () =
                (Chunked.build ~chunk_size:t.chunk_size (m.M.enumerate ()), Rebuilt, -1, [||])
              in
              let answer, source, base, delta =
                match stale with
                | None -> rebuild ()
                | Some old -> (
                    match Registry.pending_delta t.registry view ~since:old.at with
                    | Some d ->
                        let answer, delta = Chunked.patch old.answer d in
                        (answer, Patched, old.at, delta)
                    | None -> rebuild ())
              in
              Registry.track t.registry view ~size:(Chunked.size answer);
              let snap =
                {
                  stamp;
                  at = Registry.stamp_value stamp;
                  watermark = Atomic.make watermark;
                  answer;
                  base;
                  delta;
                  keyed = Atomic.make None;
                  key_mutex = Mutex.create ();
                }
              in
              Mutex.protect t.cache_mutex (fun () -> Hashtbl.replace t.cache view snap);
              Ok (snap, source)))

(* Lock-free hit check: the view's stamp is read racily, but it is a
   monotonic counter bumped under the exclusive lock, so any observed
   value at worst declares a still-warm snapshot stale or serves one
   that a concurrent epoch is just now superseding — both fine under
   latest-completed-epoch semantics. The point is that cache hits and
   stale serves never touch the registry lock: under a continuous
   producer the writer-preferring lock would otherwise queue every read
   behind a full epoch apply. A stale snapshot is served while another
   read refreshes it; the first read of a stale view owns its refresh,
   and a first-ever read with nothing stale to serve refreshes even
   while racing one. *)
let snapshot t view : (snapshot * source, string) result =
  Mutex.lock t.cache_mutex;
  match Hashtbl.find t.cache view with
  | snap when current snap ->
      Mutex.unlock t.cache_mutex;
      Ok (snap, Cached)
  | snap when Hashtbl.mem t.refreshing view ->
      Mutex.unlock t.cache_mutex;
      Ok (snap, Stale)
  | snap ->
      Hashtbl.replace t.refreshing view ();
      Mutex.unlock t.cache_mutex;
      refresh t view ~stale:(Some snap) ~owner:true
  | exception Not_found ->
      let owner = not (Hashtbl.mem t.refreshing view) in
      if owner then Hashtbl.replace t.refreshing view ();
      Mutex.unlock t.cache_mutex;
      refresh t view ~stale:None ~owner

(* The read-your-writes fast path: a snapshot whose view has not
   changed since it was materialized reflects every update applied so
   far, so under the shared lock (no epoch mid-apply) its watermark can
   be raised to the served watermark in O(1) — without this, gated
   reads of an unchanged view would spin until their deadline. False
   when the view changed; the caller then refreshes. *)
let revalidate snap served =
  current snap
  &&
  let w = served () in
  let rec raise_to () =
    let cur = Atomic.get snap.watermark in
    if w > cur && not (Atomic.compare_and_set snap.watermark cur w) then raise_to ()
  in
  raise_to ();
  true

(* The key index of a snapshot, built by whichever keyed lookup gets
   there first; racing lookups wait on [key_mutex] and share it. *)
let keyed t snap =
  match Atomic.get snap.keyed with
  | Some k -> k
  | None ->
      Mutex.protect snap.key_mutex (fun () ->
          match Atomic.get snap.keyed with
          | Some k -> k
          | None ->
              let k = make_keyed ~chunk_size:t.chunk_size snap.answer in
              Atomic.set snap.keyed (Some k);
              Atomic.incr t.metrics.Metrics.cache_index_builds;
              k)

let key_frames t snap key =
  Option.value (Hashtbl.find_opt (keyed t snap).key_frames key) ~default:empty_answer

type outcome = Continue | Close | Shutdown_server

(* --- idle parking ------------------------------------------------------ *)

(* Only ever read, so one byte serves every server and domain. *)
let wake_byte = Bytes.make 1 '!'

let wake_poller t = try ignore (Unix.write t.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()

let park t conn =
  Mutex.lock t.park_mutex;
  t.parked <- conn :: t.parked;
  t.parked_fds <- conn.fd :: t.parked_fds;
  Mutex.unlock t.park_mutex;
  wake_poller t

(* Zero-timeout readability probe: deciding whether to keep serving a
   connection inline (burst in progress) or hand it back to the poller.
   On any select error, claim readable — the next read surfaces the
   real failure and drops the connection. *)
let readable_now conn =
  match Unix.select conn.watch [] [] 0. with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* The chunk frames answering [prefix] from a snapshot. *)
let prefix_frames t snap prefix =
  if Tuple.arity prefix = 0 then frames snap
  else if Tuple.arity prefix = 1 then
    (* Bound first variable: the whole answer is already framed per
       key — serve the prebuilt bytes (or the shared empty
       terminator). *)
    key_frames t snap (Tuple.get prefix 0)
  else
    (* Longer prefixes need filtering — the one per-request encoding
       path left. *)
    let group =
      Option.value (Hashtbl.find_opt (keyed t snap).by_key (Tuple.get prefix 0)) ~default:[]
    in
    build_frames ~chunk_size:t.chunk_size
      (List.filter (fun (tp, _) -> matches_prefix prefix tp) group)

(* The failpoint of the read-your-writes e2e test: an armed
   ["net.stale_read"] makes a gated [Lookup] skip its watermark gate and
   serve whatever snapshot is current — the watermark it reports stays
   honest, which is exactly how the client-side session catches the
   violation. *)
let stale_read_fp = "net.stale_read"

(* The snapshot a [Lookup] answers from. Ungated ([token <= 0]): the
   latest completed epoch. Gated: a two-stage wait, bounded by
   [timeout_ms]. First wait for the scheduler to apply past the token;
   then fetch until the snapshot itself carries that watermark —
   re-stamped in O(1) when the view is unchanged, patched or rebuilt
   when it changed; a stale-while-revalidate cache may briefly keep
   serving the previous epoch. *)
let read_snapshot t view ~token ~timeout_ms =
  if token <= 0 || Failpoint.hit stale_read_fp <> None then snapshot t view
  else
    match t.served with
    | None -> Error "server has no served-epoch source"
    | Some served ->
        let deadline = Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.) in
        let rec wait () =
          if served () >= token then true
          else if Unix.gettimeofday () >= deadline then false
          else begin
            Unix.sleepf 0.001;
            wait ()
          end
        in
        let rec fetch () =
          match snapshot t view with
          | Error _ as e -> e
          | Ok (snap, _) as hit when Atomic.get snap.watermark >= token -> hit
          | Ok (snap, _)
            when Registry.read t.registry (fun () -> revalidate snap served)
                 && Atomic.get snap.watermark >= token ->
              Ok (snap, Revalidated)
          | Ok _ ->
              if Unix.gettimeofday () >= deadline then
                Error "read-your-writes deadline: snapshot behind token"
              else begin
                Unix.sleepf 0.001;
                fetch ()
              end
        in
        if wait () then fetch ()
        else Error "read-your-writes deadline: served watermark behind token"

(* What a [Lookup] is answered with from a snapshot. A whole-view
   read whose [since] is the snapshot's own version gets the shared
   empty terminator, one whose [since] is the version it was patched
   from gets the kept delta — both with [base = since]; any other read
   gets the whole answer ([base = 0]). *)
let answer_base t snap ~prefix ~since =
  if since = 0 || Tuple.arity prefix > 0 then 0
  else if since = version t snap.at || (snap.base >= 0 && since = version t snap.base) then since
  else 0

let answer_chunks t snap ~prefix ~base =
  if base = 0 then prefix_frames t snap prefix
  else if base = version t snap.at || Array.length snap.delta = 0 then empty_answer
  else Chunked.frames (Chunked.of_canonical ~chunk_size:t.chunk_size snap.delta)

let token t snap ~base =
  Wire.Token { watermark = Atomic.get snap.watermark; version = version t snap.at; base }

let lookup_answer t snap ~prefix ~since =
  let base = answer_base t snap ~prefix ~since in
  (token t snap ~base, answer_chunks t snap ~prefix ~base)

(* Test seams for the zero-copy property: the exact prebuilt buffers
   an answer writes. Physical identity of these across requests while
   the view is unchanged is what "zero per-request encoding" means, and
   what [test_net] asserts. *)
let answer_frames t view ~since =
  Result.map
    (fun (snap, source) ->
      note t source;
      lookup_answer t snap ~prefix:Tuple.unit ~since)
    (snapshot t view)

let snapshot_frames t view = Result.map snd (answer_frames t view ~since:0)

let lookup_frames t view key =
  Result.map
    (fun (snap, source) ->
      note t source;
      key_frames t snap key)
    (snapshot t view)

let respond conn resp = match send conn resp with Ok () -> Continue | Error _ -> Close

let handle t conn (req : Wire.request) : outcome =
  match req with
  | Wire.Ping -> respond conn Wire.Pong
  | Wire.Lookup { view; prefix; token = tok; timeout_ms; since } -> (
      match read_snapshot t view ~token:tok ~timeout_ms with
      | Error msg -> respond conn (Wire.Err msg)
      | Ok (snap, source) -> (
          note t source;
          let base = answer_base t snap ~prefix ~since in
          match send_answer conn (token t snap ~base) (answer_chunks t snap ~prefix ~base) with
          | Ok () -> Continue
          | Error _ -> Close))
  | Wire.Ingest updates -> (
      if stopping t then respond conn (Wire.Err "server is shutting down")
      else
        match t.ingest with
        | None -> respond conn (Wire.Err "server is read-only")
        | Some ingest ->
            let admitted, dropped = ingest updates in
            respond conn (Wire.Ack { admitted; dropped }))
  | Wire.Ingest_rw updates -> (
      if stopping t then respond conn (Wire.Err "server is shutting down")
      else
        match t.ingest_rw with
        | None -> respond conn (Wire.Err "server has no epoch-token ingest")
        | Some ingest ->
            let admitted, dropped, token = ingest updates in
            respond conn (Wire.Ack_token { admitted; dropped; token }))
  | Wire.Subscribe -> (
      (* Registered before the ack, under the connection's write mutex:
         a delta published meanwhile waits for the ack, so the first
         frame a subscriber reads is always [Subscribed], and every
         epoch applied after the client has read it is pushed. *)
      match
        Mutex.protect conn.write_mutex (fun () ->
            Mutex.protect t.mutex (fun () ->
                if not (List.memq conn t.subscribers) then
                  t.subscribers <- conn :: t.subscribers);
            Wire.write_response conn.fd Wire.Subscribed)
      with
      | Error _ -> Close
      | Ok () -> Continue)
  | Wire.Stats -> respond conn (Wire.Text (Metrics.render t.metrics))
  | Wire.Health ->
      let hs =
        Registry.read t.registry (fun () ->
            List.map
              (fun (name, h) ->
                (name, Registry.health_name h, Registry.last_error t.registry name))
              (Registry.statuses t.registry))
      in
      respond conn (Wire.Health_list hs)
  | Wire.Fingerprints ->
      let fps = Registry.read t.registry (fun () -> Registry.fingerprints t.registry) in
      respond conn (Wire.Fingerprint_list fps)
  | Wire.Heal -> respond conn (Wire.Healed (Registry.heal t.registry))
  | Wire.Checkpoint -> (
      match t.checkpoint with
      | None -> respond conn (Wire.Err "server has no checkpoint store")
      | Some ck -> (
          match ck () with
          | Ok wal_offset -> respond conn (Wire.Checkpointed { wal_offset })
          | Error msg -> respond conn (Wire.Err msg)))
  | Wire.Barrier -> (
      match t.barrier with
      | None -> respond conn (Wire.Err "server has no scheduler to fence")
      | Some fence -> (
          match fence () with
          | Ok epoch -> respond conn (Wire.Barrier_done { epoch })
          | Error msg -> respond conn (Wire.Err msg)))
  | Wire.Sql text -> (
      if stopping t then respond conn (Wire.Err "server is shutting down")
      else
        match t.sql with
        | None -> respond conn (Wire.Err "server has no SQL session")
        | Some f -> (
            match f text with
            | Ok out -> respond conn (Wire.Text out)
            | Error msg -> respond conn (Wire.Err msg)))
  | Wire.Shutdown ->
      (* Ack first: the client's [shutdown] call deserves its [Bye] even
         though the server starts tearing down immediately after. *)
      (match send conn Wire.Bye with Ok () | Error _ -> ());
      Shutdown_server

(* Wake the accept loop by connecting to ourselves: closing a listening
   socket does not reliably interrupt an [accept] blocked on another
   domain, a loopback connection always does. *)
let wake_accept t =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port))
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let initiate_shutdown t =
  let first = Mutex.protect t.mutex (fun () ->
      let first = not t.stopping in
      t.stopping <- true;
      first)
  in
  if first then begin
    wake_accept t;
    match t.on_shutdown with Some f -> f () | None -> ()
  end

(* --- connection handler ----------------------------------------------- *)

(* Serve requests off one connection while bytes are already waiting,
   then hand it back to the poller. A handler domain is occupied only
   for requests in flight, never for a connection that is merely open —
   [continue] is the seam that makes the fixed-size pool immune to idle
   connections. A request allocates what it decodes and what it
   answers, but no closure: the request count, the clock and the
   metrics take no thunk, and the elapsed time reaches {!Metrics} as
   integer nanoseconds, not a boxed float. *)
let rec serve_conn t conn =
  match Wire.read_frame conn.fd with
  | Error (Wire.Eof | Wire.Truncated | Wire.Io _ | Wire.Timeout | Wire.Closed) ->
      drop_conn t conn
  | Error (Wire.Too_large _ as e) ->
      (* The oversized body was never read, so the stream has lost its
         frame alignment — tell the client why and hang up. *)
      (match send conn (Wire.Err (Wire.error_to_string e)) with Ok () | Error _ -> ());
      drop_conn t conn
  | Error e ->
      (* Checksum or opcode/body trouble inside one complete frame: the
         boundary is intact, answer with the error and keep serving. *)
      refuse t conn e
  | Ok body -> (
      match Wire.decode_request body with
      | Error e -> refuse t conn e
      | Ok req -> (
          let t0 = Unix.gettimeofday () in
          Mutex.lock t.mutex;
          t.active <- t.active + 1;
          Mutex.unlock t.mutex;
          let outcome =
            match handle t conn req with
            | o ->
                leave t;
                o
            | exception e ->
                leave t;
                raise e
          in
          let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
          Metrics.record_op t.metrics (Wire.request_name req) ns;
          (* View-addressed ops also feed the per-tenant (view, op)
             series, so one tenant's tail is visible on its own. *)
          (match req with
          | Wire.Lookup { view; _ } ->
              Metrics.record_view_op t.metrics ~view ~op:(Wire.request_name req) ns
          | _ -> ());
          match outcome with
          | Continue -> continue t conn
          | Close -> drop_conn t conn
          | Shutdown_server ->
              drop_conn t conn;
              initiate_shutdown t))

and continue t conn = if readable_now conn then serve_conn t conn else park t conn

and refuse t conn e =
  match send conn (Wire.Err (Wire.error_to_string e)) with
  | Ok () -> continue t conn
  | Error _ -> drop_conn t conn

and leave t =
  Mutex.lock t.mutex;
  t.active <- t.active - 1;
  Mutex.unlock t.mutex

(* [conns] without the readable ones, each submitted to the handler
   pool; [fds] likewise, never dropping the self-pipe [keep]. Both
   share the longest unchanged tail, so a wake allocates only for the
   parked entries ahead of a readable one — and recently parked
   connections, the likeliest to speak next, sit at the front. *)
let rec unpark pool readable conns =
  match conns with
  | [] -> conns
  | c :: rest ->
      let rest' = unpark pool readable rest in
      if List.memq c.fd readable then begin
        Handler_pool.submit pool c;
        rest'
      end
      else if rest' == rest then conns
      else c :: rest'

let rec unpark_fds ~keep readable fds =
  match fds with
  | [] -> fds
  | fd :: rest ->
      let rest' = unpark_fds ~keep readable rest in
      if fd != keep && List.memq fd readable then rest'
      else if rest' == rest then fds
      else fd :: rest'

(* The poller: select over every parked connection plus the self-pipe,
   dispatch the readable ones to the handler pool. The 250 ms select
   timeout bounds shutdown latency even if a wake byte is lost. A wake
   allocates what [Unix.select] returns and the list cells
   [unpark] rebuilds, nothing else. *)
let rec poll_loop t =
  if stopping t then ()
  else begin
    Mutex.lock t.park_mutex;
    let fds = t.parked_fds in
    Mutex.unlock t.park_mutex;
    match Unix.select fds [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll_loop t
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        (* A parked fd was closed under us (shutdown race): drop the
           dead ones and carry on watching the rest. *)
        Mutex.protect t.park_mutex (fun () ->
            t.parked <-
              List.filter
                (fun c ->
                  match Unix.fstat c.fd with
                  | (_ : Unix.stats) -> true
                  | exception Unix.Unix_error _ -> false)
                t.parked;
            t.parked_fds <- List.map (fun c -> c.fd) t.parked @ [ t.wake_r ]);
        poll_loop t
    | readable, _, _ ->
        (if List.memq t.wake_r readable then
           try ignore (Unix.read t.wake_r t.drain 0 (Bytes.length t.drain))
           with Unix.Unix_error _ -> ());
        (match readable with
        | [ fd ] when fd == t.wake_r -> ()
        | [] -> ()
        | _ ->
            Mutex.lock t.park_mutex;
            t.parked <- unpark t.pool readable t.parked;
            t.parked_fds <- unpark_fds ~keep:t.wake_r readable t.parked_fds;
            Mutex.unlock t.park_mutex);
        poll_loop t
  end

(* --- delta fan-out ---------------------------------------------------- *)

let publish_delta t ~epoch front =
  let subs = Mutex.protect t.mutex (fun () -> t.subscribers) in
  if subs <> [] then begin
    (* The wire frame stays a flat update list; the front is flattened
       only here, once per epoch, instead of each producer re-deriving
       shapes from a flat batch. *)
    let updates = List.concat_map snd front in
    let frame = Wire.frame_bytes (Wire.encode_response (Wire.Delta { epoch; updates })) in
    List.iter
      (fun conn ->
        let ok =
          Mutex.protect conn.write_mutex (fun () ->
              match Wire.write_prebuilt conn.fd frame with Ok () -> true | Error _ -> false)
        in
        (* Slow-consumer policy: a send that fails or times out leaves a
           half-written frame we cannot resynchronize — disconnect. The
           shutdown wakes the handler's blocked read, which cleans up. *)
        if not ok then begin
          Mutex.protect t.mutex (fun () ->
              t.subscribers <- List.filter (fun c -> c != conn) t.subscribers);
          try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
        end)
      subs
  end

(* --- lifecycle -------------------------------------------------------- *)

(* The accept loop must outlive transient accept failures: a client
   that resets mid-handshake raises [ECONNABORTED] (its connection, not
   our listener), and fd exhaustion ([EMFILE]/[ENFILE]) is the load
   spike's fault, not the socket's — existing handlers will release fds
   as they finish. Both continue; fd pressure backs off first so the
   loop does not spin at 100% CPU re-raising the same error. Only a
   dead listener (shutdown in progress, or [EBADF]/[EINVAL] from a
   closed fd) exits the loop. *)
let rec accept_loop t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
  | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop t
  | exception
      Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM), _, _)
    ->
      if stopping t then ()
      else begin
        Unix.sleepf 0.05;
        accept_loop t
      end
  | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) ->
      if stopping t then ()
      else begin
        Unix.sleepf 0.01;
        accept_loop t
      end
  | fd, _ ->
      if stopping t then (try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        (* The send timeout is the slow-subscriber bound: a peer that
           stops draining its socket for this long gets disconnected
           rather than stalling the delta fan-out. *)
        (if t.snd_timeout > 0. then
           try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.snd_timeout
           with Unix.Unix_error _ -> ());
        let conn = { fd; write_mutex = Mutex.create (); watch = [ fd ]; server = t } in
        Mutex.protect t.mutex (fun () -> t.conns <- conn :: t.conns);
        (* Straight to the poller: a freshly accepted connection has no
           request yet, so it must not occupy a handler. *)
        park t conn;
        accept_loop t
      end

(* What the handler pool runs. *)
let serve conn = serve_conn conn.server conn

let start ?(host = "127.0.0.1") ~port ?(chunk_size = 512) ?(snd_timeout = 5.0)
    ?(handlers = 4) ?ingest ?ingest_rw ?served ?checkpoint ?sql ?barrier
    ?on_shutdown ~registry ~metrics () =
  if chunk_size < 1 then invalid_arg "Server.start: chunk_size < 1";
  if handlers < 1 then invalid_arg "Server.start: handlers < 1";
  match Wire.address host port with
  | Error e -> Error e
  | Ok addr -> (
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Wire.Io (Unix.error_message e))
  | listen_fd -> (
      try
        Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
        Unix.bind listen_fd addr;
        Unix.listen listen_fd 128;
        let port =
          match Unix.getsockname listen_fd with
          | Unix.ADDR_INET (_, p) -> p
          | Unix.ADDR_UNIX _ -> port
        in
        let wake_r, wake_w = Unix.pipe ~cloexec:true () in
        let t =
          {
            listen_fd;
            port;
            nonce = draw_nonce ();
            registry;
            metrics;
            chunk_size;
            snd_timeout;
            ingest;
            ingest_rw;
            served;
            checkpoint;
            sql;
            barrier;
            on_shutdown;
            (* The accept loop lives on its own domain and only ever
               submits, never executes. *)
            pool = Handler_pool.create ~workers:handlers serve;
            cache_mutex = Mutex.create ();
            cache = Hashtbl.create 8;
            refreshing = Hashtbl.create 8;
            mutex = Mutex.create ();
            conns = [];
            subscribers = [];
            stopping = false;
            active = 0;
            accept_domain = None;
            park_mutex = Mutex.create ();
            parked = [];
            parked_fds = [ wake_r ];
            wake_r;
            wake_w;
            drain = Bytes.create 64;
            poller_domain = None;
          }
        in
        t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
        t.poller_domain <- Some (Domain.spawn (fun () -> poll_loop t));
        Ok t
      with e -> (
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        match e with
        | Unix.Unix_error (e, _, _) -> Error (Wire.Io (Unix.error_message e))
        | e -> raise e)))

let stop ?(grace = 1.0) t =
  Mutex.protect t.mutex (fun () -> t.stopping <- true);
  wake_accept t;
  (match t.accept_domain with
  | Some d ->
      Domain.join d;
      t.accept_domain <- None
  | None -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* Drain: requests already inside [handle] get up to [grace] seconds
     to finish and write their responses before connections are slammed
     shut — a Shutdown must not cut off the answers in flight. New
     requests are already refused ([stopping] is set). *)
  let deadline = Unix.gettimeofday () +. grace in
  let rec drain () =
    if
      Mutex.protect t.mutex (fun () -> t.active > 0)
      && Unix.gettimeofday () < deadline
    then begin
      Unix.sleepf 0.002;
      drain ()
    end
  in
  if grace > 0. then drain ();
  (* Wake every handler blocked in a read; they drain to EOF and drop
     their connections before the pool joins its workers. *)
  let conns = Mutex.protect t.mutex (fun () -> t.conns) in
  List.iter
    (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  (* The poller exits on [stopping] (bounded by its select timeout);
     join it before closing fds out from under its select set. *)
  wake_poller t;
  (match t.poller_domain with
  | Some d ->
      Domain.join d;
      t.poller_domain <- None
  | None -> ());
  Handler_pool.destroy t.pool;
  let leftovers = Mutex.protect t.mutex (fun () -> t.conns) in
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) leftovers;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
