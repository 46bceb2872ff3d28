(* The network layer: pure frame-codec properties (roundtrip,
   truncation, bit flips — typed errors, never exceptions or hangs),
   message roundtrips, fault-injected framing through Fault.Io, the
   Prometheus metrics exposition, and the end-to-end loopback server:
   concurrent clients whose answers agree with a single-process
   reference registry, including across a checkpointed
   kill-and-restart, read-your-writes sessions (closed-economy
   conservation fenced mid-run included), and the Shutdown op's
   teardown. *)

module D = Ivm_data
module S = D.Schema
module U = D.Update
module Rel = D.Relation.Z
module Wire = Ivm_net.Wire
module Server = Ivm_net.Server
module Client = Ivm_net.Client
module Squeue = Ivm_stream.Queue
module Metrics = Ivm_stream.Metrics
module Registry = Ivm_stream.Registry
module Scheduler = Ivm_stream.Scheduler
module Checkpoint = Ivm_stream.Checkpoint
module Durable = Ivm_stream.Durable
module Wal = Ivm_stream.Wal
module M = Ivm_engine.Maintainable
module Tri = Ivm_engine.Triangle
module Tb = Ivm_engine.Triangle_batch
module Failpoint = Ivm_fault.Failpoint
module Fio = Ivm_fault.Io

let tup = D.Tuple.of_ints

let ok_wire = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected wire error: %s" (Wire.error_to_string e)

let ok_stream = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "unexpected durability error: %s" (Ivm_stream.Errors.to_string e)

let tmp_path suffix =
  let path = Filename.temp_file "ivm_net" suffix in
  Sys.remove path;
  path

let with_tmp suffix f =
  let path = tmp_path suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* --- framing: pure properties ---------------------------------------- *)

let body_gen = QCheck.Gen.(string_size ~gen:char (int_range 0 2000))

let frame_roundtrip =
  QCheck.Test.make ~name:"frame/decode roundtrip" ~count:200
    (QCheck.make ~print:String.escaped body_gen) (fun body ->
      match Wire.decode_frame (Wire.frame body) ~pos:0 with
      | Ok (decoded, next) ->
          decoded = body && next = Wire.header_len + String.length body
      | Error _ -> false)

let frame_concat =
  QCheck.Test.make ~name:"concatenated frames decode in sequence" ~count:100
    QCheck.(pair (make ~print:String.escaped body_gen) (make ~print:String.escaped body_gen))
    (fun (b1, b2) ->
      let buf = Wire.frame b1 ^ Wire.frame b2 in
      match Wire.decode_frame buf ~pos:0 with
      | Error _ -> false
      | Ok (d1, pos) -> (
          d1 = b1
          &&
          match Wire.decode_frame buf ~pos with
          | Error _ -> false
          | Ok (d2, pos) -> d2 = b2 && Wire.decode_frame buf ~pos = Error Wire.Eof))

let frame_truncation =
  QCheck.Test.make ~name:"every strict prefix is Truncated, never an exception"
    ~count:200
    QCheck.(pair (make ~print:String.escaped body_gen) (float_bound_exclusive 1.0))
    (fun (body, frac) ->
      let full = Wire.frame body in
      let cut = int_of_float (frac *. float_of_int (String.length full)) in
      let cut = max 0 (min cut (String.length full - 1)) in
      match Wire.decode_frame (String.sub full 0 cut) ~pos:0 with
      | Error Wire.Eof -> cut = 0
      | Error Wire.Truncated -> cut > 0
      | Error _ | Ok _ -> false)

let frame_bit_flip =
  QCheck.Test.make ~name:"any single bit flip yields a typed error" ~count:300
    QCheck.(pair (make ~print:String.escaped body_gen) (int_bound 100_000))
    (fun (body, i) ->
      let full = Bytes.of_string (Wire.frame body) in
      let bit = i mod (8 * Bytes.length full) in
      let byte = bit / 8 in
      Bytes.set full byte (Char.chr (Char.code (Bytes.get full byte) lxor (1 lsl (bit mod 8))));
      (* A flip in the length field can surface as Truncated or
         Too_large, one anywhere else as Crc_mismatch — but never Ok
         and never an exception. *)
      match Wire.decode_frame (Bytes.to_string full) ~pos:0 with
      | Error _ -> true
      | Ok _ -> false)

let oversized_rejected () =
  (match Wire.frame (String.make (Wire.max_body + 1) 'x') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "frame over max_body must be rejected");
  (* A header advertising an oversized body is refused before any
     allocation: build one by hand. *)
  let b = Bytes.create Wire.header_len in
  Bytes.set_int32_le b 0 (Int32.of_int (Wire.max_body + 1));
  Bytes.set_int32_le b 4 0l;
  match Wire.decode_frame (Bytes.to_string b) ~pos:0 with
  | Error (Wire.Too_large n) ->
      Alcotest.(check int) "advertised size reported" (Wire.max_body + 1) n
  | Error e -> Alcotest.failf "expected Too_large, got %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized header accepted"

(* --- messages --------------------------------------------------------- *)

let sample_updates =
  [
    U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:3;
    U.make ~rel:"S" ~tuple:(tup [ 4; 5 ]) ~payload:(-1);
  ]

let all_requests =
  [
    Wire.Ping;
    Wire.Lookup { view = "paths-rs"; prefix = tup [ 7 ] };
    Wire.Lookup { view = "v"; prefix = D.Tuple.unit };
    Wire.Snapshot { view = "tri" };
    Wire.Ingest sample_updates;
    Wire.Ingest [];
    Wire.Subscribe;
    Wire.Stats;
    Wire.Health;
    Wire.Fingerprints;
    Wire.Heal;
    Wire.Checkpoint;
    Wire.Shutdown;
    Wire.Version;
    Wire.Create_view "CREATE TABLE R (a, b); CREATE MATERIALIZED VIEW v AS SELECT a FROM R";
    Wire.Explain "EXPLAIN SELECT a, b FROM R";
  ]

let all_responses =
  [
    Wire.Pong;
    Wire.Chunk { last = false; entries = [ (tup [ 1; 2 ], 3); (tup [], 5) ] };
    Wire.Chunk { last = true; entries = [] };
    Wire.Ack { admitted = 10; dropped = 2 };
    Wire.Text "# TYPE x counter\nx 1\n";
    Wire.Health_list [ ("a", "healthy", None); ("b", "degraded", Some "boom") ];
    Wire.Fingerprint_list [ ("a", 123); ("b", -7) ];
    Wire.Healed [ "flaky" ];
    Wire.Healed [];
    Wire.Checkpointed { wal_offset = 99 };
    Wire.Delta { epoch = 42; updates = sample_updates };
    Wire.Err "no such view";
    Wire.Bye;
    Wire.Subscribed;
    Wire.Version_info { version = Wire.protocol_version };
  ]

let request_roundtrip () =
  List.iter
    (fun req ->
      match Wire.decode_request (Wire.encode_request req) with
      | Ok req' ->
          Alcotest.(check bool)
            ("request roundtrip " ^ Wire.request_name req)
            true (req = req')
      | Error e ->
          Alcotest.failf "request %s failed to decode: %s" (Wire.request_name req)
            (Wire.error_to_string e))
    all_requests

let response_roundtrip () =
  List.iter
    (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Ok resp' ->
          Alcotest.(check bool)
            ("response roundtrip " ^ Wire.response_name resp)
            true (resp = resp')
      | Error e ->
          Alcotest.failf "response %s failed to decode: %s" (Wire.response_name resp)
            (Wire.error_to_string e))
    all_responses

let garbage_bodies =
  QCheck.Test.make ~name:"garbage bodies decode to typed errors, never raise"
    ~count:300
    (QCheck.make ~print:String.escaped body_gen)
    (fun body ->
      let forced = function Ok _ | Error _ -> true in
      forced (Wire.decode_request body) && forced (Wire.decode_response body))

let unknown_opcode () =
  (match Wire.decode_request "\xee" with
  | Error (Wire.Bad_op 0xee) -> ()
  | _ -> Alcotest.fail "unknown request opcode must be Bad_op");
  match Wire.decode_response "\x05" with
  | Error (Wire.Bad_op 0x05) -> ()
  | _ -> Alcotest.fail "unknown response opcode must be Bad_op"

let truncated_message () =
  (* A valid message cut mid-body: the frame layer passes it through
     (its checksum is computed over the cut body by the writer in this
     scenario), so the message decoder must report it as Decode. *)
  let body = Wire.encode_request (Wire.Lookup { view = "paths"; prefix = tup [ 1; 2 ] }) in
  for cut = 1 to String.length body - 1 do
    match Wire.decode_request (String.sub body 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncated message body accepted at %d" cut
  done

(* --- framing through Fault.Io ---------------------------------------- *)

let with_failpoints f =
  Failpoint.enable ~seed:7 ();
  Fun.protect ~finally:Failpoint.reset f

let faulty_short_write () =
  with_failpoints (fun () ->
      with_tmp ".frame" (fun path ->
          let body = Wire.encode_request (Wire.Snapshot { view = "tri" }) in
          let full = Wire.frame body in
          Failpoint.arm "netio.write" (Failpoint.Short_write (String.length full / 2));
          let out =
            match Fio.open_trunc ~tag:"netio" path with
            | Ok o -> o
            | Error e -> Alcotest.failf "open: %s" (Fio.error_to_string e)
          in
          (match Fio.write out full with
          | Error { injected = true; _ } -> ()
          | Error e -> Alcotest.failf "expected injected error: %s" (Fio.error_to_string e)
          | Ok () -> Alcotest.fail "short write must report the fault");
          Fio.close_noerr out;
          let on_disk =
            match Fio.read_file ~tag:"netio" path with
            | Ok s -> s
            | Error e -> Alcotest.failf "read: %s" (Fio.error_to_string e)
          in
          Alcotest.(check int) "torn tail on disk" (String.length full / 2)
            (String.length on_disk);
          match Wire.decode_frame on_disk ~pos:0 with
          | Error Wire.Truncated -> ()
          | Error e -> Alcotest.failf "expected Truncated, got %s" (Wire.error_to_string e)
          | Ok _ -> Alcotest.fail "torn frame accepted"))

let faulty_bit_flip () =
  with_failpoints (fun () ->
      with_tmp ".frame" (fun path ->
          let body = Wire.encode_request (Wire.Snapshot { view = "tri" }) in
          let full = Wire.frame body in
          (* Flip the first bit of the body: the length field stays
             intact, so the corruption is exactly what the CRC covers. *)
          Failpoint.arm "netio.write" (Failpoint.Bit_flip (8 * Wire.header_len));
          let out =
            match Fio.open_trunc ~tag:"netio" path with
            | Ok o -> o
            | Error e -> Alcotest.failf "open: %s" (Fio.error_to_string e)
          in
          (match Fio.write out full with
          | Ok () -> () (* silent corruption: the write succeeds *)
          | Error e -> Alcotest.failf "bit flip must succeed: %s" (Fio.error_to_string e));
          (match Fio.close out with
          | Ok () -> ()
          | Error e -> Alcotest.failf "close: %s" (Fio.error_to_string e));
          let on_disk =
            match Fio.read_file ~tag:"netio" path with
            | Ok s -> s
            | Error e -> Alcotest.failf "read: %s" (Fio.error_to_string e)
          in
          match Wire.decode_frame on_disk ~pos:0 with
          | Error (Wire.Crc_mismatch _) -> ()
          | Error e ->
              Alcotest.failf "expected Crc_mismatch, got %s" (Wire.error_to_string e)
          | Ok _ -> Alcotest.fail "checksum missed a flipped bit"))


(* --- prebuilt chunk frames and copy-on-write answers ------------------ *)

let entries_gen =
  QCheck.Gen.(
    list_size (int_range 0 60)
      (pair (map (fun (a, b) -> tup [ a; b ]) (pair (int_range 0 9) (int_range 0 9)))
         (int_range (-3) 3)))

let print_entries es =
  String.concat ";" (List.map (fun (tp, p) -> Printf.sprintf "%s:%d" (D.Tuple.to_string tp) p) es)

(* The one-allocation chunk frame is byte-identical to framing the
   encoded [Chunk] response. *)
let chunk_frame_identical =
  QCheck.Test.make ~name:"chunk_frame = frame_bytes of the encoded Chunk" ~count:200
    QCheck.(pair bool (make ~print:print_entries entries_gen))
    (fun (last, entries) ->
      let a = Array.of_list entries in
      let n = Array.length a in
      let off = n / 3 in
      let len = n - off - (n / 4) in
      let slice = List.filteri (fun i _ -> i >= off && i < off + len) entries in
      Bytes.equal
        (Wire.chunk_frame ~last a ~off ~len)
        (Wire.frame_bytes (Wire.encode_response (Wire.Chunk { last; entries = slice }))))

(* The frame layout itself: u32 length, u32 CRC, body. *)
let frame_layout =
  QCheck.Test.make ~name:"frame = length, crc, body" ~count:100
    (QCheck.make ~print:String.escaped body_gen) (fun body ->
      let b = Buffer.create 8 in
      D.Codec.add_u32 b (String.length body);
      D.Codec.add_u32 b (D.Codec.crc32 body ~pos:0 ~len:(String.length body));
      Wire.frame body = Buffer.contents b ^ body)

(* The Z-set an answer serves: sorted, equal tuples summed, no zeros. *)
let zset entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (tp, p) ->
      let k = D.Tuple.to_list tp in
      Hashtbl.replace tbl k (p + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    entries;
  Hashtbl.fold (fun k p acc -> if p = 0 then acc else (k, p) :: acc) tbl [] |> List.sort compare

let decode_frames frames =
  List.map
    (fun f ->
      match Wire.decode_frame (Bytes.to_string f) ~pos:0 with
      | Error e -> Alcotest.failf "frame: %s" (Wire.error_to_string e)
      | Ok (body, _) -> (
          match Wire.decode_response body with
          | Ok (Wire.Chunk { last; entries }) -> (last, entries)
          | Ok r -> Alcotest.failf "expected a chunk, got %s" (Wire.response_name r)
          | Error e -> Alcotest.failf "chunk: %s" (Wire.error_to_string e)))
    frames

(* What a client reassembles from an answer's frames, checking the
   chunk invariants on the way: at most [chunk_size] entries each, the
   [last] flag on the final frame only, no zero payloads. *)
let served ~chunk_size frames =
  let chunks = decode_frames frames in
  let n = List.length chunks in
  List.iteri
    (fun i (last, entries) ->
      if last <> (i = n - 1) then Alcotest.fail "last flag misplaced";
      if List.length entries > chunk_size then Alcotest.fail "chunk over chunk_size";
      if List.exists (fun (_, p) -> p = 0) entries then Alcotest.fail "zero payload served")
    chunks;
  List.concat_map snd chunks

(* A chain of patches serves exactly what a from-scratch build of all
   the entries serves, within the chunk invariants and without
   fragmenting past twice the minimum frame count; an all-zero delta
   returns the answer itself. *)
let chunked_patch_equals_rebuild =
  QCheck.Test.make ~name:"patched answer = answer rebuilt from scratch" ~count:200
    QCheck.(
      triple (int_range 1 7)
        (make ~print:print_entries entries_gen)
        (list_of_size (Gen.int_range 1 6) (make ~print:print_entries entries_gen)))
    (fun (chunk_size, base, deltas) ->
      let module C = Ivm_net.Chunked in
      let step (answer, all) delta =
        let next = C.patch answer delta and all = all @ delta in
        let got = served ~chunk_size (C.frames next) in
        if List.map (fun (tp, p) -> (D.Tuple.to_list tp, p)) got <> zset all then
          QCheck.Test.fail_reportf "patched %s" (print_entries got);
        if C.size next <> C.size (C.build ~chunk_size all) then
          QCheck.Test.fail_report "size differs from a rebuild";
        if List.length (C.frames next) > 2 * max 1 ((C.size next + chunk_size - 1) / chunk_size)
        then QCheck.Test.fail_report "answer too fragmented";
        if zset delta = [] && next != answer then
          QCheck.Test.fail_report "an all-zero delta must return the answer itself";
        (next, all)
      in
      ignore (List.fold_left step (C.build ~chunk_size base, base) deltas);
      true)

(* A one-key delta re-frames only the chunk holding the key: every
   other frame is physically shared with the previous answer. *)
let chunked_shares_untouched () =
  let module C = Ivm_net.Chunked in
  let base = List.init 40 (fun i -> (tup [ i ], 1)) in
  let a = C.build ~chunk_size:8 base in
  Alcotest.(check int) "five chunks" 5 (List.length (C.frames a));
  let b = C.patch a [ (tup [ 17 ], 4) ] in
  let shared = List.filter (fun f -> List.memq f (C.frames a)) (C.frames b) in
  Alcotest.(check int) "four chunks shared physically" 4 (List.length shared);
  Alcotest.(check bool) "the old answer is untouched" true
    (served ~chunk_size:8 (C.frames a) = base);
  let c = C.patch b [ (tup [ 39 ], -1) ] in
  Alcotest.(check int) "deleting from the last chunk keeps the others" 4
    (List.length (List.filter (fun f -> List.memq f (C.frames b)) (C.frames c)))

(* --- Prometheus exposition -------------------------------------------- *)

let metrics_render () =
  let m = Metrics.create () in
  Metrics.Hist.add m.Metrics.latency 0.004;
  m.Metrics.epochs <- 3;
  m.Metrics.ingested <- 40;
  List.iter (fun v -> Metrics.record_op m "lookup" v) [ 0.001; 0.002; 0.25 ];
  Metrics.record_op m "ingest" 0.01;
  ignore (Metrics.view m "tri");
  Atomic.incr m.Metrics.cache_hits;
  Atomic.incr m.Metrics.cache_hits;
  Atomic.incr m.Metrics.cache_rebuilds;
  Atomic.incr m.Metrics.cache_patches;
  Atomic.incr m.Metrics.cache_patches;
  Atomic.incr m.Metrics.cache_patches;
  Atomic.incr m.Metrics.cache_stale_serves;
  (Metrics.view m "tri").Metrics.delta_fallbacks <- 2;
  let text = Metrics.render m in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition contains " ^ needle) true (contains needle))
    [
      "# TYPE ivm_epochs_total counter";
      "ivm_epochs_total 3";
      "ivm_ingested_total 40";
      "# TYPE ivm_update_latency_seconds histogram";
      "ivm_update_latency_seconds_count 1";
      "# TYPE ivm_op_seconds histogram";
      "ivm_op_seconds_count{op=\"lookup\"} 3";
      "ivm_op_seconds_count{op=\"ingest\"} 1";
      "le=\"+Inf\"";
      "ivm_view_updates_total{view=\"tri\"} 0";
      "# TYPE ivm_snapshot_cache_hits_total counter";
      "ivm_snapshot_cache_hits_total 2";
      "ivm_snapshot_cache_revalidations_total 0";
      "ivm_snapshot_cache_rebuilds_total 1";
      "ivm_snapshot_cache_index_builds_total 0";
      "# TYPE ivm_snapshot_cache_patches_total counter";
      "ivm_snapshot_cache_patches_total 3";
      "# TYPE ivm_snapshot_cache_stale_serves_total counter";
      "ivm_snapshot_cache_stale_serves_total 1";
      "# TYPE ivm_view_delta_fallbacks_total counter";
      "ivm_view_delta_fallbacks_total{view=\"tri\"} 2";
    ];
  (* One # TYPE header per metric name, even with several op labels. *)
  let count_type =
    let needle = "# TYPE ivm_op_seconds histogram" in
    let nl = String.length needle in
    let rec go i acc =
      if i + nl > String.length text then acc
      else go (i + 1) (if String.sub text i nl = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "one TYPE line for ivm_op_seconds" 1 count_type

(* --- end-to-end loopback ---------------------------------------------- *)

let q_rs =
  Ivm_query.Cq.make ~name:"Q" ~free:[ "B"; "A"; "C" ]
    [ Ivm_query.Cq.atom "R" [ "A"; "B" ]; Ivm_query.Cq.atom "S" [ "B"; "C" ] ]

let triangle_schemas = [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]); ("T", [ "C"; "A" ]) ]

let make_triangle_db () =
  let db = D.Database.Z.create () in
  List.iter
    (fun (n, vars) -> ignore (D.Database.Z.declare db n (S.of_list vars)))
    triangle_schemas;
  db

let tri_factory (db : D.Database.Z.t) : M.t =
  let eng = Tb.Delta.create () in
  List.iter
    (fun name ->
      let rel = match name with "R" -> Tri.R | "S" -> Tri.S | _ -> Tri.T in
      Rel.iter
        (fun t p ->
          Tb.Delta.update eng rel
            ~a:(D.Value.to_int (D.Tuple.get t 0))
            ~b:(D.Value.to_int (D.Tuple.get t 1))
            p)
        (D.Database.Z.find db name))
    [ "R"; "S"; "T" ];
  M.of_triangle_batch ~name:"tri" (module Tb.Delta) eng

let paths_factory (db : D.Database.Z.t) : M.t =
  let forest = Option.get (Ivm_query.Variable_order.canonical q_rs) in
  M.of_view_tree ~name:"paths-rs" q_rs (Ivm_engine.View_tree.build q_rs forest db)

let register_views reg =
  Registry.register reg ~name:"tri" tri_factory;
  Registry.register reg ~name:"paths-rs" paths_factory

let edge_stream ?(seed = 11) n =
  let gen =
    Ivm_workload.Graph_gen.create ~seed
      { Ivm_workload.Graph_gen.nodes = 12; skew = 0.; delete_ratio = 0.3 }
  in
  List.init n (fun _ ->
      let e = Ivm_workload.Graph_gen.next gen in
      let rel = match e.Ivm_workload.Graph_gen.rel with 0 -> "R" | 1 -> "S" | _ -> "T" in
      U.make ~rel
        ~tuple:(tup [ e.Ivm_workload.Graph_gen.src; e.Ivm_workload.Graph_gen.dst ])
        ~payload:e.Ivm_workload.Graph_gen.mult)

(* The reference: the same stream applied directly in-process. *)
let reference_fingerprints stream =
  let db = make_triangle_db () in
  let reg = Registry.create db in
  register_views reg;
  Registry.apply_batch reg stream;
  ignore (Registry.heal reg);
  Registry.read reg (fun () -> Registry.fingerprints reg)

(* A running server over a live scheduler; [f] gets the server and a
   function that blocks until [n] updates have been applied. *)
let with_server ?wal ?checkpoint ~total f =
  let db = make_triangle_db () in
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics db in
  register_views reg;
  let queue = Squeue.create ~capacity:1024 Squeue.Block in
  let server = ref None in
  let on_apply ~epoch front =
    match !server with Some s -> Server.publish_delta s ~epoch front | None -> ()
  in
  let sched = Scheduler.create ?wal ~initial_batch:64 ~on_apply ~queue ~registry:reg ~metrics () in
  let runner = Domain.spawn (fun () -> Scheduler.run sched) in
  let ingest updates =
    List.fold_left
      (fun (a, d) u ->
        if Squeue.push queue (Scheduler.item u) then (a + 1, d) else (a, d + 1))
      (0, 0) updates
  in
  let srv =
    ok_wire
      (Server.start ~port:0 ~handlers:4 ~chunk_size:64 ~ingest ?checkpoint
         ~on_shutdown:(fun () -> Squeue.close queue)
         ~registry:reg ~metrics ())
  in
  server := Some srv;
  let await_applied n =
    let deadline = Unix.gettimeofday () +. 30. in
    while Scheduler.applied sched < n && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.005
    done;
    Alcotest.(check int) "stream drained" n (Scheduler.applied sched)
  in
  Fun.protect
    ~finally:(fun () ->
      Squeue.close queue;
      ignore (Domain.join runner);
      Server.stop srv)
    (fun () ->
      let r = f srv reg await_applied in
      ignore total;
      r)

let e2e_concurrent_clients () =
  let total = 3_000 in
  let stream = edge_stream total in
  let reference = reference_fingerprints stream in
  with_server ~total (fun srv reg await_applied ->
      let port = Server.port srv in
      (* Four ingesting clients, each feeding a partition — sound
         because ring updates commute across batches. Each returns its
         (admitted, dropped) totals for the main domain to check:
         Alcotest's state is not safe to touch from several domains. *)
      let parts = List.init 4 (fun k -> List.filteri (fun i _ -> i mod 4 = k) stream) in
      let writers =
        List.map
          (fun part ->
            Domain.spawn (fun () ->
                let c = ok_wire (Client.connect ~port ()) in
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    let rec feed (a, d) = function
                      | [] -> (a, d)
                      | us ->
                          let batch, rest =
                            let rec take k acc = function
                              | rest when k = 0 -> (List.rev acc, rest)
                              | [] -> (List.rev acc, [])
                              | u :: rest -> take (k - 1) (u :: acc) rest
                            in
                            take 100 [] us
                          in
                          let admitted, dropped = ok_wire (Client.ingest c batch) in
                          feed (a + admitted, d + dropped) rest
                    in
                    (List.length part, feed (0, 0) part))))
          parts
      in
      (* Readers hammer lookups and snapshots while the writers run:
         every answer must decode; sizes are checked after quiescence. *)
      let readers =
        List.init 2 (fun k ->
            Domain.spawn (fun () ->
                let c = ok_wire (Client.connect ~port ()) in
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    for i = 0 to 30 do
                      ignore (ok_wire (Client.lookup c ~view:"paths-rs" ~prefix:(tup [ (i + k) mod 12 ])));
                      ignore (ok_wire (Client.snapshot c ~view:"tri"))
                    done)))
      in
      List.iter
        (fun w ->
          let sent, (admitted, dropped) = Domain.join w in
          Alcotest.(check int) "all admitted" sent admitted;
          Alcotest.(check int) "none dropped" 0 dropped)
        writers;
      List.iter Domain.join readers;
      await_applied total;
      let c = ok_wire (Client.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ok_wire (Client.ping c);
          Alcotest.(check (list string)) "heal converges" [] (ok_wire (Client.heal c));
          let fps = ok_wire (Client.fingerprints c) in
          Alcotest.(check (list (pair string int)))
            "served fingerprints = single-process reference" reference fps;
          (* The snapshot agrees with a direct enumeration, and a bound
             first variable serves exactly the matching slice. *)
          let direct =
            Registry.read reg (fun () -> (Registry.find reg "paths-rs").M.enumerate ())
          in
          let served = ok_wire (Client.snapshot c ~view:"paths-rs") in
          (* Entry order is unspecified and [Tuple.t] memoizes its hash
             in a mutable field, so compare as sorted multisets with the
             structural comparators. *)
          let norm l =
            List.sort
              (fun (t1, p1) (t2, p2) ->
                match D.Tuple.compare t1 t2 with 0 -> Int.compare p1 p2 | c -> c)
              l
          in
          let entries_equal a b =
            List.equal
              (fun (t1, p1) (t2, p2) -> D.Tuple.equal t1 t2 && p1 = p2)
              (norm a) (norm b)
          in
          Alcotest.(check bool) "snapshot = direct enumeration" true
            (entries_equal direct served);
          let key = 3 in
          let looked = ok_wire (Client.lookup c ~view:"paths-rs" ~prefix:(tup [ key ])) in
          let expected =
            List.filter (fun (tp, _) -> D.Value.to_int (D.Tuple.get tp 0) = key) direct
          in
          Alcotest.(check bool) "lookup = filtered enumeration" true
            (entries_equal looked expected);
          (* Unknown views are a remote error, not a hang-up. *)
          (match Client.snapshot c ~view:"nope" with
          | Error (Wire.Remote _) -> ()
          | Error e -> Alcotest.failf "expected Remote, got %s" (Wire.error_to_string e)
          | Ok _ -> Alcotest.fail "unknown view must error");
          (* The stats op serves the exposition with per-op labels. *)
          let stats = ok_wire (Client.stats c) in
          Alcotest.(check bool) "stats exposition has op labels" true
            (let needle = "ivm_op_seconds_count{op=\"lookup\"}" in
             let nl = String.length needle in
             let rec go i =
               i + nl <= String.length stats && (String.sub stats i nl = needle || go (i + 1))
             in
             go 0)))

let e2e_subscribe () =
  let total = 200 in
  let stream = edge_stream total in
  with_server ~total (fun srv _reg await_applied ->
      let port = Server.port srv in
      let sub = ok_wire (Client.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Client.close sub)
        (fun () ->
          ok_wire (Client.subscribe sub);
          let writer = ok_wire (Client.connect ~port ()) in
          Fun.protect
            ~finally:(fun () -> Client.close writer)
            (fun () -> ignore (ok_wire (Client.ingest writer stream)));
          let epoch, updates = ok_wire (Client.next_delta sub) in
          Alcotest.(check bool) "epoch counted from one" true (epoch >= 1);
          Alcotest.(check bool) "delta carries coalesced updates" true (updates <> []);
          List.iter
            (fun u ->
              Alcotest.(check bool) "delta rel is a base relation" true
                (List.mem u.U.rel [ "R"; "S"; "T" ]))
            updates;
          await_applied total))

let e2e_kill_restart () =
  let total = 2_000 in
  let stream = edge_stream total in
  let reference = reference_fingerprints stream in
  let half = total / 2 in
  let first, second =
    let rec split k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | u :: rest -> split (k - 1) (u :: acc) rest
    in
    split half [] stream
  in
  with_tmp ".wal" (fun wal_path ->
      with_tmp ".ckpt" (fun ckpt_path ->
          (* First life: serve with a WAL; a client ingests half, asks
             for a durable checkpoint, then the server dies. *)
          let wal = ok_stream (Wal.Z.open_log wal_path) in
          let reg_holder = ref None in
          let checkpoint () =
            match !reg_holder with
            | None -> Error "no registry"
            | Some reg ->
                (* The client checkpoints once the first half has
                   drained, so the state covers exactly [half] records. *)
                Registry.read reg (fun () ->
                    let offset = Wal.Z.offset wal in
                    match
                      Checkpoint.Z.save ckpt_path ~db:(Registry.db reg) ~records:half
                        ~wal_offset:offset
                    with
                    | Ok () -> Ok offset
                    | Error e -> Error (Ivm_stream.Errors.to_string e))
          in
          with_server ~wal ~checkpoint ~total:half (fun srv reg await_applied ->
              reg_holder := Some reg;
              let port = Server.port srv in
              let c = ok_wire (Client.connect ~port ()) in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  ignore (ok_wire (Client.ingest c first));
                  (* Quiesce before checkpointing so the WAL offset and
                     the applied state line up. This bare server has no
                     epoch hook to park the request in, so the test
                     drains first; Node's real rendezvous is covered in
                     test_cluster. *)
                  await_applied half;
                  let offset = ok_wire (Client.checkpoint c) in
                  Alcotest.(check bool) "checkpoint covers the ingested half" true (offset > 0)));
          Wal.Z.close wal;
          (* Crash: the registry and server are gone. Restore from the
             checkpoint, replay the (empty) WAL suffix, apply the rest
             of the stream, and serve again. *)
          let restored, cursor =
            ok_stream
              (Durable.recover ~wal:wal_path ~ckpt:ckpt_path ~fresh:make_triangle_db (fun db ->
                   let reg = Registry.create db in
                   register_views reg;
                   reg))
          in
          Alcotest.(check int) "recovered record count" half cursor.Checkpoint.records;
          Registry.apply_batch restored second;
          ignore (Registry.heal restored);
          let metrics2 = Metrics.create () in
          let srv2 =
            ok_wire
              (Server.start ~port:0 ~handlers:2 ~registry:restored ~metrics:metrics2 ())
          in
          Fun.protect
            ~finally:(fun () -> Server.stop srv2)
            (fun () ->
              let c = ok_wire (Client.connect ~port:(Server.port srv2) ()) in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  let fps = ok_wire (Client.fingerprints c) in
                  Alcotest.(check (list (pair string int)))
                    "fingerprints survive kill-and-restart" reference fps;
                  (* A read-only server refuses writes but keeps reading. *)
                  (match Client.ingest c (edge_stream ~seed:5 3) with
                  | Error (Wire.Remote _) -> ()
                  | Error e -> Alcotest.failf "expected Remote, got %s" (Wire.error_to_string e)
                  | Ok _ -> Alcotest.fail "read-only server must refuse ingest");
                  ignore (ok_wire (Client.snapshot c ~view:"tri"))))))

let e2e_corrupt_frame_keeps_serving () =
  with_server ~total:0 (fun srv _reg _await ->
      let port = Server.port srv in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          (* A frame whose body bit was flipped after framing: the
             server must answer Err and keep the connection. *)
          let body = Wire.encode_request Wire.Ping in
          let full = Bytes.of_string (Wire.frame body) in
          let i = Wire.header_len in
          Bytes.set full i (Char.chr (Char.code (Bytes.get full i) lxor 1));
          let s = Bytes.to_string full in
          let n = Unix.write_substring fd s 0 (String.length s) in
          Alcotest.(check int) "corrupt frame sent" (String.length s) n;
          (match Wire.read_frame fd with
          | Ok reply -> (
              match Wire.decode_response reply with
              | Ok (Wire.Err _) -> ()
              | Ok r -> Alcotest.failf "expected Err, got %s" (Wire.response_name r)
              | Error e -> Alcotest.failf "reply decode: %s" (Wire.error_to_string e))
          | Error e -> Alcotest.failf "no reply to corrupt frame: %s" (Wire.error_to_string e));
          (* The stream is still aligned: a clean Ping works. *)
          ok_wire (Wire.write_frame fd (Wire.encode_request Wire.Ping));
          match Wire.read_frame fd with
          | Ok reply -> (
              match Wire.decode_response reply with
              | Ok Wire.Pong -> ()
              | Ok r -> Alcotest.failf "expected Pong, got %s" (Wire.response_name r)
              | Error e -> Alcotest.failf "pong decode: %s" (Wire.error_to_string e))
          | Error e -> Alcotest.failf "connection dropped after Err: %s" (Wire.error_to_string e)))

(* The zero-copy contract: once the snapshot cache is warm, a Snapshot
   (or bound-first-field Lookup) answer is served straight from the
   preserialized frames built at cache-fill time — repeated requests at
   an unchanged generation return the *physically* same buffers, and
   the bytes on the wire are exactly those buffers, CRC included. *)
let e2e_zero_copy_snapshot () =
  let total = 500 in
  let stream = edge_stream total in
  with_server ~total (fun srv _reg await_applied ->
      let port = Server.port srv in
      let c = ok_wire (Client.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let admitted, dropped = ok_wire (Client.ingest c stream) in
          Alcotest.(check int) "admitted" total admitted;
          Alcotest.(check int) "dropped" 0 dropped;
          await_applied total;
          let ok_msg = function Ok v -> v | Error msg -> Alcotest.fail msg in
          let frames view = ok_msg (Server.snapshot_frames srv view) in
          (* First call fills the cache; the second must return the
             physically same prebuilt buffers — zero per-request
             encoding. *)
          let f1 = frames "paths-rs" in
          let f2 = frames "paths-rs" in
          Alcotest.(check int) "frame lists same length" (List.length f1) (List.length f2);
          Alcotest.(check bool) "snapshot frames are physically cached" true
            (List.for_all2 (fun a b -> a == b) f1 f2);
          (* Same for a lookup with bound first field, through the
             per-key prebuilt frames. *)
          let entries = ok_wire (Client.snapshot c ~view:"paths-rs") in
          (match entries with
          | [] -> Alcotest.fail "paths-rs is empty"
          | (tp, _) :: _ ->
              let k = D.Tuple.get tp 0 in
              let l1 = ok_msg (Server.lookup_frames srv "paths-rs" k) in
              let l2 = ok_msg (Server.lookup_frames srv "paths-rs" k) in
              Alcotest.(check bool) "lookup frames are physically cached" true
                (List.for_all2 (fun a b -> a == b) l1 l2));
          (* Misses share the server-lifetime empty terminator. *)
          let m1 = ok_msg (Server.lookup_frames srv "paths-rs" (D.Value.of_int (-999))) in
          let m2 = ok_msg (Server.lookup_frames srv "paths-rs" (D.Value.of_int (-998))) in
          Alcotest.(check bool) "missing keys share one terminator frame" true
            (match (m1, m2) with [ a ], [ b ] -> a == b | _ -> false);
          (* And the wire bytes of a Snapshot answer are exactly the
             cached buffers, byte for byte. *)
          let expected = String.concat "" (List.map Bytes.to_string f1) in
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              ok_wire
                (Wire.write_frame fd
                   (Wire.encode_request (Wire.Snapshot { view = "paths-rs" })));
              let n = String.length expected in
              let buf = Bytes.create n in
              let rec fill pos =
                if pos < n then
                  match Unix.read fd buf pos (n - pos) with
                  | 0 -> Alcotest.fail "connection closed mid-answer"
                  | k -> fill (pos + k)
              in
              fill 0;
              Alcotest.(check bool) "wire bytes = cached frames" true
                (Bytes.to_string buf = expected))))

(* --- the v2 SQL ops over TCP ------------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* A server whose create_view/explain callbacks run a SQL session over
   its own registry, exactly as [ivm_cli serve --listen] wires them. The
   view a wire-delivered script creates must serve Lookup and Snapshot
   answers identical to the same query built directly on the engine
   layer from the same data. *)
let e2e_sql_over_tcp () =
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics (D.Database.Z.create ()) in
  let sess = Ivm_sql.Exec.create ~registry:reg () in
  let mu = Mutex.create () in
  let run_sql sql =
    Mutex.lock mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mu)
      (fun () ->
        match Ivm_sql.Exec.exec_text sess sql with
        | Ok outs -> Ok (String.concat "\n" (List.map Ivm_sql.Exec.render outs))
        | Error e -> Error e)
  in
  let srv =
    ok_wire
      (Server.start ~port:0 ~handlers:2 ~create_view:run_sql ~explain:run_sql
         ~registry:reg ~metrics ())
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let c = ok_wire (Client.connect ~port:(Server.port srv) ()) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Alcotest.(check int) "peer speaks v2" Wire.protocol_version
            (ok_wire (Client.version c));
          let ack =
            ok_wire
              (Client.create_view c
                 "CREATE TABLE R (a, b); CREATE TABLE S (b, c); CREATE \
                  MATERIALIZED VIEW paths AS SELECT a, c FROM R, S;")
          in
          Alcotest.(check bool) "ack names the engine" true (contains ack "engine:");
          ignore
            (ok_wire
               (Client.create_view c
                  "INSERT INTO R VALUES (1, 2), (3, 2), (5, 9); INSERT INTO S \
                   VALUES (2, 7), (2, 8), (9, 1); DELETE FROM R VALUES (5, 9);"));
          (* The same query and data built directly on the engine layer. *)
          let q =
            Ivm_query.Cq.make ~name:"paths" ~free:[ "a"; "c" ]
              [ Ivm_query.Cq.atom "R" [ "a"; "b" ]; Ivm_query.Cq.atom "S" [ "b"; "c" ] ]
          in
          let db = D.Database.Z.create () in
          List.iter
            (fun (n, vars) -> ignore (D.Database.Z.declare db n (S.of_list vars)))
            [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]) ];
          List.iter
            (fun (rel, a, b) ->
              D.Database.Z.apply db (U.make ~rel ~tuple:(tup [ a; b ]) ~payload:1))
            [ ("R", 1, 2); ("R", 3, 2); ("S", 2, 7); ("S", 2, 8); ("S", 9, 1) ];
          let vt =
            Ivm_engine.View_tree.build q
              [ Ivm_query.Variable_order.chain [ "a"; "c"; "b" ] ]
              db
          in
          (* Tuple.t memoizes its hash, so order entries by their value
             lists, never by polymorphic compare on the tuples. *)
          let canon entries =
            List.sort compare
              (List.map (fun (tp, p) -> (D.Tuple.to_list tp, p)) entries)
          in
          let expected =
            canon
              (Rel.fold
                 (fun tp p acc -> (tp, p) :: acc)
                 (Ivm_engine.View_tree.output_relation vt) [])
          in
          let got = canon (ok_wire (Client.snapshot c ~view:"paths")) in
          Alcotest.(check bool) "snapshot = direct engine build" true (got = expected);
          let looked =
            canon (ok_wire (Client.lookup c ~view:"paths" ~prefix:(tup [ 1 ])))
          in
          let expected_1 =
            List.filter (fun (vs, _) -> List.hd vs = D.Value.of_int 1) expected
          in
          Alcotest.(check bool) "lookup = filtered direct build" true
            (looked = expected_1);
          let report = ok_wire (Client.explain c "EXPLAIN SELECT a, c FROM R, S") in
          Alcotest.(check bool) "explain names an engine" true
            (contains report "engine: ");
          let facts =
            List.filter
              (fun l -> String.length l > 3 && String.sub l 0 4 = "  - ")
              (String.split_on_char '\n' report)
          in
          Alcotest.(check bool) "explain carries >= 2 facts" true
            (List.length facts >= 2)))

(* The dataflow acceptance path: a MIN/MAX view created by SQL over the
   wire, fed a stream whose deletes remove the currently served extrema
   (forcing the operator graph's re-scan fallback), must serve a
   snapshot and fingerprint equal to a from-scratch operator graph
   rebuilt over the final base contents. *)
let e2e_minmax_over_tcp () =
  let module Dfg = Ivm_dataflow.Graph in
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics (D.Database.Z.create ()) in
  let sess = Ivm_sql.Exec.create ~registry:reg () in
  let mu = Mutex.create () in
  let run_sql sql =
    Mutex.lock mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mu)
      (fun () ->
        match Ivm_sql.Exec.exec_text sess sql with
        | Ok outs -> Ok (String.concat "\n" (List.map Ivm_sql.Exec.render outs))
        | Error e -> Error e)
  in
  let srv =
    ok_wire
      (Server.start ~port:0 ~handlers:2 ~create_view:run_sql ~explain:run_sql
         ~registry:reg ~metrics ())
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let c = ok_wire (Client.connect ~port:(Server.port srv) ()) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let ack =
            ok_wire
              (Client.create_view c
                 "CREATE TABLE R (G, V); CREATE MATERIALIZED VIEW extremes AS \
                  SELECT G, MIN(V), MAX(V) FROM R GROUP BY G;")
          in
          Alcotest.(check bool) "MIN/MAX lands on the operator graph" true
            (contains ack "dataflow operator graph");
          (* Group 1: min 3 and max 9 both die. Group 2: one copy of the
             duplicated max 7 dies (served value survives), then min 2
             dies. Every delete of a served extremum re-scans. *)
          ignore
            (ok_wire
               (Client.create_view c
                  "INSERT INTO R VALUES (1, 5), (1, 3), (1, 9), (2, 7), (2, 7), \
                   (2, 2); DELETE FROM R VALUES (1, 3); DELETE FROM R VALUES \
                   (1, 9); DELETE FROM R VALUES (2, 7); DELETE FROM R VALUES \
                   (2, 2);"));
          (* From scratch: the same view as a fresh operator graph over
             the final base contents. *)
          let g = Dfg.create () in
          let src = Dfg.source g ~rel:"R" ~schema:[ "G"; "V" ] in
          let rename col node =
            Dfg.map g ~label:("as " ^ col) ~schema:[ "G"; col ] Fun.id node
          in
          let mn = rename "MIN(V)" (Dfg.minimum g ~col:"V" ~group:[ "G" ] src) in
          let mx = rename "MAX(V)" (Dfg.maximum g ~col:"V" ~group:[ "G" ] src) in
          Dfg.output g ~name:"extremes" (Dfg.join g mn mx);
          Dfg.apply g
            (List.map
               (fun (gk, v) -> U.make ~rel:"R" ~tuple:(tup [ gk; v ]) ~payload:1)
               [ (1, 5); (2, 7) ]);
          let canon entries =
            List.sort compare
              (List.map (fun (tp, p) -> (D.Tuple.to_list tp, p)) entries)
          in
          let expected = canon (Dfg.entries g "extremes") in
          let got = canon (ok_wire (Client.snapshot c ~view:"extremes")) in
          Alcotest.(check bool) "snapshot = from-scratch operator graph" true
            (got = expected);
          (* And the served fingerprint is the from-scratch fingerprint. *)
          let fresh_fp =
            M.entries_fingerprint
              (List.filter (fun (_, p) -> p <> 0) (Dfg.entries g "extremes"))
          in
          let fps = ok_wire (Client.fingerprints c) in
          match List.assoc_opt "extremes" fps with
          | None -> Alcotest.fail "no served fingerprint for extremes"
          | Some fp ->
              Alcotest.(check int)
                "served fingerprint = from-scratch recompute after extremum deletes"
                fresh_fp fp))

(* A v1 peer: answers every request with the message-layer Err an old
   server produces for an unknown opcode. The client must degrade
   cleanly — report version 1 and fail the SQL ops with an explanatory
   Remote error, not a raw opcode message. *)
let v1_server_clean_error () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  let stub =
    Domain.spawn (fun () ->
        let conn, _ = Unix.accept lfd in
        let rec serve () =
          match Wire.read_frame conn with
          | Ok _ -> (
              match
                Wire.write_frame conn
                  (Wire.encode_response (Wire.Err "bad request: unknown opcode 0x0c"))
              with
              | Ok () -> serve ()
              | Error _ -> ())
          | Error _ -> ()
        in
        serve ();
        try Unix.close conn with Unix.Unix_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Domain.join stub);
      try Unix.close lfd with Unix.Unix_error _ -> ())
    (fun () ->
      let c = ok_wire (Client.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Alcotest.(check int) "v1 peer detected" 1 (ok_wire (Client.version c));
          match Client.create_view c "CREATE TABLE R (a)" with
          | Error (Wire.Remote msg) ->
              Alcotest.(check bool) "error names the required version" true
                (contains msg "needs v2")
          | Ok _ -> Alcotest.fail "create_view against a v1 peer must fail"
          | Error e ->
              Alcotest.failf "want a clean Remote error, got %s"
                (Wire.error_to_string e)))

(* --- read-your-writes sessions (epoch tokens) ------------------------- *)

let rw_registry () =
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics (make_triangle_db ()) in
  register_views reg;
  (reg, metrics)

(* A server wired for epoch-token sessions: [ingest_rw] answers the
   queue watermark, [served] the scheduler's applied count — both
   shifted by [base] so a restarted server keeps reporting on the same
   scale as its previous life. *)
let with_rw_server ?wal ?(base = 0) (reg, metrics) f =
  let queue = Squeue.create ~capacity:1024 Squeue.Block in
  let sched = Scheduler.create ?wal ~queue ~registry:reg ~metrics () in
  let runner = Domain.spawn (fun () -> Scheduler.run sched) in
  let push updates =
    List.fold_left
      (fun (a, d) u ->
        if Squeue.push queue (Scheduler.item u) then (a + 1, d) else (a, d + 1))
      (0, 0) updates
  in
  let srv =
    ok_wire
      (Server.start ~port:0 ~handlers:4 ~ingest:push
         ~ingest_rw:(fun updates ->
           let a, d = push updates in
           (a, d, base + Squeue.pushed queue))
         ~served:(fun () -> base + Scheduler.applied sched)
         ~barrier:(fun () -> Scheduler.barrier sched)
         ~on_shutdown:(fun () -> Squeue.close queue)
         ~registry:reg ~metrics ())
  in
  let await_applied n =
    let deadline = Unix.gettimeofday () +. 30. in
    while Scheduler.applied sched < n && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.002
    done;
    Alcotest.(check int) "stream drained" n (Scheduler.applied sched)
  in
  Fun.protect
    ~finally:(fun () ->
      Squeue.close queue;
      ignore (Domain.join runner);
      Server.stop srv)
    (fun () -> f srv await_applied)

(* Session fixture on paths-rs (output order B, A, C over
   R(A,B) ⋈ S(B,C)): write k adds R(k, hub) and S(hub, k + 9000), so a
   read at prefix (hub, k) must contain (hub, k, k + 9000) and, once n
   writes are visible, exactly n entries — one per S(hub, _) row. The
   hub sits far outside the churn generator's 12-node keyspace, so
   background traffic can never fabricate these rows. *)
let hub = 1000

let session_pair k =
  [
    U.make ~rel:"R" ~tuple:(tup [ k; hub ]) ~payload:1;
    U.make ~rel:"S" ~tuple:(tup [ hub; k + 9000 ]) ~payload:1;
  ]

let check_own_write s k ~expect =
  let entries =
    ok_wire (Client.Session.read s ~view:"paths-rs" ~prefix:(tup [ hub; k ]))
  in
  Alcotest.(check int)
    (Printf.sprintf "session sees every visible write at key %d" k)
    expect (List.length entries);
  Alcotest.(check bool)
    (Printf.sprintf "write %d itself is visible" k)
    true
    (List.exists
       (fun (tp, p) -> D.Tuple.equal tp (tup [ hub; k; k + 9000 ]) && p = 1)
       entries)

(* The guarantee under load: a session interleaving writes and reads
   over loopback TCP never observes state older than its own last
   write, while a background client churns unrelated epochs under its
   feet. *)
let e2e_session_never_stale () =
  with_rw_server (rw_registry ()) (fun srv _await ->
      let port = Server.port srv in
      let stop = Atomic.make false in
      (* Each churn loop applies one full copy of the same valid
         stream, so base multiplicities stay non-negative forever. *)
      let churn =
        Domain.spawn (fun () ->
            let c = ok_wire (Client.connect ~port ()) in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                let batch = edge_stream ~seed:17 50 in
                while not (Atomic.get stop) do
                  ignore (ok_wire (Client.ingest c batch));
                  Unix.sleepf 0.001
                done))
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          ignore (Domain.join churn))
        (fun () ->
          let c = ok_wire (Client.connect ~port ()) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let s = Client.Session.create c in
              let last = ref 0 in
              for k = 1 to 50 do
                let admitted, dropped =
                  ok_wire (Client.Session.write s (session_pair k))
                in
                Alcotest.(check int) "pair admitted" 2 admitted;
                Alcotest.(check int) "none dropped" 0 dropped;
                Alcotest.(check bool) "token strictly advances" true
                  (Client.Session.token s > !last);
                last := Client.Session.token s;
                check_own_write s k ~expect:k
              done)))

(* The session survives a kill-and-restart: checkpoint, restore, WAL
   replay, then a second server whose watermarks are shifted by the
   restored base — the reattached session's old token still gates
   correctly and its first-life writes are all visible. *)
let e2e_session_across_restart () =
  with_tmp ".wal" (fun wal_path ->
      with_tmp ".ckpt" (fun ckpt_path ->
          let writes = 20 in
          let wal = ok_stream (Wal.Z.open_log wal_path) in
          let ((reg, _) as rm) = rw_registry () in
          let session1 =
            with_rw_server ~wal rm (fun srv await_applied ->
                let c = ok_wire (Client.connect ~port:(Server.port srv) ()) in
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    let s = Client.Session.create c in
                    for k = 1 to writes do
                      ignore (ok_wire (Client.Session.write s (session_pair k)));
                      check_own_write s k ~expect:k
                    done;
                    await_applied (2 * writes);
                    Registry.read reg (fun () ->
                        ok_stream
                          (Checkpoint.Z.save ckpt_path ~db:(Registry.db reg)
                             ~records:(2 * writes) ~wal_offset:(Wal.Z.offset wal)));
                    s))
          in
          Wal.Z.close wal;
          let token = Client.Session.token session1 in
          Alcotest.(check int) "token covers every first-life update" (2 * writes)
            token;
          let metrics2 = Metrics.create () in
          let restored, cursor =
            ok_stream
              (Durable.recover ~wal:wal_path ~ckpt:ckpt_path ~fresh:make_triangle_db (fun db ->
                   let reg = Registry.create ~metrics:metrics2 db in
                   register_views reg;
                   reg))
          in
          Alcotest.(check int) "recovered record count" token cursor.Checkpoint.records;
          ignore (Registry.heal restored);
          with_rw_server ~base:token (restored, metrics2) (fun srv _await ->
              let c2 = ok_wire (Client.connect ~port:(Server.port srv) ()) in
              Fun.protect
                ~finally:(fun () -> Client.close c2)
                (fun () ->
                  let s = Client.Session.reattach session1 c2 in
                  Alcotest.(check int) "reattach keeps the token" token
                    (Client.Session.token s);
                  (* Every first-life write is visible through the old
                     token on the restarted server... *)
                  for k = 1 to writes do
                    check_own_write s k ~expect:writes
                  done;
                  (* ...and the session keeps working: new writes gate
                     on watermarks continued from the restored base. *)
                  for k = writes + 1 to writes + 5 do
                    ignore (ok_wire (Client.Session.write s (session_pair k)));
                    Alcotest.(check bool) "token continues past the base" true
                      (Client.Session.token s > token);
                    check_own_write s k ~expect:k
                  done))))

(* The injected violation: a server whose scheduler never runs (served
   watermark stuck at 0) with ["net.stale_read"] armed serves the gated
   read anyway — reporting its honest watermark — and the session's
   client-side re-check must refuse the answer. Without the failpoint
   the same read fails closed on the server's deadline instead of ever
   going stale. *)
let session_stale_read_caught () =
  with_failpoints (fun () ->
      let reg, metrics = rw_registry () in
      let pushed = ref 0 in
      let ingest_rw updates =
        (* Admitted but deliberately never applied. *)
        pushed := !pushed + List.length updates;
        (List.length updates, 0, !pushed)
      in
      let srv =
        ok_wire
          (Server.start ~port:0 ~handlers:2 ~ingest_rw
             ~served:(fun () -> 0)
             ~registry:reg ~metrics ())
      in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let c = ok_wire (Client.connect ~port:(Server.port srv) ()) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let s = Client.Session.create c in
              ignore (ok_wire (Client.Session.write s (session_pair 1)));
              Alcotest.(check int) "token = queue watermark" 2
                (Client.Session.token s);
              (match
                 Client.Session.read ~timeout_ms:50 s ~view:"paths-rs"
                   ~prefix:(tup [ hub; 1 ])
               with
              | Error (Wire.Remote msg) ->
                  Alcotest.(check bool) "fails closed on the deadline" true
                    (contains msg "deadline")
              | Error e ->
                  Alcotest.failf "expected Remote deadline, got %s"
                    (Wire.error_to_string e)
              | Ok _ -> Alcotest.fail "gated read served despite watermark 0");
              Failpoint.arm "net.stale_read" ~times:max_int Failpoint.Fail;
              match Client.Session.read s ~view:"paths-rs" ~prefix:(tup [ hub; 1 ]) with
              | Error (Wire.Remote msg) ->
                  Alcotest.(check bool) "violation caught client-side" true
                    (contains msg "read-your-writes violated")
              | Error e ->
                  Alcotest.failf "expected Remote, got %s" (Wire.error_to_string e)
              | Ok _ -> Alcotest.fail "stale read not caught")))

(* --- closed-economy conservation, fenced mid-run ----------------------- *)

module Mx = Ivm_workload.Mixed
module Ck = Ivm_check

(* Two session writers move money between accounts of three economy
   tenants (zero-sum debit/credit pairs, one write each). At two fixed
   steps every writer parks between ops; the main domain fences the
   server and checks each economy's total from a snapshot. Afterwards
   the served views must equal a from-scratch oracle replay of the
   opening balances plus every update the writers sent. *)
let e2e_economy_fenced () =
  let keys = 16 and accounts = 12 and workers = 2 and ops = 240 in
  let fences = [ ops / 3; 2 * ops / 3 ] in
  let tenants = List.init 3 (fun index -> Mx.tenant ~index Mx.Economy ~keys) in
  let tables = List.concat_map (fun (tn : Mx.tenant) -> tn.Mx.tables) tenants in
  let db = D.Database.Z.create () in
  List.iter (fun (name, cols) -> ignore (D.Database.Z.declare db name (S.of_list cols))) tables;
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics db in
  List.iter (fun (tn : Mx.tenant) -> Registry.register reg ~name:tn.Mx.name (Mx.factory tn)) tenants;
  let opening = List.concat_map (fun tn -> Mx.init_updates tn ~accounts) tenants in
  with_rw_server (reg, metrics) (fun srv await_applied ->
      let port = Server.port srv in
      let admin = ok_wire (Client.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Client.close admin)
        (fun () ->
          ignore (ok_wire (Client.ingest admin opening));
          await_applied (List.length opening);
          let arrived = Atomic.make 0 and released = Atomic.make 0 in
          let failed = Atomic.make false in
          let writer index () =
            let body () =
              let rng = Random.State.make [| 23; index |] in
              let drift = Mx.Drift.create ~seed:23 ~keys ~period:50 in
              let gens =
                Array.of_list
                  (List.map
                     (fun tn -> Mx.Tgen.create ~worker:index ~workers ~accounts tn ~drift ~seed:23 ())
                     tenants)
              in
              let c = ok_wire (Client.connect ~port ()) in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  let s = Client.Session.create c in
                  let rec loop op sent =
                    if op > ops then Ok sent
                    else begin
                      (match List.find_index (( = ) op) fences with
                      | Some k ->
                          Atomic.incr arrived;
                          while Atomic.get released <= k do
                            Unix.sleepf 0.0005
                          done
                      | None -> ());
                      match Mx.Tgen.next gens.(Random.State.int rng (Array.length gens)) ~op with
                      | [] -> loop (op + 1) sent
                      | ups -> (
                          match Client.Session.write s ups with
                          | Ok (a, 0) when a = List.length ups -> loop (op + 1) (List.rev_append ups sent)
                          | Ok (a, d) -> Error (Printf.sprintf "%d admitted, %d dropped" a d)
                          | Error e -> Error (Wire.error_to_string e))
                    end
                  in
                  loop 1 [])
            in
            let r = try body () with e -> Error (Printexc.to_string e) in
            if Result.is_error r then Atomic.set failed true;
            r
          in
          let domains = List.init workers (fun i -> Domain.spawn (writer i)) in
          let economies () =
            ignore (ok_wire (Client.barrier admin));
            List.map
              (fun (tn : Mx.tenant) -> (tn, ok_wire (Client.snapshot admin ~view:tn.Mx.name)))
              tenants
          in
          (* Fence k: once every writer is parked at step [List.nth fences k]. *)
          let deadline = Unix.gettimeofday () +. 30. in
          let fenced =
            Fun.protect
              ~finally:(fun () -> Atomic.set released (List.length fences))
              (fun () ->
                List.mapi
                  (fun k _ ->
                    while
                      Atomic.get arrived < (k + 1) * workers
                      && (not (Atomic.get failed))
                      && Unix.gettimeofday () < deadline
                    do
                      Unix.sleepf 0.0005
                    done;
                    let parked = Atomic.get arrived = (k + 1) * workers in
                    let snaps = if parked then economies () else [] in
                    Atomic.set released (k + 1);
                    (parked, snaps))
                  fences)
          in
          let sent =
            List.concat_map
              (fun d ->
                match Domain.join d with
                | Ok s -> s
                | Error m -> Alcotest.failf "writer failed: %s" m)
              domains
          in
          let conserved label =
            List.iter (fun ((tn : Mx.tenant), entries) ->
                match Mx.check_conservation tn ~accounts entries with
                | Ok () -> ()
                | Error m -> Alcotest.failf "%s: %s" label m)
          in
          List.iteri
            (fun k (parked, snaps) ->
              let label = Printf.sprintf "fence %d" k in
              Alcotest.(check bool) (label ^ ": writers parked") true parked;
              conserved label snaps)
            fenced;
          let final = economies () in
          conserved "final" final;
          Alcotest.(check bool) "money actually moved" true (List.length sent > ops);
          let oracle =
            Ck.Oracle.create
              {
                Ck.Case.family = Ck.Case.Mixed;
                seed = 23;
                query = None;
                order = None;
                k = 0;
                schemas = tables;
                init = [];
                stream = [];
              }
          in
          Ck.Oracle.apply oracle (opening @ sent);
          let served =
            List.concat_map
              (fun ((tn : Mx.tenant), entries) ->
                List.map
                  (fun (tp, p) -> (D.Tuple.of_list (D.Value.Str tn.Mx.name :: D.Tuple.to_list tp), p))
                  entries)
              final
          in
          Alcotest.(check bool) "served economies = oracle replay" true
            (Ck.Oracle.equal_entries (Ck.Oracle.enumerate oracle) (Ck.Oracle.normalize served))))

(* --- the Shutdown op -------------------------------------------------- *)

(* A Shutdown is acknowledged, runs [on_shutdown] once however often it
   is asked for, lets an answer already in flight on another connection
   finish while [Server.stop] drains, and leaves nothing a new
   client could hang on. The in-flight answer is a read gated on a
   served watermark the test holds back until the stop is draining. *)
let e2e_shutdown () =
  let reg, metrics = rw_registry () in
  Registry.apply_batch reg (session_pair 1);
  let watermark = Atomic.make 0 and polls = Atomic.make 0 and shutdowns = Atomic.make 0 in
  let srv =
    ok_wire
      (Server.start ~port:0 ~handlers:4
         ~served:(fun () ->
           Atomic.incr polls;
           Atomic.get watermark)
         ~on_shutdown:(fun () -> Atomic.incr shutdowns)
         ~registry:reg ~metrics ())
  in
  let port = Server.port srv in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () -> if not !stopped then Server.stop ~grace:0. srv)
    (fun () ->
      let a = ok_wire (Client.connect ~port ()) in
      let b = ok_wire (Client.connect ~port ()) in
      let again = ok_wire (Client.connect ~timeout:0.3 ~port ()) in
      ok_wire (Client.ping again);
      let reader =
        Domain.spawn (fun () ->
            Client.lookup_at ~timeout_ms:10_000 b ~view:"paths-rs" ~prefix:(tup [ hub ])
              ~token:1)
      in
      let deadline = Unix.gettimeofday () +. 10. in
      while Atomic.get polls = 0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Alcotest.(check bool) "the gated read is in flight" true (Atomic.get polls > 0);
      ok_wire (Client.shutdown a);
      (* The Bye is sent before the hook runs. *)
      while Atomic.get shutdowns = 0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Alcotest.(check int) "on_shutdown ran" 1 (Atomic.get shutdowns);
      Alcotest.(check bool) "server is stopping" true (Server.stopping srv);
      (* A second request on a connection opened before: answered or
         not, it must not run the hook again. *)
      ignore (Client.shutdown again);
      let stopper = Domain.spawn (fun () -> Server.stop srv) in
      Unix.sleepf 0.1;
      Atomic.set watermark 1;
      Domain.join stopper;
      stopped := true;
      let answer = Domain.join reader in
      List.iter Client.close [ a; b; again ];
      Alcotest.(check int) "on_shutdown ran exactly once" 1 (Atomic.get shutdowns);
      (match answer with
      | Ok (w, entries) ->
          Alcotest.(check int) "answered at the released watermark" 1 w;
          Alcotest.(check int) "in-flight answer complete" 1 (List.length entries)
      | Error e -> Alcotest.failf "in-flight answer cut off: %s" (Wire.error_to_string e));
      let t0 = Unix.gettimeofday () in
      (match Client.connect ~timeout:1. ~port () with
      | Error _ -> ()
      | Ok c ->
          let r = Client.ping c in
          Client.close c;
          if Result.is_ok r then Alcotest.fail "a stopped server answered a new client");
      Alcotest.(check bool) "a new client fails fast" true (Unix.gettimeofday () -. t0 < 2.))

let qt t = QCheck_alcotest.to_alcotest ~long:false t


(* --- per-view snapshot stamps ----------------------------------------- *)

let ok_msg = function Ok v -> v | Error msg -> Alcotest.fail msg
let same_frames a b = List.length a = List.length b && List.for_all2 ( == ) a b

(* The zero-copy contract holds per view: an epoch that touches only
   another view (a T update reaches tri, not paths-rs over R and S)
   leaves paths-rs's cached frames physically in place, and an epoch on
   one of its own relations rebuilds them. *)
let e2e_zero_copy_per_view () =
  with_server ~total:0 (fun srv _reg await_applied ->
      let c = ok_wire (Client.connect ~port:(Server.port srv) ()) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (ok_wire (Client.ingest c (edge_stream 300)));
          await_applied 300;
          let frames () = ok_msg (Server.snapshot_frames srv "paths-rs") in
          let f1 = frames () in
          ignore (ok_wire (Client.ingest c [ U.make ~rel:"T" ~tuple:(tup [ 1; 2 ]) ~payload:1 ]));
          await_applied 301;
          Alcotest.(check bool) "frames survive an epoch on another view" true
            (same_frames f1 (frames ()));
          ignore (ok_wire (Client.ingest c [ U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:1 ]));
          await_applied 302;
          Alcotest.(check bool) "frames rebuilt after an epoch on the view" false
            (same_frames f1 (frames ()))))

(* A gated read whose token is ahead of an unchanged view's cached
   watermark is answered by re-stamping that watermark, well before its
   deadline, without rebuilding the snapshot. *)
let e2e_gated_read_revalidates () =
  let reg, metrics = rw_registry () in
  with_rw_server (reg, metrics) (fun srv await_applied ->
      let c = ok_wire (Client.connect ~port:(Server.port srv) ()) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (ok_wire (Client.ingest c (edge_stream 200)));
          await_applied 200;
          let f1 = ok_msg (Server.snapshot_frames srv "paths-rs") in
          let _, _, token =
            ok_wire (Client.ingest_rw c [ U.make ~rel:"T" ~tuple:(tup [ 3; 4 ]) ~payload:1 ])
          in
          let revalidations () = Atomic.get metrics.Metrics.cache_revalidations in
          let r0 = revalidations () in
          let t0 = Unix.gettimeofday () in
          let watermark, entries =
            ok_wire
              (Client.lookup_at ~timeout_ms:2000 c ~view:"paths-rs" ~prefix:(tup []) ~token)
          in
          Alcotest.(check bool) "answered well before the deadline" true
            (Unix.gettimeofday () -. t0 < 1.);
          Alcotest.(check bool) "watermark reaches the token" true (watermark >= token);
          Alcotest.(check int) "one O(1) revalidation" (r0 + 1) (revalidations ());
          Alcotest.(check bool) "frames not rebuilt" true
            (same_frames f1 (ok_msg (Server.snapshot_frames srv "paths-rs")));
          Alcotest.(check int) "whole answer served" (List.length (ok_wire (Client.snapshot c ~view:"paths-rs")))
            (List.length entries)))

(* The key index is built lazily, by whichever keyed lookup gets there
   first: two domains racing the first keyed lookup of a fresh snapshot
   get the same (physically shared) answer, and the index is built
   once. *)
let e2e_racing_first_keyed_lookup () =
  let reg, metrics = rw_registry () in
  with_rw_server (reg, metrics) (fun srv await_applied ->
      let c = ok_wire (Client.connect ~port:(Server.port srv) ()) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (ok_wire (Client.ingest c (edge_stream 400)));
          await_applied 400;
          let builds () = Atomic.get metrics.Metrics.cache_index_builds in
          ignore (ok_msg (Server.snapshot_frames srv "paths-rs"));
          let b0 = builds () in
          let key =
            match ok_wire (Client.snapshot c ~view:"paths-rs") with
            | (tp, _) :: _ -> D.Tuple.get tp 0
            | [] -> Alcotest.fail "paths-rs is empty"
          in
          Alcotest.(check int) "whole-view reads build no index" b0 (builds ());
          let go = Atomic.make false in
          let racer () =
            Domain.spawn (fun () ->
                while not (Atomic.get go) do
                  Domain.cpu_relax ()
                done;
                ok_msg (Server.lookup_frames srv "paths-rs" key))
          in
          let d1 = racer () and d2 = racer () in
          Atomic.set go true;
          let a = Domain.join d1 and b = Domain.join d2 in
          Alcotest.(check bool) "racers share one answer" true (same_frames a b);
          Alcotest.(check int) "index built once" (b0 + 1) (builds ())))

(* Prefix lookups against a whole-view filter, for every first field
   present: arity 1 through the prebuilt per-key frames, arity 2
   through the lazily built index's filtered path. *)
let e2e_prefix_lookups_match_filter () =
  with_server ~total:0 (fun srv _reg await_applied ->
      let c = ok_wire (Client.connect ~port:(Server.port srv) ()) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (ok_wire (Client.ingest c (edge_stream 500)));
          await_applied 500;
          let all = ok_wire (Client.snapshot c ~view:"paths-rs") in
          let norm l = List.sort compare (List.map (fun (tp, p) -> (D.Tuple.to_string tp, p)) l) in
          let prefix_of k tp = D.Tuple.of_list (List.filteri (fun i _ -> i < k) (D.Tuple.to_list tp)) in
          let check k tp =
            let prefix = prefix_of k tp in
            let expected =
              List.filter (fun (tp', _) -> D.Tuple.equal (prefix_of k tp') prefix) all
            in
            Alcotest.(check bool)
              (Printf.sprintf "arity-%d lookup %s = filter" k (D.Tuple.to_string prefix))
              true
              (norm (ok_wire (Client.lookup c ~view:"paths-rs" ~prefix)) = norm expected)
          in
          Alcotest.(check bool) "paths-rs is not empty" true (all <> []);
          List.iter (fun (tp, _) -> check 1 tp; check 2 tp) all;
          Alcotest.(check int) "a missing key answers empty" 0
            (List.length
               (ok_wire (Client.lookup c ~view:"paths-rs" ~prefix:(tup [ -999 ]))))))


(* --- snapshot patching from view output deltas ------------------------ *)

(* The same join as paths-rs three more ways: a dataflow graph (native
   delta), an eager strategy (no output delta), and a view tree that
   fails while [broken] is set. *)
let paths_df (db : D.Database.Z.t) : M.t =
  let module Dfg = Ivm_dataflow.Graph in
  let g = Dfg.create () in
  let joined =
    Dfg.join g (Dfg.source g ~rel:"R" ~schema:[ "A"; "B" ]) (Dfg.source g ~rel:"S" ~schema:[ "B"; "C" ])
  in
  Dfg.output g ~name:"paths-df" (Dfg.project g ~cols:[ "B"; "A"; "C" ] joined);
  Dfg.apply g
    (List.concat_map
       (fun rel ->
         Rel.fold (fun tp p acc -> U.make ~rel ~tuple:tp ~payload:p :: acc) (D.Database.Z.find db rel) [])
       [ "R"; "S" ]);
  M.of_dataflow ~name:"paths-df" g

let paths_eager (db : D.Database.Z.t) : M.t =
  let forest = Option.get (Ivm_query.Variable_order.canonical q_rs) in
  M.of_strategy ~name:"paths-eager" (Ivm_engine.Strategy.create Ivm_engine.Strategy.Eager_fact q_rs forest db)

let fragile broken db =
  M.map_batch (fun b -> if !broken then failwith "fragile: injected failure" else b) (paths_factory db)

(* The views whose engines report output deltas. *)
let patch_views = [ "tri"; "paths-rs"; "paths-df" ]

(* A server over a registry the test applies epochs to directly, so
   every epoch and every read happens exactly where the test says. *)
let with_patch_server ?(broken = ref false) f =
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics ~backoff_base:1e3 (make_triangle_db ()) in
  register_views reg;
  Registry.register reg ~name:"paths-df" paths_df;
  Registry.register reg ~name:"paths-eager" paths_eager;
  Registry.register reg ~name:"fragile" (fragile broken);
  let srv = ok_wire (Server.start ~port:0 ~handlers:2 ~chunk_size:8 ~registry:reg ~metrics ()) in
  Fun.protect ~finally:(fun () -> Server.stop ~grace:0. srv) (fun () -> f srv reg metrics)

let patches m = Atomic.get m.Metrics.cache_patches
let rebuilds m = Atomic.get m.Metrics.cache_rebuilds

(* A read through the snapshot cache, checked against the view's own
   enumeration at the same epoch. *)
let read_checked srv reg view =
  let frames = ok_msg (Server.snapshot_frames srv view) in
  let want = Registry.read reg (fun () -> (Registry.find reg view).M.enumerate ()) in
  Alcotest.(check bool) (view ^ ": served = enumerate") true
    (zset (served ~chunk_size:8 frames) = zset want);
  frames

let batches_of k l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = k then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l


(* Every engine kind reports exactly its output change: enumerate after
   a batch = enumerate before + the batch's delta, as Z-sets. *)
let engine_deltas_exact () =
  let db = make_triangle_db () in
  D.Database.Z.apply_batch db (edge_stream 200);
  List.iter
    (fun (name, factory) ->
      let m = factory db in
      List.iter
        (fun batch ->
          let batch = List.filter (fun (u : int U.t) -> List.mem u.U.rel m.M.relations) batch in
          let before = m.M.enumerate () in
          let delta = Option.get m.M.apply_delta batch in
          Alcotest.(check bool) (name ^ ": before + delta = after") true
            (zset (before @ delta) = zset (m.M.enumerate ())))
        (batches_of 7 (edge_stream ~seed:9 140)))
    [
      ("view tree", paths_factory);
      ("dataflow", paths_df);
      ("triangle", tri_factory);
    ]

(* Fingerprints fold the engines' outputs directly, bit-identical to
   the digest of a materialized copy. *)
let fingerprints_unchanged () =
  let db = make_triangle_db () in
  D.Database.Z.apply_batch db (edge_stream 300);
  let forest = Option.get (Ivm_query.Variable_order.canonical q_rs) in
  let tree = Ivm_engine.View_tree.build q_rs forest db in
  let vt = M.of_view_tree ~name:"paths-rs" q_rs tree in
  Alcotest.(check int) "view tree"
    (M.relation_fingerprint (Ivm_engine.View_tree.output_relation tree))
    (vt.M.fingerprint ());
  let df = paths_df db in
  Alcotest.(check int) "dataflow" (M.entries_fingerprint (df.M.enumerate ())) (df.M.fingerprint ());
  Alcotest.(check int) "view tree = dataflow" (vt.M.fingerprint ()) (df.M.fingerprint ())

(* An epoch on a view yields its new frames by a patch, not a rebuild,
   for every engine kind, across many epochs; a one-update epoch
   re-frames only the chunks it touches. The strategy view has no
   output delta: an epoch on it breaks its pending delta, counted once
   as a fallback, and its next read rebuilds. *)
let e2e_epochs_patch () =
  with_patch_server (fun srv reg metrics ->
      Registry.apply_batch reg (edge_stream 300);
      List.iter (fun v -> ignore (read_checked srv reg v)) patch_views;
      Alcotest.(check int) "first reads rebuild" (List.length patch_views) (rebuilds metrics);
      (* One read per epoch, then one per three epochs: a patch folds
         every epoch since its snapshot. *)
      List.iter
        (fun batch ->
          Registry.apply_batch reg batch;
          List.iter (fun v -> ignore (read_checked srv reg v)) patch_views)
        (batches_of 15 (edge_stream ~seed:5 300));
      List.iter
        (fun epochs ->
          List.iter (Registry.apply_batch reg) epochs;
          List.iter (fun v -> ignore (read_checked srv reg v)) patch_views)
        (batches_of 3 (batches_of 10 (edge_stream ~seed:6 300)));
      Alcotest.(check int) "no rebuild after the first reads" (List.length patch_views)
        (rebuilds metrics);
      Alcotest.(check bool) "epochs were patched" true (patches metrics > 0);
      let before = read_checked srv reg "paths-rs" in
      (* R(100, b) joins every S(b, c) already present. *)
      let b =
        match served ~chunk_size:8 before with
        | (tp, _) :: _ -> D.Value.to_int (D.Tuple.get tp 0)
        | [] -> Alcotest.fail "paths-rs is empty"
      in
      let p0 = patches metrics and r0 = rebuilds metrics in
      Registry.apply_batch reg [ U.make ~rel:"R" ~tuple:(tup [ 100; b ]) ~payload:1 ];
      let after = read_checked srv reg "paths-rs" in
      Alcotest.(check int) "one patch" (p0 + 1) (patches metrics);
      Alcotest.(check int) "no rebuild" r0 (rebuilds metrics);
      Alcotest.(check bool) "new frames" false (same_frames before after);
      Alcotest.(check bool) "untouched chunks shared" true
        (List.length before < 3 || List.exists (fun f -> List.memq f before) after);
      let fallbacks v = (Metrics.view metrics v).Metrics.delta_fallbacks in
      List.iter (fun v -> Alcotest.(check int) (v ^ ": no fallback") 0 (fallbacks v)) patch_views;
      ignore (read_checked srv reg "paths-eager");
      Alcotest.(check int) "strategy: untracked until read" 0 (fallbacks "paths-eager");
      let p0 = patches metrics and r0 = rebuilds metrics in
      Registry.apply_batch reg [ U.make ~rel:"R" ~tuple:(tup [ 101; b ]) ~payload:1 ];
      Registry.apply_batch reg [ U.make ~rel:"S" ~tuple:(tup [ b; 102 ]) ~payload:1 ];
      Alcotest.(check (option int)) "strategy: nothing pending" (Some 0)
        (Registry.pending_size reg "paths-eager");
      ignore (read_checked srv reg "paths-eager");
      Alcotest.(check int) "strategy: one fallback" 1 (fallbacks "paths-eager");
      Alcotest.(check int) "strategy: rebuilt" (r0 + 1) (rebuilds metrics);
      Alcotest.(check int) "strategy: not patched" p0 (patches metrics))

(* Every reinstall forces the next read to rebuild, never patch: heal
   of a failed view, a self-check reinstall, and the dead-letter
   rebuild that isolates a poison update. *)
let e2e_reinstall_forces_rebuild () =
  let broken = ref false in
  with_patch_server ~broken (fun srv reg metrics ->
      Registry.apply_batch reg (edge_stream 300);
      List.iter (fun v -> ignore (read_checked srv reg v)) [ "tri"; "fragile" ];
      let forced what view =
        let p0 = patches metrics and r0 = rebuilds metrics in
        ignore (read_checked srv reg view);
        Alcotest.(check int) (what ^ ": rebuilt") (r0 + 1) (rebuilds metrics);
        Alcotest.(check int) (what ^ ": not patched") p0 (patches metrics)
      in
      (* heal *)
      broken := true;
      Registry.apply_batch reg (edge_stream ~seed:3 20);
      broken := false;
      Alcotest.(check bool) "fragile degraded" true (Registry.health reg "fragile" <> Registry.Healthy);
      Alcotest.(check (list string)) "heal recovers" [] (Registry.heal reg);
      forced "heal" "fragile";
      (* self-check reinstall: corrupt tri behind the registry's back *)
      ignore (read_checked srv reg "tri");
      (Registry.find reg "tri").M.apply_batch [ U.make ~rel:"R" ~tuple:(tup [ 3; 4 ]) ~payload:5 ];
      Alcotest.(check (list string)) "reinstalled" [ "tri" ] (Registry.self_check reg);
      forced "self-check reinstall" "tri";
      (* dead-letter rebuild *)
      Registry.apply_batch reg
        [ U.make ~rel:"R" ~tuple:(D.Tuple.of_list [ D.Value.Str "bad"; D.Value.Int 7 ]) ~payload:1 ];
      Alcotest.(check (list string)) "dead-letter rebuild heals" [] (Registry.heal reg);
      Alcotest.(check int) "poison dead-lettered" 1
        (List.length (List.assoc "tri" (Registry.dead_letters reg)));
      forced "dead-letter rebuild" "tri")

(* A pending delta that outgrows a rewrite of the whole view (twice its
   size, plus a floor of 16) is dropped, and the next read rebuilds. *)
let e2e_oversized_delta_rebuilds () =
  with_patch_server (fun srv reg metrics ->
      Registry.apply_batch reg (edge_stream 100);
      let size = List.length (served ~chunk_size:8 (read_checked srv reg "paths-rs")) in
      Registry.apply_batch reg
        (U.make ~rel:"R" ~tuple:(tup [ 1; 50 ]) ~payload:1
        :: List.init ((2 * size) + 17) (fun c ->
               U.make ~rel:"S" ~tuple:(tup [ 50; 100 + c ]) ~payload:1));
      Alcotest.(check (option int)) "pending delta dropped" (Some 0)
        (Registry.pending_size reg "paths-rs");
      let p0 = patches metrics and r0 = rebuilds metrics in
      ignore (read_checked srv reg "paths-rs");
      Alcotest.(check int) "rebuilt" (r0 + 1) (rebuilds metrics);
      Alcotest.(check int) "not patched" p0 (patches metrics))

(* Views nobody reads collect no deltas: without a consumer the
   registry holds no pending sets, and a read tracks only its view. *)
let pending_only_for_consumers () =
  let reg = Registry.create (make_triangle_db ()) in
  register_views reg;
  List.iter (Registry.apply_batch reg) (batches_of 50 (edge_stream 300));
  let pending () = List.map (fun v -> (v, Registry.pending_size reg v)) [ "tri"; "paths-rs" ] in
  Alcotest.(check bool) "no consumer, no pending delta" true
    (pending () = [ ("tri", None); ("paths-rs", None) ]);
  let srv = ok_wire (Server.start ~port:0 ~handlers:1 ~registry:reg ~metrics:(Metrics.create ()) ()) in
  Fun.protect
    ~finally:(fun () -> Server.stop ~grace:0. srv)
    (fun () ->
      ignore (ok_msg (Server.snapshot_frames srv "paths-rs"));
      Alcotest.(check bool) "a read tracks its view only" true
        (pending () = [ ("tri", None); ("paths-rs", Some 0) ]))

let () =
  Alcotest.run ~and_exit:false "net"
    [
      ( "framing",
        [
          qt frame_roundtrip;
          qt frame_concat;
          qt frame_truncation;
          qt frame_bit_flip;
          qt frame_layout;
          qt chunk_frame_identical;
          Alcotest.test_case "oversized rejected" `Quick oversized_rejected;
        ] );
      ( "messages",
        [
          Alcotest.test_case "request roundtrip" `Quick request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick response_roundtrip;
          qt garbage_bodies;
          Alcotest.test_case "unknown opcode" `Quick unknown_opcode;
          Alcotest.test_case "truncated message" `Quick truncated_message;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "short write -> Truncated" `Quick faulty_short_write;
          Alcotest.test_case "bit flip -> Crc_mismatch" `Quick faulty_bit_flip;
        ] );
      ("metrics", [ Alcotest.test_case "Prometheus exposition" `Quick metrics_render ]);
      ( "loopback",
        [
          Alcotest.test_case "concurrent clients = reference" `Quick e2e_concurrent_clients;
          Alcotest.test_case "subscribe receives deltas" `Quick e2e_subscribe;
          Alcotest.test_case "kill and restart" `Quick e2e_kill_restart;
          Alcotest.test_case "zero-copy snapshot serving" `Quick e2e_zero_copy_snapshot;
          Alcotest.test_case "zero-copy survives other views' epochs" `Quick
            e2e_zero_copy_per_view;
          Alcotest.test_case "gated read of unchanged view revalidates" `Quick
            e2e_gated_read_revalidates;
          Alcotest.test_case "racing first keyed lookup builds once" `Quick
            e2e_racing_first_keyed_lookup;
          Alcotest.test_case "prefix lookups = whole-view filter" `Quick
            e2e_prefix_lookups_match_filter;
          Alcotest.test_case "SQL view over TCP = direct build" `Quick e2e_sql_over_tcp;
          Alcotest.test_case "MIN/MAX over TCP = from-scratch rebuild" `Quick
            e2e_minmax_over_tcp;
          Alcotest.test_case "v1 server -> clean Remote error" `Quick
            v1_server_clean_error;
          Alcotest.test_case "corrupt frame keeps serving" `Quick
            e2e_corrupt_frame_keeps_serving;
          Alcotest.test_case "shutdown acks once, drains in-flight" `Quick e2e_shutdown;
        ] );
      ( "snapshot patching",
        [
          Alcotest.test_case "engine deltas are exact" `Quick engine_deltas_exact;
          Alcotest.test_case "fingerprints without copies" `Quick fingerprints_unchanged;
          qt chunked_patch_equals_rebuild;
          Alcotest.test_case "a patch shares untouched chunks" `Quick chunked_shares_untouched;
          Alcotest.test_case "epochs patch, every engine kind" `Quick e2e_epochs_patch;
          Alcotest.test_case "reinstalls force a rebuild" `Quick e2e_reinstall_forces_rebuild;
          Alcotest.test_case "oversized pending delta rebuilds" `Quick
            e2e_oversized_delta_rebuilds;
          Alcotest.test_case "pending deltas only for consumers" `Quick
            pending_only_for_consumers;
        ] );
      ( "sessions (read-your-writes)",
        [
          Alcotest.test_case "never stale under churn" `Quick e2e_session_never_stale;
          Alcotest.test_case "token survives checkpoint/restart" `Quick
            e2e_session_across_restart;
          Alcotest.test_case "injected stale read caught" `Quick
            session_stale_read_caught;
          Alcotest.test_case "economy conserved at mid-run fences" `Quick
            e2e_economy_fenced;
        ] );
    ]
