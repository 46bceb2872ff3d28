(* The streaming maintenance runtime: codec roundtrips, WAL durability
   and torn-tail tolerance, queue backpressure policies, checkpoint +
   replay crash recovery (the load-bearing property: restore + replay
   from the saved offset ≡ direct apply, over the Z ring), the
   multi-view registry, and the end-to-end kill-and-restart equivalence
   the `serve` runtime promises. *)

module D = Ivm_data
module S = D.Schema
module U = D.Update
module Codec = D.Codec
module Wal = Ivm_stream.Wal
module Squeue = Ivm_stream.Queue
module Metrics = Ivm_stream.Metrics
module Registry = Ivm_stream.Registry
module Checkpoint = Ivm_stream.Checkpoint
module Durable = Ivm_stream.Durable
module Scheduler = Ivm_stream.Scheduler
module M = Ivm_engine.Maintainable
module Tri = Ivm_engine.Triangle
module Rel = D.Relation.Z

let tup = D.Tuple.of_ints

(* Unwrap a durability result; a real error fails the test with the
   rendered message instead of a backtrace. *)
let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected durability error: %s" (Ivm_stream.Errors.to_string e)

let tmp_path suffix =
  let path = Filename.temp_file "ivm_stream" suffix in
  Sys.remove path;
  path

let with_tmp suffix f =
  let path = tmp_path suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* --- codec ----------------------------------------------------------- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map D.Value.of_int int;
        map D.Value.of_string (string_size ~gen:printable (int_range 0 12));
        map D.Value.of_float (map (fun i -> float_of_int i /. 4.) (int_range (-100) 100));
      ])

let tuple_gen = QCheck.Gen.(map D.Tuple.of_list (list_size (int_range 0 5) value_gen))

let update_gen =
  QCheck.Gen.(
    map3
      (fun rel tuple payload -> U.make ~rel ~tuple ~payload)
      (oneofl [ "R"; "S"; "T" ])
      tuple_gen (int_range (-3) 3))

let update_eq (a : int U.t) (b : int U.t) =
  a.U.rel = b.U.rel && D.Tuple.equal a.U.tuple b.U.tuple && a.U.payload = b.U.payload

let codec_roundtrip =
  QCheck.Test.make ~name:"codec: update roundtrip"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 20) update_gen))
    (fun updates ->
      let b = Buffer.create 256 in
      List.iter (Codec.add_update b) updates;
      let s = Buffer.contents b in
      let pos = ref 0 in
      let back = List.map (fun _ -> Codec.update s pos) updates in
      !pos = String.length s && List.for_all2 update_eq updates back)

let codec_corrupt () =
  let b = Buffer.create 16 in
  Codec.add_tuple b (tup [ 1; 2; 3 ]);
  let s = Buffer.contents b in
  let clipped = String.sub s 0 (String.length s - 1) in
  Alcotest.check_raises "short buffer raises" (Codec.Corrupt "short read") (fun () ->
      ignore (Codec.tuple clipped (ref 0)))

let codec_crc_known_answer () =
  Alcotest.(check int) "CRC-32 check value" 0xCBF43926 (Codec.crc32 "123456789" ~pos:0 ~len:9)

(* --- WAL ------------------------------------------------------------- *)

let replay_all path ~from =
  let acc = ref [] in
  let stop = ok (Wal.Z.replay path ~from (fun u -> acc := u :: !acc)) in
  (List.rev !acc, stop)

let wal_roundtrip =
  QCheck.Test.make ~name:"wal: append then replay = identity"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) update_gen))
    (fun updates ->
      with_tmp ".wal" (fun path ->
          let w = ok (Wal.Z.open_log path) in
          let offsets = List.map (fun u -> ok (Wal.Z.append w u)) updates in
          Wal.Z.close w;
          let back, stop = replay_all path ~from:0 in
          let replay_ok =
            List.length back = List.length updates
            && List.for_all2 update_eq updates back
            && stop = (match List.rev offsets with [] -> Wal.header_len | o :: _ -> o)
          in
          (* Replay from a mid-stream offset yields exactly the suffix. *)
          let suffix_ok =
            match offsets with
            | [] -> true
            | _ ->
                let k = List.length offsets / 2 in
                let from = if k = 0 then Wal.header_len else List.nth offsets (k - 1) in
                let suffix, _ = replay_all path ~from in
                List.length suffix = List.length updates - k
                && List.for_all2 update_eq (List.filteri (fun i _ -> i >= k) updates) suffix
          in
          replay_ok && suffix_ok))

let wal_torn_tail =
  QCheck.Test.make ~name:"wal: truncated last record is dropped, prefix survives"
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 20) update_gen) (int_range 1 8)))
    (fun (updates, cut) ->
      with_tmp ".wal" (fun path ->
          let w = ok (Wal.Z.open_log path) in
          let offsets = List.map (fun u -> ok (Wal.Z.append w u)) updates in
          Wal.Z.close w;
          let last_end = List.nth offsets (List.length offsets - 1) in
          let last_start =
            if List.length offsets = 1 then Wal.header_len
            else List.nth offsets (List.length offsets - 2)
          in
          (* Cut somewhere strictly inside the last record. *)
          let at = max (last_start + 1) (last_end - cut) in
          Unix.truncate path at;
          let back, stop = replay_all path ~from:0 in
          let n = List.length updates in
          List.length back = n - 1
          && stop = last_start
          && List.for_all2 update_eq (List.filteri (fun i _ -> i < n - 1) updates) back
          &&
          (* Re-opening truncates the torn tail; appends resume cleanly. *)
          let w = ok (Wal.Z.open_log path) in
          let u = U.make ~rel:"R" ~tuple:(tup [ 9; 9 ]) ~payload:1 in
          ignore (ok (Wal.Z.append w u));
          Wal.Z.close w;
          let back2, _ = replay_all path ~from:0 in
          List.length back2 = n && update_eq (List.nth back2 (n - 1)) u))

let wal_garbage_tail () =
  with_tmp ".wal" (fun path ->
      let w = ok (Wal.Z.open_log path) in
      let u1 = U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:1 in
      ignore (ok (Wal.Z.append w u1));
      let off = Wal.Z.offset w in
      Wal.Z.close w;
      (* A frame whose checksum cannot match: replay must stop before it. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\x04\x00\x00\x00\xff\xff\xff\xff\xde\xad\xbe\xef";
      close_out oc;
      let back, stop = replay_all path ~from:0 in
      Alcotest.(check int) "one record survives" 1 (List.length back);
      Alcotest.(check int) "stops before garbage" off stop)

(* --- byte format ------------------------------------------------------ *)

let of_hex h = String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* One update touching every value tag and the int extremes. *)
let golden_update =
  U.make ~rel:"R"
    ~tuple:(D.Tuple.of_list D.Value.[ Int min_int; Int max_int; Int (-1); Str "ivm"; Real (-0.1) ])
    ~payload:(-3)

(* The body of [golden_update] and its one-record log, committed as
   bytes: a codec change that alters them would strand every log
   already on disk, even if it still roundtrips. *)
let golden_body =
  "010000005205000000000000000000c000ffffffffffffff3f00ffffffffffffffff010300000069766d029a9999999999b9bffdffffffffffffff"

let golden_log = "49564d57414c30313b0000009c9591a6" ^ golden_body

let codec_golden_bytes () =
  let b = Buffer.create 64 in
  Codec.add_update b golden_update;
  Alcotest.(check string) "update body" golden_body (to_hex (Buffer.contents b));
  with_tmp ".wal" (fun path ->
      let w = ok (Wal.Z.open_log path) in
      ignore (ok (Wal.Z.append w golden_update));
      Wal.Z.close w;
      Alcotest.(check string) "framed log" golden_log
        (to_hex (In_channel.with_open_bin path In_channel.input_all)))

(* A four-record log written before the WAL, checkpoint and wire
   shared one framer: the current reader must replay it record for
   record and append after it. *)
let earlier_log =
  golden_log
  ^ "1d0000008a85641f0100000053020000070000000000000001000000000100000000000000100000006dc2317802000000547800002a000000000000002a000000a94cc29d0100000052030000141a99be1c000000029c7500883ce4377e00d6ffffffffffffffffffffffffffffff"

let earlier_log_replays () =
  let expected =
    [
      golden_update;
      U.make ~rel:"S" ~tuple:(D.Tuple.of_list D.Value.[ Int 7; Str "" ]) ~payload:1;
      U.make ~rel:"Tx" ~tuple:D.Tuple.unit ~payload:42;
      U.make ~rel:"R"
        ~tuple:(D.Tuple.of_list D.Value.[ Int 123456789012; Real 1e300; Int (-42) ])
        ~payload:(-1);
    ]
  in
  with_tmp ".wal" (fun path ->
      let bytes = of_hex earlier_log in
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      let back, stop = replay_all path ~from:0 in
      Alcotest.(check int) "every record" (List.length expected) (List.length back);
      List.iteri
        (fun i (a, b) -> Alcotest.(check bool) (Printf.sprintf "record %d" i) true (update_eq a b))
        (List.combine expected back);
      Alcotest.(check int) "replays to the end" (String.length bytes) stop;
      let w = ok (Wal.Z.open_log path) in
      Alcotest.(check int) "nothing truncated" (String.length bytes) (Wal.Z.offset w);
      ignore (ok (Wal.Z.append w golden_update));
      Wal.Z.close w;
      Alcotest.(check int) "appends after it" 5 (ok (Wal.Z.record_count path)))

(* A record whose checksum passes but whose body does not parse to
   exactly its length (here: one trailing byte) ends replay like a
   checksum failure, and re-opening cuts it off. *)
let wal_malformed_body () =
  with_tmp ".wal" (fun path ->
      let w = ok (Wal.Z.open_log path) in
      ignore (ok (Wal.Z.append w (U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:1)));
      let off = Wal.Z.offset w in
      Wal.Z.close w;
      let b = Buffer.create 32 in
      Codec.add_update b (U.make ~rel:"S" ~tuple:(tup [ 3 ]) ~payload:1);
      Codec.add_u8 b 0;
      let frame = Codec.frame ~into:Bytes.empty b in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
          Out_channel.output_bytes oc frame);
      let back, stop = replay_all path ~from:0 in
      Alcotest.(check int) "one record survives" 1 (List.length back);
      Alcotest.(check int) "stops before the malformed body" off stop;
      let w = ok (Wal.Z.open_log path) in
      Alcotest.(check int) "re-open cuts it off" off (Wal.Z.offset w);
      Wal.Z.close w)

(* Minor words per update of [append_batch], list cells included: the
   scheduler hands the log one freshly mapped list per epoch, and so
   does this test. Encoding and framing reuse the log's buffers, so
   what remains is the list and one result per batch. *)
let wal_words_limit = 8.

let wal_alloc_budget () =
  let module G = Ivm_workload.Graph_gen in
  let epoch = 256 in
  let total = 80 * epoch in
  let gen = G.create ~seed:7 { G.nodes = 300; skew = 1.1; delete_ratio = 0.2 } in
  let items =
    Array.init total (fun _ ->
        let e = G.next gen in
        let rel = match e.G.rel with 0 -> "R" | 1 -> "S" | _ -> "T" in
        Scheduler.item (U.make ~rel ~tuple:(tup [ e.G.src; e.G.dst ]) ~payload:e.G.mult))
  in
  let epochs = List.init (total / epoch) (fun k -> Array.to_list (Array.sub items (k * epoch) epoch)) in
  with_tmp ".wal" (fun path ->
      let w = ok (Wal.Z.open_log path) in
      let w0 = Gc.minor_words () in
      List.iter
        (fun items ->
          ignore (ok (Wal.Z.append_batch w (List.map (fun i -> i.Scheduler.update) items))))
        epochs;
      let measured = (Gc.minor_words () -. w0) /. float_of_int total in
      Wal.Z.close w;
      Alcotest.(check int) "every record logged" total (ok (Wal.Z.record_count path));
      Printf.printf "wal allocation: measured %.3f words/update (limit %.1f)\n" measured
        wal_words_limit;
      if measured > wal_words_limit then
        Alcotest.failf "%.3f minor words/update in append_batch exceeds %.1f" measured
          wal_words_limit)

(* --- queue ----------------------------------------------------------- *)

let queue_policies () =
  let q = Squeue.create ~capacity:2 Squeue.Drop_newest in
  Alcotest.(check bool) "push 1" true (Squeue.push q 1);
  Alcotest.(check bool) "push 2" true (Squeue.push q 2);
  Alcotest.(check bool) "push 3 dropped" false (Squeue.push q 3);
  Alcotest.(check int) "dropped count" 1 (Squeue.dropped q);
  Alcotest.(check (list int)) "fifo drain" [ 1; 2 ] (Squeue.pop_batch q ~max:10);
  let q = Squeue.create ~capacity:2 Squeue.Drop_oldest in
  List.iter (fun i -> ignore (Squeue.push q i)) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "keeps latest" [ 3; 4 ] (Squeue.pop_batch q ~max:10);
  Alcotest.(check int) "evicted count" 2 (Squeue.dropped q);
  Squeue.close q;
  Alcotest.(check bool) "push after close" false (Squeue.push q 5);
  Alcotest.(check (list int)) "end of stream" [] (Squeue.pop_batch q ~max:10)

let queue_mpsc () =
  let q = Squeue.create ~capacity:64 Squeue.Block in
  let producers = 4 and per_producer = 2_000 in
  let domains =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              ignore (Squeue.push q ((p * per_producer) + i))
            done))
  in
  let closer =
    Domain.spawn (fun () ->
        List.iter Domain.join domains;
        Squeue.close q)
  in
  let seen = Hashtbl.create 1024 in
  let rec drain () =
    match Squeue.pop_batch q ~max:100 with
    | [] -> ()
    | items ->
        List.iter (fun i -> Hashtbl.replace seen i ()) items;
        drain ()
  in
  drain ();
  Domain.join closer;
  Alcotest.(check int) "every item delivered exactly once" (producers * per_producer)
    (Hashtbl.length seen);
  Alcotest.(check int) "nothing dropped under Block" 0 (Squeue.dropped q)

(* Backpressure edge case: capacity 1 under concurrent producers. The
   lossy policies must preserve the accounting invariant
   [delivered = pushed = offered - dropped] (Drop_newest) resp.
   [delivered = pushed - dropped] (Drop_oldest, evictions counted), and
   the consumer must see every delivered item exactly once. *)
let queue_capacity_one policy () =
  let q = Squeue.create ~capacity:1 policy in
  let producers = 4 and per_producer = 1_000 in
  let offered = producers * per_producer in
  let domains =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              ignore (Squeue.push q ((p * per_producer) + i))
            done))
  in
  let closer =
    Domain.spawn (fun () ->
        List.iter Domain.join domains;
        Squeue.close q)
  in
  let seen = Hashtbl.create 1024 in
  let rec drain () =
    match Squeue.pop_batch q ~max:7 with
    | [] -> ()
    | items ->
        List.iter
          (fun i ->
            Alcotest.(check bool) "no duplicate delivery" false (Hashtbl.mem seen i);
            Hashtbl.replace seen i ())
          items;
        drain ()
  in
  drain ();
  Domain.join closer;
  let delivered = Hashtbl.length seen in
  (match policy with
  | Squeue.Block ->
      Alcotest.(check int) "lossless" offered delivered;
      Alcotest.(check int) "no drops" 0 (Squeue.dropped q)
  | Squeue.Drop_newest ->
      Alcotest.(check int) "delivered = pushed" (Squeue.pushed q) delivered;
      Alcotest.(check int) "offered = pushed + dropped" offered
        (Squeue.pushed q + Squeue.dropped q)
  | Squeue.Drop_oldest ->
      Alcotest.(check int) "delivered = pushed - evicted" (Squeue.pushed q - Squeue.dropped q)
        delivered;
      Alcotest.(check int) "everything admitted" offered (Squeue.pushed q));
  Alcotest.(check bool) "something was delivered" true (delivered > 0)

(* --- metrics --------------------------------------------------------- *)

let metrics_percentiles () =
  let h = Metrics.Hist.create () in
  for i = 1 to 100 do
    Metrics.Hist.add h (float_of_int i *. 1e-4)
  done;
  let p50 = Metrics.Hist.percentile h 0.5 in
  let p99 = Metrics.Hist.percentile h 0.99 in
  Alcotest.(check bool) "p50 near 5ms" true (p50 >= 4e-3 && p50 <= 7e-3);
  Alcotest.(check bool) "p99 near 10ms" true (p99 >= 8e-3 && p99 <= 13e-3);
  Alcotest.(check bool) "p99 >= p50" true (p99 >= p50);
  Alcotest.(check int) "count" 100 (Metrics.Hist.count h)

(* Per-tenant labels: two views recording the same op class must land
   in disjoint (view, op) series — one tenant's latency must never leak
   into another's exposition line. *)
let metrics_view_labels () =
  let m = Metrics.create () in
  Metrics.record_view_op m ~view:"t0j" ~op:"lookup" 1_000_000;
  Metrics.record_view_op m ~view:"t0j" ~op:"lookup" 2_000_000;
  Metrics.record_view_op m ~view:"t1e" ~op:"lookup" 5_000_000;
  Metrics.record_view_op m ~view:"t1e" ~op:"snapshot" 7_000_000;
  Alcotest.(check (list (pair string string)))
    "series enumerate sorted and disjoint"
    [ ("t0j", "lookup"); ("t1e", "lookup"); ("t1e", "snapshot") ]
    (Metrics.view_op_series m);
  Alcotest.(check int) "t0j holds its own samples" 2
    (Metrics.Hist.count (Metrics.view_op m ~view:"t0j" ~op:"lookup"));
  Alcotest.(check int) "t1e lookup unaffected" 1
    (Metrics.Hist.count (Metrics.view_op m ~view:"t1e" ~op:"lookup"));
  let text = Metrics.render m in
  let has s =
    let n = String.length text and k = String.length s in
    let rec go i = i + k <= n && (String.sub text i k = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "t0j series exposed" true
    (has "ivm_view_op_seconds_count{view=\"t0j\",op=\"lookup\"} 2");
  Alcotest.(check bool) "t1e series exposed" true
    (has "ivm_view_op_seconds_count{view=\"t1e\",op=\"lookup\"} 1");
  Alcotest.(check bool) "one TYPE header" true
    (has "# TYPE ivm_view_op_seconds histogram")

(* --- checkpoint + replay crash recovery ------------------------------ *)

(* The property: for any update stream and any split point,
   [checkpoint at the split + WAL replay of the suffix] reproduces the
   directly-maintained database — including when the log has a torn
   tail *after* the replayed suffix. *)
module Crash_z = struct
  module Db = Ivm_data.Database.Z
  module CRel = Db.Rel
  module W = Wal.Z
  module C = Checkpoint.Z

  let schemas = [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]); ("T", [ "C"; "A" ]) ]

  let make_db () =
    let db = Db.create () in
    List.iter (fun (n, vars) -> ignore (Db.declare db n (S.of_list vars))) schemas;
    db

  let run (updates : int U.t list) (split : int) (torn : bool) =
    with_tmp ".wal" (fun wal_path ->
        with_tmp ".ckpt" (fun ckpt_path ->
            let split = if updates = [] then 0 else split mod (List.length updates + 1) in
            (* Direct run: every update applied, all logged. *)
            let direct = make_db () in
            let w = ok (W.open_log wal_path) in
            let ckpt_db = make_db () in
            List.iteri
              (fun i u ->
                ignore (ok (W.append w u));
                Db.apply direct u;
                if i < split then Db.apply ckpt_db u;
                if i = split - 1 then
                  ok (C.save ckpt_path ~db:ckpt_db ~records:split ~wal_offset:(W.offset w)))
              updates;
            if split = 0 then
              ok (C.save ckpt_path ~db:ckpt_db ~records:0 ~wal_offset:Wal.header_len);
            W.close w;
            if torn then begin
              (* A crash mid-append: garbage after the last full record. *)
              let oc = open_out_gen [ Open_append; Open_binary ] 0o644 wal_path in
              output_string oc "\x40\x00\x00\x00\x01\x02";
              close_out oc
            end;
            (* Crash, restart: load the snapshot, replay the suffix. *)
            let restored, { Checkpoint.records; wal_offset } = ok (C.load ckpt_path) in
            ignore (ok (W.replay wal_path ~from:wal_offset (fun u -> Db.apply restored u)));
            records = split
            && List.for_all
              (fun (name, _) -> CRel.equal (Db.find restored name) (Db.find direct name))
              schemas))
end

let crash_recovery_z =
  QCheck.Test.make ~name:"checkpoint+replay = direct apply (Z ring, incl. torn tail)"
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 0 60)
              (map3
                 (fun rel (a, b) payload -> U.make ~rel ~tuple:(tup [ a; b ]) ~payload)
                 (oneofl [ "R"; "S"; "T" ])
                 (pair (int_range 0 4) (int_range 0 4))
                 (int_range (-2) 2)))
           small_nat bool))
    (fun (updates, split, torn) -> Crash_z.run updates split torn)

(* --- the multi-view registry ----------------------------------------- *)

let q_rs =
  Ivm_query.Cq.make ~name:"Q" ~free:[ "B"; "A"; "C" ]
    [ Ivm_query.Cq.atom "R" [ "A"; "B" ]; Ivm_query.Cq.atom "S" [ "B"; "C" ] ]

let q_st =
  Ivm_query.Cq.make ~name:"Q2" ~free:[ "C"; "B"; "A" ]
    [ Ivm_query.Cq.atom "S" [ "B"; "C" ]; Ivm_query.Cq.atom "T" [ "C"; "A" ] ]

let triangle_schemas = [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]); ("T", [ "C"; "A" ]) ]

let make_triangle_db () =
  let db = D.Database.Z.create () in
  List.iter (fun (n, vars) -> ignore (D.Database.Z.declare db n (S.of_list vars))) triangle_schemas;
  db

(* Factories: each rebuilds its engine from a base database — the
   preprocessing step of recovery. *)
let tri_factory (db : D.Database.Z.t) : M.t = M.of_triangle ~name:"tri" (module Tri.Delta) db

let view_tree_factory q name (db : D.Database.Z.t) : M.t =
  let forest = Option.get (Ivm_query.Variable_order.canonical q) in
  M.of_view_tree ~name q (Ivm_engine.View_tree.build q forest db)

let register_standard_views reg =
  Registry.register reg ~name:"tri" tri_factory;
  Registry.register reg ~name:"paths-rs" (view_tree_factory q_rs "paths-rs");
  Registry.register reg ~name:"paths-st" (view_tree_factory q_st "paths-st")

let edge_stream n =
  let gen =
    Ivm_workload.Graph_gen.create ~seed:11
      { Ivm_workload.Graph_gen.nodes = 12; skew = 0.; delete_ratio = 0.3 }
  in
  List.init n (fun _ ->
      let e = Ivm_workload.Graph_gen.next gen in
      let rel = match e.Ivm_workload.Graph_gen.rel with 0 -> "R" | 1 -> "S" | _ -> "T" in
      U.make ~rel
        ~tuple:(tup [ e.Ivm_workload.Graph_gen.src; e.Ivm_workload.Graph_gen.dst ])
        ~payload:e.Ivm_workload.Graph_gen.mult)

let registry_matches_direct () =
  let stream = edge_stream 2_000 in
  (* Reference: each engine maintained directly, tuple by tuple. *)
  let ref_db = make_triangle_db () in
  let ref_reg = Registry.create ref_db in
  register_standard_views ref_reg;
  List.iter (fun u -> Registry.apply_batch ref_reg [ u ]) stream;
  (* Served: same stream, arbitrary batch boundaries. *)
  let db = make_triangle_db () in
  let reg = Registry.create db in
  register_standard_views reg;
  let rec go = function
    | [] -> ()
    | rest ->
        let k = min 97 (List.length rest) in
        Registry.apply_batch reg (List.filteri (fun i _ -> i < k) rest);
        go (List.filteri (fun i _ -> i >= k) rest)
  in
  go stream;
  List.iter2
    (fun (n1, f1) (n2, f2) ->
      Alcotest.(check string) "same view" n1 n2;
      Alcotest.(check int) ("fingerprint " ^ n1) f1 f2)
    (Registry.fingerprints ref_reg) (Registry.fingerprints reg);
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) ("base " ^ name) true
        (Rel.equal (D.Database.Z.find ref_db name) (D.Database.Z.find db name)))
    triangle_schemas

(* --- scheduler ------------------------------------------------------- *)

let coalesce_cancels () =
  let db = make_triangle_db () in
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics db in
  let queue = Squeue.create ~capacity:4 Squeue.Block in
  let sched = Scheduler.create ~queue ~registry:reg ~metrics () in
  let items =
    List.map Scheduler.item
      [
        U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:1;
        U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:(-1);
        U.make ~rel:"S" ~tuple:(tup [ 3; 4 ]) ~payload:2;
        U.make ~rel:"S" ~tuple:(tup [ 3; 4 ]) ~payload:3;
      ]
  in
  let check_once () =
    match Scheduler.coalesce sched items with
    | [ u ] ->
        Alcotest.(check string) "surviving relation" "S" u.U.rel;
        Alcotest.(check int) "summed payload" 5 u.U.payload
    | l -> Alcotest.failf "expected one coalesced update, got %d" (List.length l)
  in
  (* Twice through the same scheduler: the second epoch reuses the
     cleared accumulators and must see none of the first's state. *)
  check_once ();
  check_once ()

(* The coalescer against the fold-all-relations algorithm it replaced:
   over random multi-epoch streams through one scheduler (accumulators
   reused across epochs), every epoch's front must equal — as a
   multiset of (relation, tuple, payload) — a from-scratch per-(relation,
   tuple) sum with zeros dropped, groups must be non-empty with distinct
   relations, and a group whose updates all cancel must vanish. *)
let coalesce_matches_fold_all =
  let upd =
    QCheck.Gen.(
      map3
        (fun rel (a, b) payload -> U.make ~rel ~tuple:(tup [ a; b ]) ~payload)
        (oneofl [ "R"; "S"; "T"; "U" ])
        (pair (int_range 0 2) (int_range 0 2))
        (int_range (-2) 2))
  in
  QCheck.Test.make ~name:"coalesce_front = fold over all relations (multiset)" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 6) (list_size (int_range 0 30) upd)))
    (fun epochs ->
      let metrics = Metrics.create () in
      let reg = Registry.create ~metrics (make_triangle_db ()) in
      let queue = Squeue.create ~capacity:4 Squeue.Block in
      let sched = Scheduler.create ~queue ~registry:reg ~metrics () in
      let key rel tuple = (rel, D.Tuple.to_string tuple) in
      List.for_all
        (fun ups ->
          let sums = Hashtbl.create 16 in
          List.iter
            (fun (u : int U.t) ->
              let k = key u.U.rel u.U.tuple in
              Hashtbl.replace sums k
                (Option.value (Hashtbl.find_opt sums k) ~default:0 + u.U.payload))
            ups;
          let expected =
            Hashtbl.fold (fun (rel, tu) p acc -> if p = 0 then acc else (rel, tu, p) :: acc) sums []
            |> List.sort compare
          in
          let front = Scheduler.coalesce_front sched (List.map Scheduler.item ups) in
          let got =
            List.concat_map
              (fun (rel, group) ->
                List.map
                  (fun (u : int U.t) ->
                    if u.U.rel <> rel then Alcotest.failf "update of %s in group %s" u.U.rel rel;
                    (rel, D.Tuple.to_string u.U.tuple, u.U.payload))
                  group)
              front
            |> List.sort compare
          in
          let rels = List.map fst front in
          got = expected
          && List.for_all (fun (_, group) -> group <> []) front
          && List.length (List.sort_uniq compare rels) = List.length rels)
        epochs)

(* A one-update view over its own relation whose apply allocates
   nothing: what the per-epoch cost test registers by the hundred. *)
let counter_view rel name : D.Database.Z.t -> M.t =
 fun _ ->
  let n = ref 0 in
  let apply_batch = List.iter (fun (u : int U.t) -> n := !n + u.U.payload) in
  {
    M.name;
    relations = [ rel ];
    apply_batch;
    apply_delta =
      (fun batch ->
        apply_batch batch;
        []);
    output_count = (fun () -> !n);
    fingerprint = (fun () -> !n);
    enumerate = (fun () -> []);
  }

(* Minor words one scheduler epoch of a single update costs, at steady
   state, on a registry of [views] single-relation views. Every
   relation has been seen by the coalescer and every view applied
   once first, so the measured epochs pay only for what they touch. *)
let epoch_words ~views =
  let db = D.Database.Z.create () in
  let rel i = Printf.sprintf "r%d" i in
  for i = 0 to views - 1 do
    ignore (D.Database.Z.declare db (rel i) (S.of_list [ "A" ]))
  done;
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics db in
  for i = 0 to views - 1 do
    Registry.register reg ~name:(Printf.sprintf "v%d" i) (counter_view (rel i) (rel i))
  done;
  let queue = Squeue.create ~capacity:(views + 1) Squeue.Block in
  let sched = Scheduler.create ~min_batch:1 ~initial_batch:views ~queue ~registry:reg ~metrics () in
  let step () = Alcotest.(check bool) "epoch ran" true (ok (Scheduler.step sched)) in
  for i = 0 to views - 1 do
    ignore (Squeue.push queue (Scheduler.item (U.make ~rel:(rel i) ~tuple:(tup [ 1 ]) ~payload:1)))
  done;
  step ();
  let epochs = 16 in
  let items =
    Array.init epochs (fun k ->
        Scheduler.item
          (U.make ~rel:"r0" ~tuple:(tup [ 2 ]) ~payload:(if k mod 2 = 0 then 1 else -1)))
  in
  (* One unmeasured epoch grows the relation's storage for tuple 2. *)
  ignore (Squeue.push queue items.(0));
  step ();
  ignore (Squeue.push queue items.(1));
  step ();
  let total = ref 0. in
  Array.iter
    (fun item ->
      ignore (Squeue.push queue item);
      let w0 = Gc.minor_words () in
      step ();
      total := !total +. (Gc.minor_words () -. w0))
    items;
  !total /. float_of_int epochs

let epoch_cost_flat_in_views () =
  let small = epoch_words ~views:10 and large = epoch_words ~views:200 in
  if Float.abs (large -. small) > 16. then
    Alcotest.failf "1-update epoch: %.1f words at 10 views, %.1f at 200" small large

(* Minor words per update of the whole maintenance loop (pop, coalesce,
   registry apply) over the three standard views: the first-order delta
   triangle kernel and two view trees. The stream is
   pre-queued and driven in this domain with no WAL and fixed 256-update
   epochs, so the count does not depend on timing or machine load. The
   budget is 1.25x [stream_words_baseline]; when a change lowers the
   reading on purpose, re-measure by running this test and copying the
   "measured" value it prints into [stream_words_baseline]. *)
let stream_words_baseline = 53.531

(* A printed-reading allocation gate: fails above 1.25x [baseline].
   When a change lowers a reading on purpose, copy the "measured" value
   it prints into the baseline. *)
let alloc_gate what ~baseline measured =
  let limit = baseline *. 1.25 in
  Printf.printf "%s: measured %.3f words/update (baseline %.3f, limit %.1f)\n" what measured
    baseline limit;
  if measured > limit then
    Alcotest.failf "%s: %.3f minor words/update exceeds the budget of %.1f" what measured limit

let stream_alloc_budget () =
  let module G = Ivm_workload.Graph_gen in
  let total = 20_000 and epoch = 256 in
  let gen = G.create ~seed:7 { G.nodes = 300; skew = 1.1; delete_ratio = 0.2 } in
  let queue = Squeue.create ~capacity:total Squeue.Block in
  for _ = 1 to total do
    let e = G.next gen in
    let rel = match e.G.rel with 0 -> "R" | 1 -> "S" | _ -> "T" in
    ignore
      (Squeue.push queue
         (Scheduler.item (U.make ~rel ~tuple:(tup [ e.G.src; e.G.dst ]) ~payload:e.G.mult)))
  done;
  Squeue.close queue;
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics (make_triangle_db ()) in
  register_standard_views reg;
  let sched =
    Scheduler.create ~min_batch:epoch ~max_batch:epoch ~initial_batch:epoch ~queue
      ~registry:reg ~metrics ()
  in
  let w0 = Gc.minor_words () in
  while ok (Scheduler.step sched) do
    ()
  done;
  let measured = (Gc.minor_words () -. w0) /. float_of_int total in
  Alcotest.(check int) "every update applied" total (Scheduler.applied sched);
  alloc_gate "stream allocation" ~baseline:stream_words_baseline measured

(* Per-engine gates: minor words per update of one engine's apply on
   tuples it already stores, in the epoch shape the registry hands it.
   [batches] must leave the state as they found it, so the unmeasured
   first pass sizes every table and the measured second pass repeats
   it exactly. *)
let engine_words (m : M.t) batches =
  Array.iter m.M.apply_batch batches;
  let w0 = Gc.minor_words () in
  Array.iter m.M.apply_batch batches;
  let measured = Gc.minor_words () -. w0 in
  measured /. float_of_int (Array.fold_left (fun n b -> n + List.length b) 0 batches)

let view_tree_words_baseline = 5.000
let economy_words_baseline = 2.750
let triangle_words_baseline = 19.000
let minmax_words_baseline = 30.741

module Mx = Ivm_workload.Mixed

(* A mixed-workload tenant of [kind] — the engine ivmbench serves —
   built over its own tables holding [rows t]. *)
let mixed_engine kind rows =
  let t = Mx.tenant ~index:0 kind ~keys:64 in
  let db = D.Database.Z.create () in
  List.iter (fun (n, cols) -> ignore (D.Database.Z.declare db n (S.of_list cols))) t.Mx.tables;
  D.Database.Z.apply_batch db (rows t);
  (t, Mx.factory t db)

(* [payload] on each of [rows] (table suffix, ints), one update per
   batch. *)
let singles t payload rows =
  List.map (fun (r, vs) -> [ U.make ~rel:(Mx.table t r) ~tuple:(tup vs) ~payload ]) rows

(* +1 then -1 on each stored tuple: every probe and store of the
   q-hierarchical view tree hits an existing entry. *)
let view_tree_alloc () =
  let stored =
    List.init 32 (fun i -> ("R", [ i mod 16; i ])) @ List.init 32 (fun i -> ("S", [ i; i mod 8 ]))
  in
  let t, m = mixed_engine Mx.Join (fun t -> List.concat (singles t 1 stored)) in
  let batches = Array.of_list (singles t 1 stored @ singles t (-1) stored) in
  alloc_gate "view-tree update" ~baseline:view_tree_words_baseline (engine_words m batches)

(* The view trees whose plans iterate a sibling's group, with the
   minor words per update the relation-delta propagation they replaced
   took: every probe reads at most 1/20 of that. *)
module VT = Ivm_engine.View_tree
module Cq = Ivm_query.Cq

(* A database of int relations: (name, columns, rows). *)
let db_of rels =
  let db = D.Database.Z.create () in
  List.iter
    (fun (name, cols, rows) ->
      let r = D.Database.Z.declare db name (S.of_list cols) in
      List.iter (fun vs -> Rel.add_entry r (tup vs) 1) rows)
    rels;
  db

(* Minor words per update of +1 then -1 on each of [rows] of [rel],
   which the tree stores: the prebuilt updates run once unmeasured,
   sizing every table, then once measured. *)
let tree_words tree rel rows =
  let ups =
    Array.of_list
      (List.concat_map
         (fun vs ->
           [ U.make ~rel ~tuple:(tup vs) ~payload:1; U.make ~rel ~tuple:(tup vs) ~payload:(-1) ])
         rows)
  in
  let pass () =
    for i = 0 to Array.length ups - 1 do
      VT.apply_update tree ups.(i)
    done
  in
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  (Gc.minor_words () -. w0) /. float_of_int (Array.length ups)

let iterating_gate what ~before measured =
  let limit = before /. 20. in
  Printf.printf "%s: measured %.3f words/update (relation deltas %.1f, limit %.2f)\n" what
    measured before limit;
  if measured > limit then
    Alcotest.failf "%s: %.3f minor words/update exceeds %.2f" what measured limit

let view_tree_iterating_alloc () =
  (* Ex. 4.14 with T dynamic: a T update iterates S's A-values. *)
  let r = List.init 256 (fun i -> [ i mod 64; i / 64 ])
  and s = List.init 64 (fun i -> [ i; i mod 16 ])
  and t = List.init 64 (fun i -> [ i mod 16; i / 16 ]) in
  let tree =
    let module Sd = Ivm_engine.Static_dynamic_engine in
    VT.build Sd.query Sd.order
      (db_of [ ("R", [ "A"; "D" ], r); ("S", [ "A"; "B" ], s); ("T", [ "B"; "C" ], t) ])
  in
  iterating_gate "Ex. 4.14 T update" ~before:1652.1 (tree_words tree "T" t);
  (* Ex. 4.12: the Sigma-reduct order over the original relations. *)
  let n = 2_000 in
  let xs = List.init n (fun i -> i + 1) in
  let r = List.map (fun x -> [ x; x mod 97 ]) xs and s = List.map (fun x -> [ x; x + n ]) xs in
  let q =
    Cq.make ~name:"Q" ~free:[ "Z"; "Y"; "X"; "W" ]
      [ Cq.atom "R" [ "X"; "W" ]; Cq.atom "S" [ "X"; "Y" ]; Cq.atom "T" [ "Y"; "Z" ] ]
  in
  let fds = Ivm_query.Fd.[ make [ "X" ] [ "Y" ]; make [ "Y" ] [ "Z" ] ] in
  let db =
    db_of
      [
        ("R", [ "X"; "W" ], r);
        ("S", [ "X"; "Y" ], s);
        ("T", [ "Y"; "Z" ], List.map (fun x -> [ x + n; x + (2 * n) ]) xs);
      ]
  in
  let fd = match Ivm_engine.Fd_reduct.build fds q db with Ok e -> e | Error m -> failwith m in
  let tree = Ivm_engine.Fd_reduct.tree fd in
  let first l = List.filteri (fun i _ -> i < 256) l in
  iterating_gate "Ex. 4.12 R update" ~before:1902.0 (tree_words tree "R" (first r));
  iterating_gate "Ex. 4.12 S update" ~before:1466.0 (tree_words tree "S" (first s));
  (* The cascade query over a chain order. *)
  let r = List.init 256 (fun i -> [ i; i mod 64 ])
  and s = List.init 64 (fun i -> [ i; i mod 16 ])
  and t = List.init 64 (fun i -> [ i mod 16; i ]) in
  let q =
    Cq.make ~name:"Q" ~free:[ "A"; "D" ]
      [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B"; "C" ]; Cq.atom "T" [ "C"; "D" ] ]
  in
  let tree =
    VT.build q
      [ Ivm_query.Variable_order.chain [ "A"; "D"; "B"; "C" ] ]
      (db_of [ ("R", [ "A"; "B" ], r); ("S", [ "B"; "C" ], s); ("T", [ "C"; "D" ], t) ])
  in
  iterating_gate "chain R update" ~before:1457.0 (tree_words tree "R" r);
  iterating_gate "chain S update" ~before:3664.1 (tree_words tree "S" s);
  iterating_gate "chain T update" ~before:4129.1 (tree_words tree "T" t)

(* Transfer pairs between stored accounts in 16-update epochs, then the
   reverse transfers: the economy's source -> SUM -> view graph. *)
let economy_alloc () =
  let t, m = mixed_engine Mx.Economy (Mx.init_updates ~accounts:64) in
  let pair k dir =
    let acct i = U.make ~rel:(Mx.table t "A") ~tuple:(tup [ 1 + (i mod 64) ]) in
    [ acct k ~payload:(-dir); acct ((k * 7) + 3) ~payload:dir ]
  in
  let epoch e dir = List.concat (List.init 8 (fun k -> pair ((e * 8) + k) dir)) in
  let batches = Array.init 64 (fun e -> if e < 32 then epoch e 1 else epoch (e - 32) (-1)) in
  alloc_gate "economy graph update" ~baseline:economy_words_baseline (engine_words m batches)

(* +1 then -1 on stored edges (multiplicity 2, so none is removed): the
   delta kernel's intersection and its edge update, both on hits. *)
let triangle_alloc () =
  let edges =
    List.init 96 (fun i -> ([| "R"; "S"; "T" |].(i mod 3), [ i mod 12; i * 5 mod 12 ]))
  in
  let t, m = mixed_engine Mx.Triangle (fun t -> List.concat (singles t 2 edges)) in
  let batches = Array.of_list (singles t 1 edges @ singles t (-1) edges) in
  alloc_gate "triangle delta update" ~baseline:triangle_words_baseline (engine_words m batches)

(* One Mixed minmax tenant over 4096 keys, loaded by 2,500 seeded
   generator steps, then 20,000 more steps in 10-update epochs: the
   generator's inserts and its deletes of live rows, some of them a
   group's served extremum. The batches are built before measuring. *)
let minmax_alloc () =
  let keys = 4096 and seed_steps = 2_500 and total = 20_000 and epoch = 10 in
  let t = Mx.tenant ~index:0 Mx.Minmax ~keys in
  let gen = Mx.Tgen.create t ~drift:(Mx.Drift.create ~seed:1 ~keys ~period:0) ~seed:1 () in
  let db = D.Database.Z.create () in
  List.iter (fun (n, cols) -> ignore (D.Database.Z.declare db n (S.of_list cols))) t.Mx.tables;
  for op = 1 to seed_steps do
    D.Database.Z.apply_batch db (Mx.Tgen.next gen ~op)
  done;
  let m = Mx.factory t db in
  let batches =
    Array.init (total / epoch) (fun e ->
        List.concat_map
          (fun i -> Mx.Tgen.next gen ~op:(seed_steps + (e * epoch) + i + 1))
          (List.init epoch Fun.id))
  in
  let w0 = Gc.minor_words () in
  Array.iter m.M.apply_batch batches;
  let measured = Gc.minor_words () -. w0 in
  alloc_gate "minmax graph update" ~baseline:minmax_words_baseline
    (measured /. float_of_int (Array.fold_left (fun n b -> n + List.length b) 0 batches))

(* An epoch whose payloads cancel to zero entirely must still count as
   an epoch (durably logged, applied-counter advanced, adaptive limit
   intact) while handing the registry an empty batch — and the views
   must be exactly as if the epoch never happened. *)
let zero_cancel_epoch () =
  with_tmp ".wal" (fun wal_path ->
      let db = make_triangle_db () in
      let metrics = Metrics.create () in
      let reg = Registry.create ~metrics db in
      register_standard_views reg;
      let before = Registry.fingerprints reg in
      let wal = ok (Wal.Z.open_log wal_path) in
      let queue = Squeue.create ~capacity:64 Squeue.Block in
      let sched = Scheduler.create ~wal ~initial_batch:64 ~queue ~registry:reg ~metrics () in
      (* Insert/delete pairs across two relations: the whole epoch
         cancels. *)
      List.iter
        (fun u -> ignore (Squeue.push queue (Scheduler.item u)))
        [
          U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:1;
          U.make ~rel:"S" ~tuple:(tup [ 2; 3 ]) ~payload:2;
          U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:(-1);
          U.make ~rel:"S" ~tuple:(tup [ 2; 3 ]) ~payload:(-2);
        ];
      Alcotest.(check bool) "epoch ran" true (ok (Scheduler.step sched));
      Alcotest.(check int) "all four updates accounted" 4 (Scheduler.applied sched);
      Alcotest.(check int) "coalesced away entirely" 0 metrics.Metrics.coalesced;
      List.iter2
        (fun (n1, f1) (n2, f2) ->
          Alcotest.(check string) "same view" n1 n2;
          Alcotest.(check int) ("view untouched: " ^ n1) f1 f2)
        before (Registry.fingerprints reg);
      (* The log still carries the cancelled records (durability is
         pre-coalescing), and the scheduler keeps serving. *)
      Alcotest.(check int) "wal has all records" 4 (ok (Wal.Z.record_count wal_path));
      List.iter
        (fun u -> ignore (Squeue.push queue (Scheduler.item u)))
        [ U.make ~rel:"R" ~tuple:(tup [ 4; 5 ]) ~payload:1 ];
      Squeue.close queue;
      Alcotest.(check bool) "next epoch ran" true (ok (Scheduler.step sched));
      Alcotest.(check bool) "stream end" false (ok (Scheduler.step sched));
      Wal.Z.close wal)

(* --- supervision ------------------------------------------------------ *)

let flaky_view name : D.Database.Z.t -> M.t =
 fun _ ->
  let fail _ = failwith "flaky: injected apply failure" in
  {
    M.name;
    relations = [ "R" ];
    apply_batch = fail;
    apply_delta = fail;
    output_count = (fun () -> 0);
    fingerprint = (fun () -> 0);
    enumerate = (fun () -> []);
  }

(* A view whose engine keeps failing is quarantined while the healthy
   views keep serving the full stream — apply_batch never raises and
   the healthy fingerprints match a registry that never had the flaky
   peer. *)
let quarantine_isolates () =
  let stream = edge_stream 1_500 in
  let reference = Registry.create (make_triangle_db ()) in
  register_standard_views reference;
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics ~backoff_base:1e-6 ~max_failures:3 (make_triangle_db ()) in
  register_standard_views reg;
  Registry.register reg ~name:"flaky" (flaky_view "flaky");
  let rec go reg = function
    | [] -> ()
    | rest ->
        let k = min 50 (List.length rest) in
        Registry.apply_batch reg (List.filteri (fun i _ -> i < k) rest);
        go reg (List.filteri (fun i _ -> i >= k) rest)
  in
  go reference stream;
  go reg stream;
  Alcotest.(check bool) "flaky ends quarantined" true
    (Registry.health reg "flaky" = Registry.Quarantined);
  List.iter
    (fun (name, h) ->
      if name <> "flaky" then
        Alcotest.(check bool) (name ^ " stays healthy") true (h = Registry.Healthy))
    (Registry.statuses reg);
  List.iter
    (fun (name, fp) ->
      if name <> "flaky" then
        Alcotest.(check int)
          ("healthy view unaffected: " ^ name)
          (List.assoc name (Registry.fingerprints reference))
          fp)
    (Registry.fingerprints reg);
  Alcotest.(check bool) "failures surfaced in metrics" true
    ((Metrics.view metrics "flaky").Metrics.failures > 0);
  (* heal rebuilds it from the base state (the build itself works). *)
  Alcotest.(check (list string)) "heal recovers everything" [] (Registry.heal reg);
  Alcotest.(check bool) "flaky healthy after heal" true
    (Registry.health reg "flaky" = Registry.Healthy)

(* A structurally poisonous update (string where the triangle kernel
   needs ints) degrades only the consuming view; recovery isolates the
   poison tuple, dead-letters it, and rebuilds. The recovered view
   equals a run that never saw the poison. *)
let poison_dead_letter () =
  let stream = edge_stream 600 in
  let poison = U.make ~rel:"R" ~tuple:(D.Tuple.of_list [ D.Value.Str "bad"; D.Value.Int 7 ]) ~payload:1 in
  let clean = Registry.create (make_triangle_db ()) in
  register_standard_views clean;
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics ~backoff_base:1e-6 (make_triangle_db ()) in
  register_standard_views reg;
  let rec go reg with_poison i = function
    | [] -> ()
    | rest ->
        let k = min 50 (List.length rest) in
        let chunk = List.filteri (fun j _ -> j < k) rest in
        let chunk = if with_poison && i = 3 then chunk @ [ poison ] else chunk in
        Registry.apply_batch reg chunk;
        go reg with_poison (i + 1) (List.filteri (fun j _ -> j >= k) rest)
  in
  go clean false 0 stream;
  go reg true 0 stream;
  Alcotest.(check (list string)) "all views healthy at end" [] (Registry.heal reg);
  let dead = List.assoc "tri" (Registry.dead_letters reg) in
  Alcotest.(check int) "poison dead-lettered once" 1 (List.length dead);
  let rel, tu = List.hd dead in
  Alcotest.(check string) "dead-letter relation" "R" rel;
  Alcotest.(check bool) "dead-letter tuple" true (D.Tuple.equal tu poison.U.tuple);
  (* tri sees the stream minus the poison — same count as the clean run. *)
  Alcotest.(check int) "tri recovered to the clean state"
    (List.assoc "tri" (Registry.fingerprints clean))
    (List.assoc "tri" (Registry.fingerprints reg));
  Alcotest.(check bool) "dead letter surfaced in metrics" true
    ((Metrics.view metrics "tri").Metrics.dead_letters = 1);
  (* The base database keeps the poison (it is relation-valid there). *)
  Alcotest.(check bool) "base db retains the tuple" true
    (Rel.mem (D.Database.Z.find (Registry.db reg) "R") poison.U.tuple)

(* self_check repairs silently corrupted view state from the base
   database. *)
let self_check_repairs () =
  let db = make_triangle_db () in
  let reg = Registry.create db in
  register_standard_views reg;
  Registry.apply_batch reg (edge_stream 500);
  Alcotest.(check (list string)) "clean state passes" [] (Registry.self_check reg);
  (* Corrupt one engine behind the registry's back: feed it an update
     the base database never saw. *)
  let tri = Registry.find reg "tri" in
  tri.M.apply_batch [ U.make ~rel:"R" ~tuple:(tup [ 3; 4 ]) ~payload:5 ];
  Alcotest.(check (list string)) "divergence detected and repaired" [ "tri" ]
    (Registry.self_check reg);
  Alcotest.(check (list string)) "second pass clean" [] (Registry.self_check reg)

(* [skipped] charges a view that is not healthy only the updates on its
   own relations; only the relation-less stub of a failed initial build
   is charged the whole epoch. *)
let skipped_counts_own_relations () =
  let metrics = Metrics.create () in
  let reg = Registry.create ~metrics ~backoff_base:1e3 (make_triangle_db ()) in
  Registry.register reg ~name:"flaky" (flaky_view "flaky");
  Registry.register reg ~name:"paths-st" (view_tree_factory q_st "paths-st");
  Registry.register reg ~name:"broken" (fun _ -> failwith "initial build fails");
  let skipped name = (Metrics.view metrics name).Metrics.skipped in
  Registry.apply_batch reg [ U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:1 ];
  Alcotest.(check bool) "flaky degraded" true (Registry.health reg "flaky" = Registry.Degraded);
  Alcotest.(check int) "stub charged the first epoch" 1 (skipped "broken");
  Registry.apply_batch reg
    (List.init 3 (fun i -> U.make ~rel:"S" ~tuple:(tup [ i; i ]) ~payload:1));
  Alcotest.(check int) "no charge for an epoch off its relations" 0 (skipped "flaky");
  Alcotest.(check int) "stub charged the whole epoch" 4 (skipped "broken");
  Registry.apply_batch reg
    [
      U.make ~rel:"R" ~tuple:(tup [ 5; 6 ]) ~payload:1;
      U.make ~rel:"R" ~tuple:(tup [ 6; 7 ]) ~payload:1;
      U.make ~rel:"T" ~tuple:(tup [ 7; 5 ]) ~payload:1;
    ];
  Alcotest.(check int) "charged only its own relation's updates" 2 (skipped "flaky");
  Alcotest.(check int) "stub charged the whole epoch again" 7 (skipped "broken");
  Alcotest.(check int) "healthy view never charged" 0 (skipped "paths-st")

(* Per-view stamps: an epoch leaves the stamps of views it does not
   touch alone, and bumps the ones it hands updates to. *)
let untouched_stamp_stable () =
  let reg = Registry.create (make_triangle_db ()) in
  register_standard_views reg;
  Registry.register reg ~name:"r-only" (counter_view "R" "r-only");
  let stamps () =
    List.map (fun name -> (name, Registry.stamp_value (Registry.stamp reg name)))
      [ "tri"; "paths-rs"; "paths-st"; "r-only" ]
  in
  let before = stamps () in
  Registry.apply_batch reg [ U.make ~rel:"T" ~tuple:(tup [ 1; 2 ]) ~payload:1 ];
  let after = stamps () in
  let moved name = List.assoc name before <> List.assoc name after in
  Alcotest.(check bool) "tri (on T) moved" true (moved "tri");
  Alcotest.(check bool) "paths-st (on T) moved" true (moved "paths-st");
  Alcotest.(check bool) "paths-rs (R, S) untouched" false (moved "paths-rs");
  Alcotest.(check bool) "r-only untouched" false (moved "r-only");
  Registry.apply_front reg [ ("R", []) ];
  Alcotest.(check bool) "an empty front moves nothing" true (stamps () = after)

(* Every (re)install bumps the view's stamp: heal of a degraded view, a
   self-check reinstall, and the rebuild that dead-letters a poison
   update. *)
let reinstall_bumps_stamp () =
  let value reg name = Registry.stamp_value (Registry.stamp reg name) in
  (* heal *)
  let reg = Registry.create ~backoff_base:1e3 (make_triangle_db ()) in
  Registry.register reg ~name:"flaky" (flaky_view "flaky");
  Registry.apply_batch reg [ U.make ~rel:"R" ~tuple:(tup [ 1; 2 ]) ~payload:1 ];
  let s0 = value reg "flaky" in
  Alcotest.(check (list string)) "heal recovers" [] (Registry.heal reg);
  Alcotest.(check bool) "heal bumps" true (value reg "flaky" > s0);
  (* self-check reinstall, and no bump on a clean check *)
  let reg = Registry.create (make_triangle_db ()) in
  register_standard_views reg;
  Registry.apply_batch reg (edge_stream 500);
  let s0 = value reg "tri" in
  Alcotest.(check (list string)) "clean check" [] (Registry.self_check reg);
  Alcotest.(check int) "clean check leaves the stamp" s0 (value reg "tri");
  (Registry.find reg "tri").M.apply_batch [ U.make ~rel:"R" ~tuple:(tup [ 3; 4 ]) ~payload:5 ];
  Alcotest.(check (list string)) "reinstalled" [ "tri" ] (Registry.self_check reg);
  Alcotest.(check bool) "self-check reinstall bumps" true (value reg "tri" > s0);
  (* dead-letter rebuild *)
  let reg = Registry.create ~backoff_base:1e3 (make_triangle_db ()) in
  register_standard_views reg;
  let poison =
    U.make ~rel:"R" ~tuple:(D.Tuple.of_list [ D.Value.Str "bad"; D.Value.Int 7 ]) ~payload:1
  in
  Registry.apply_batch reg [ poison ];
  let s0 = value reg "tri" in
  Alcotest.(check (list string)) "dead-letter rebuild heals" [] (Registry.heal reg);
  Alcotest.(check int) "poison dead-lettered" 1 (List.length (List.assoc "tri" (Registry.dead_letters reg)));
  Alcotest.(check bool) "dead-letter rebuild bumps" true (value reg "tri" > s0)

(* The acceptance criterion: a served run with a WAL and a mid-stream
   checkpoint, then kill-and-restart — restore the checkpoint, rebuild
   the views, replay the WAL suffix — must yield state identical to the
   uninterrupted run. *)
let serve_kill_restart () =
  with_tmp ".wal" (fun wal_path ->
      with_tmp ".ckpt" (fun ckpt_path ->
          let total = 4_000 in
          let db = make_triangle_db () in
          let metrics = Metrics.create () in
          let reg = Registry.create ~metrics db in
          register_standard_views reg;
          let wal = ok (Wal.Z.open_log wal_path) in
          let queue = Squeue.create ~capacity:512 Squeue.Block in
          let sched =
            Scheduler.create ~wal ~initial_batch:64 ~queue ~registry:reg ~metrics ()
          in
          let producer =
            Domain.spawn (fun () ->
                List.iter
                  (fun u -> ignore (Squeue.push queue (Scheduler.item u)))
                  (edge_stream total);
                Squeue.close queue)
          in
          let checkpointed = ref false in
          ok
            (Scheduler.run
               ~on_epoch:(fun s ->
                 if (not !checkpointed) && Scheduler.applied s >= total / 2 then begin
                   checkpointed := true;
                   ok
                     (Checkpoint.Z.save ckpt_path ~db:(Registry.db reg)
                        ~records:(Scheduler.applied s) ~wal_offset:(Wal.Z.offset wal))
                 end)
               sched);
          Domain.join producer;
          Wal.Z.close wal;
          Alcotest.(check bool) "checkpoint was taken mid-stream" true !checkpointed;
          Alcotest.(check int) "every update applied" total (Scheduler.applied sched);
          Alcotest.(check bool) "latency histogram populated" true
            (Metrics.Hist.count metrics.Metrics.latency = total);
          (* Kill-and-restart. *)
          let restored, cursor =
            ok
              (Durable.recover ~wal:wal_path ~ckpt:ckpt_path ~fresh:make_triangle_db
                 (Registry.restore reg))
          in
          Alcotest.(check int) "recovered record count" total cursor.Checkpoint.records;
          List.iter2
            (fun (n1, f1) (n2, f2) ->
              Alcotest.(check string) "same view" n1 n2;
              Alcotest.(check int) ("restored fingerprint " ^ n1) f1 f2)
            (Registry.fingerprints reg) (Registry.fingerprints restored);
          List.iter
            (fun (name, _) ->
              Alcotest.(check bool) ("restored base " ^ name) true
                (Rel.equal
                   (D.Database.Z.find (Registry.db restored) name)
                   (D.Database.Z.find db name)))
            triangle_schemas))

let qt t = QCheck_alcotest.to_alcotest ~long:false t

let () =
  Alcotest.run ~and_exit:false "stream"
    [
      ( "codec",
        [
          qt codec_roundtrip;
          Alcotest.test_case "corrupt" `Quick codec_corrupt;
          Alcotest.test_case "crc32 known answer" `Quick codec_crc_known_answer;
          Alcotest.test_case "golden bytes" `Quick codec_golden_bytes;
        ] );
      ( "wal",
        [
          qt wal_roundtrip;
          qt wal_torn_tail;
          Alcotest.test_case "garbage tail" `Quick wal_garbage_tail;
          Alcotest.test_case "malformed body" `Quick wal_malformed_body;
          Alcotest.test_case "earlier log replays" `Quick earlier_log_replays;
          Alcotest.test_case "append allocation budget" `Quick wal_alloc_budget;
        ] );
      ( "queue",
        [
          Alcotest.test_case "policies" `Quick queue_policies;
          Alcotest.test_case "mpsc" `Quick queue_mpsc;
          Alcotest.test_case "capacity 1, block" `Quick (queue_capacity_one Squeue.Block);
          Alcotest.test_case "capacity 1, drop newest" `Quick
            (queue_capacity_one Squeue.Drop_newest);
          Alcotest.test_case "capacity 1, drop oldest" `Quick
            (queue_capacity_one Squeue.Drop_oldest);
        ] );
      ( "metrics",
        [
          Alcotest.test_case "percentiles" `Quick metrics_percentiles;
          Alcotest.test_case "per-view op labels disjoint" `Quick metrics_view_labels;
        ] );
      ("crash recovery", [ qt crash_recovery_z ]);
      ( "registry",
        [
          Alcotest.test_case "multi-view = direct" `Quick registry_matches_direct;
          Alcotest.test_case "untouched view keeps its stamp" `Quick untouched_stamp_stable;
          Alcotest.test_case "reinstall bumps the stamp" `Quick reinstall_bumps_stamp;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "coalesce" `Quick coalesce_cancels;
          qt coalesce_matches_fold_all;
          Alcotest.test_case "1-update epoch cost flat in views" `Quick epoch_cost_flat_in_views;
          Alcotest.test_case "stream allocation budget" `Quick stream_alloc_budget;
          Alcotest.test_case "view-tree update allocation" `Quick view_tree_alloc;
          Alcotest.test_case "view-tree iterating update allocation" `Quick
            view_tree_iterating_alloc;
          Alcotest.test_case "economy graph allocation" `Quick economy_alloc;
          Alcotest.test_case "triangle delta allocation" `Quick triangle_alloc;
          Alcotest.test_case "minmax graph allocation" `Quick minmax_alloc;
          Alcotest.test_case "zero-cancel epoch" `Quick zero_cancel_epoch;
          Alcotest.test_case "serve, kill, restart" `Quick serve_kill_restart;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "quarantine isolates" `Quick quarantine_isolates;
          Alcotest.test_case "poison dead-letter" `Quick poison_dead_letter;
          Alcotest.test_case "self-check repairs" `Quick self_check_repairs;
          Alcotest.test_case "skipped counts own relations" `Quick skipped_counts_own_relations;
        ] );
    ]
