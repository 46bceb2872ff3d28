(* The fault-injection harness: failpoint trigger windows and seeded
   determinism, the injectable IO layer's torn-write semantics, and the
   durability code's behaviour under injected faults — failed fsyncs
   are retryable, crashes drop exactly the unsynced suffix, checkpoint
   installation is all-or-nothing, corrupt or foreign files load as
   errors, never as silently wrong state, and recovery replays past a
   corrupt record its checkpoint covers. *)

module D = Ivm_data
module S = D.Schema
module U = D.Update
module Fp = Ivm_fault.Failpoint
module Io = Ivm_fault.Io
module Wal = Ivm_stream.Wal
module Checkpoint = Ivm_stream.Checkpoint
module Durable = Ivm_stream.Durable
module Registry = Ivm_stream.Registry
module Errors = Ivm_stream.Errors
module Rel = D.Relation.Z
module Db = D.Database.Z

let tup = D.Tuple.of_ints

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected durability error: %s" (Errors.to_string e)

let injected_err what = function
  | Ok _ -> Alcotest.failf "%s: expected an injected error, got Ok" what
  | Error e ->
      Alcotest.(check bool) (what ^ ": error is injected") true (Errors.injected e)

let tmp_path suffix =
  let path = Filename.temp_file "ivm_fault" suffix in
  Sys.remove path;
  path

let with_tmp suffix f =
  let path = tmp_path suffix in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

(* Every test leaves the global registry disabled, pass or fail. *)
let faulty f () = Fun.protect ~finally:Fp.reset f

let updates n = List.init n (fun i -> U.make ~rel:"R" ~tuple:(tup [ i; i + 1 ]) ~payload:1)

(* --- failpoint registry ---------------------------------------------- *)

let failpoint_window () =
  Fp.enable ();
  Fp.arm "w" ~after:2 ~times:2 Fp.Fail;
  let seq = List.init 6 (fun _ -> Fp.hit "w" <> None) in
  Alcotest.(check (list bool))
    "2 pass, 2 fire, rest pass"
    [ false; false; true; true; false; false ]
    seq;
  Alcotest.(check int) "every hit counted" 6 (Fp.hits "w");
  Alcotest.(check int) "fired exactly [times]" 2 (Fp.fired "w");
  Alcotest.(check (list (pair string string)))
    "armed listing" [ ("w", "fail") ]
    (List.map (fun (n, a) -> (n, Fp.action_name a)) (Fp.armed ()));
  Fp.disarm "w";
  Alcotest.(check bool) "disarmed point passes" true (Fp.hit "w" = None)

let failpoint_disabled_is_inert () =
  (* reset = production state: hooks must pass through and count
     nothing, even for a name armed before the reset. *)
  Fp.enable ();
  Fp.arm "inert" Fp.Fail;
  Fp.reset ();
  Alcotest.(check bool) "disabled hook passes" true (Fp.hit "inert" = None);
  Alcotest.(check int) "no hits recorded" 0 (Fp.hits "inert");
  Alcotest.(check (list (pair string string))) "nothing armed" []
    (List.map (fun (n, a) -> (n, Fp.action_name a)) (Fp.armed ()))

let failpoint_seeded_replay () =
  let pattern seed =
    Fp.reset ();
    Fp.enable ~seed ();
    Fp.arm "coin" ~times:1000 ~p:0.3 Fp.Fail;
    List.init 200 (fun _ -> Fp.hit "coin" <> None)
  in
  let a = pattern 42 and b = pattern 42 and c = pattern 43 in
  Alcotest.(check (list bool)) "same seed, same schedule" a b;
  Alcotest.(check bool) "different seed, different schedule" false (a = c);
  let fired = List.length (List.filter Fun.id a) in
  Alcotest.(check bool) "p=0.3 fires sometimes, not always" true
    (fired > 0 && fired < 200)

(* --- the injectable IO layer ----------------------------------------- *)

let io_short_write_prefix () =
  with_tmp ".bin" (fun path ->
      let oc = Result.get_ok (Io.open_trunc ~tag:"t" path) in
      Fp.enable ();
      Fp.arm "t.write" (Fp.Short_write 5);
      (match Io.write oc "hello world" with
      | Ok () -> Alcotest.fail "short write must report an error"
      | Error e -> Alcotest.(check bool) "injected" true e.Io.injected);
      Io.close_noerr oc;
      (* The torn prefix — and only it — reached the disk. *)
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Alcotest.(check string) "exactly the 5-byte prefix on disk" "hello" s)

let io_fail_writes_nothing () =
  with_tmp ".bin" (fun path ->
      let oc = Result.get_ok (Io.open_trunc ~tag:"t" path) in
      Fp.enable ();
      Fp.arm "t.write" Fp.Fail;
      (match Io.write oc "hello world" with
      | Ok () -> Alcotest.fail "failed write must report an error"
      | Error e -> Alcotest.(check bool) "injected" true e.Io.injected);
      Io.close_noerr oc;
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      close_in ic;
      Alcotest.(check int) "nothing reached the disk" 0 n)

(* --- WAL under faults ------------------------------------------------- *)

let wal_fsync_fail_is_retryable () =
  with_tmp ".wal" (fun path ->
      let w = ok (Wal.Z.open_log path) in
      List.iter (fun u -> ignore (ok (Wal.Z.append w u))) (updates 3);
      Fp.enable ();
      Fp.arm "wal.fsync" ~times:1 Fp.Fail;
      injected_err "first sync" (Wal.Z.sync w);
      (* The failure is transient: the handle is still good and the next
         sync makes everything durable. *)
      ok (Wal.Z.sync w);
      Wal.Z.close w;
      Fp.reset ();
      Alcotest.(check int) "all records durable after retry" 3
        (ok (Wal.Z.record_count path)))

let wal_crash_drops_unsynced () =
  with_tmp ".wal" (fun path ->
      let w = ok (Wal.Z.open_log path) in
      let us = updates 5 in
      List.iteri
        (fun i u ->
          ignore (ok (Wal.Z.append w u));
          if i = 2 then ok (Wal.Z.sync w))
        us;
      (* Crash with two records still buffered: only the synced prefix
         survives, and the log re-opens cleanly for appending. *)
      Wal.Z.crash w;
      Alcotest.(check int) "synced prefix survives" 3 (ok (Wal.Z.record_count path));
      let w = ok (Wal.Z.open_log path) in
      ignore (ok (Wal.Z.append w (U.make ~rel:"S" ~tuple:(tup [ 9 ]) ~payload:1)));
      ok (Wal.Z.sync w);
      Wal.Z.close w;
      Alcotest.(check int) "append after crash extends the prefix" 4
        (ok (Wal.Z.record_count path)))

let wal_decode_fault_ends_replay () =
  with_tmp ".wal" (fun path ->
      let w = ok (Wal.Z.open_log path) in
      List.iter (fun u -> ignore (ok (Wal.Z.append w u))) (updates 5);
      Wal.Z.close w;
      (* An injected decode fault mid-log is indistinguishable from a
         torn tail: replay keeps the prefix and stops, it never
         propagates garbage. *)
      Fp.enable ();
      Fp.arm "codec.decode" ~after:2 Fp.Fail;
      let n = ref 0 in
      ignore (ok (Wal.Z.replay path ~from:0 (fun _ -> incr n)));
      Alcotest.(check int) "replay stops at the faulty record" 2 !n;
      Fp.reset ();
      let n = ref 0 in
      ignore (ok (Wal.Z.replay path ~from:0 (fun _ -> incr n)));
      Alcotest.(check int) "the log itself is intact" 5 !n)

let wal_foreign_file_is_bad_magic () =
  with_tmp ".wal" (fun path ->
      let oc = open_out_bin path in
      output_string oc "definitely not a WAL file";
      close_out oc;
      (match Wal.Z.replay path ~from:0 (fun _ -> ()) with
      | Ok _ -> Alcotest.fail "foreign file must not replay"
      | Error (Errors.Bad_magic _) -> ()
      | Error e -> Alcotest.failf "expected Bad_magic, got %s" (Errors.to_string e));
      match Wal.Z.replay (path ^ ".missing") ~from:0 (fun _ -> ()) with
      | Ok _ -> Alcotest.fail "missing file must not replay"
      | Error (Errors.Io _) -> ()
      | Error e -> Alcotest.failf "expected Io, got %s" (Errors.to_string e))

(* --- checkpoint atomicity under faults -------------------------------- *)

let make_db tuples =
  let db = Db.create () in
  let r = Db.declare db "R" (S.of_list [ "A"; "B" ]) in
  List.iter (fun (t, p) -> Rel.add_entry r (tup t) p) tuples;
  db

let ckpt_fsync_fail_installs_nothing () =
  with_tmp ".ckpt" (fun path ->
      Fp.enable ();
      Fp.arm "ckpt.fsync" ~times:1 Fp.Fail;
      injected_err "save"
        (Checkpoint.Z.save path ~db:(make_db [ ([ 1; 2 ], 1) ]) ~records:0 ~wal_offset:0);
      (* All-or-nothing: no checkpoint appeared, no temp file leaked. *)
      Alcotest.(check bool) "no checkpoint installed" false (Sys.file_exists path);
      Alcotest.(check bool) "temp file cleaned up" false (Sys.file_exists (path ^ ".tmp")))

let ckpt_rename_fail_keeps_previous () =
  with_tmp ".ckpt" (fun path ->
      let v1 = make_db [ ([ 1; 2 ], 1) ] in
      ok (Checkpoint.Z.save path ~db:v1 ~records:3 ~wal_offset:17);
      Fp.enable ();
      Fp.arm "ckpt.rename" ~times:1 Fp.Fail;
      injected_err "second save"
        (Checkpoint.Z.save path ~db:(make_db [ ([ 3; 4 ], 2) ]) ~records:9 ~wal_offset:99);
      Fp.reset ();
      (* The previous checkpoint is untouched and still loads. *)
      let db, cursor = ok (Checkpoint.Z.load path) in
      Alcotest.(check int) "previous records" 3 cursor.Checkpoint.records;
      Alcotest.(check int) "previous offset" 17 cursor.Checkpoint.wal_offset;
      Alcotest.(check bool) "previous contents" true (Rel.equal (Db.find db "R") (Db.find v1 "R"));
      Alcotest.(check bool) "temp file cleaned up" false (Sys.file_exists (path ^ ".tmp")))

let ckpt_load_rejects_corruption () =
  with_tmp ".ckpt" (fun path ->
      let oc = open_out_bin path in
      output_string oc "not a checkpoint at all......";
      close_out oc;
      (match Checkpoint.Z.load path with
      | Ok _ -> Alcotest.fail "foreign file must not load"
      | Error (Errors.Bad_magic _) -> ()
      | Error e -> Alcotest.failf "expected Bad_magic, got %s" (Errors.to_string e));
      (* A real checkpoint with one flipped body bit fails its checksum. *)
      ok (Checkpoint.Z.save path ~db:(make_db [ ([ 1; 2 ], 1) ]) ~records:0 ~wal_offset:0);
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string contents in
      let i = Bytes.length b - 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      match Checkpoint.Z.load path with
      | Ok _ -> Alcotest.fail "corrupt checkpoint must not load"
      | Error (Errors.Corrupt _) -> ()
      | Error e -> Alcotest.failf "expected Corrupt, got %s" (Errors.to_string e))

(* --- recovery over a corrupt record the checkpoint covers ------------- *)

(* Six synced records, record 2 bit-flipped by the injected write, a
   checkpoint after record 4. Recovery replays from the checkpoint's
   byte offset, so the corrupt record below it neither ends the suffix
   replay nor gets the log truncated under the checkpoint. *)
let recover_over_covered_corruption () =
  with_tmp ".wal" (fun wal_path ->
      with_tmp ".ckpt" (fun ckpt_path ->
          Fp.enable ();
          (* Hit 1 writes the header. *)
          Fp.arm "wal.write" ~after:2 ~times:1 (Fp.Bit_flip 12);
          let w = ok (Wal.Z.open_log wal_path) in
          let us = updates 6 in
          List.iteri
            (fun i u ->
              ignore (ok (Wal.Z.append w u));
              if i = 3 then begin
                ok (Wal.Z.sync w);
                let db = make_db (List.init 4 (fun k -> ([ k; k + 1 ], 1))) in
                ok (Checkpoint.Z.save ckpt_path ~db ~records:4 ~wal_offset:(Wal.Z.offset w))
              end)
            us;
          ok (Wal.Z.sync w);
          let len = Wal.Z.offset w in
          Wal.Z.close w;
          Fp.reset ();
          Alcotest.(check int) "the log is corrupt from record 2" 1
            (ok (Wal.Z.record_count wal_path));
          let reg, cursor =
            ok
              (Durable.recover ~wal:wal_path ~ckpt:ckpt_path ~fresh:Db.create
                 Registry.create)
          in
          Alcotest.(check int) "checkpointed + replayed records" 6 cursor.Checkpoint.records;
          Alcotest.(check int) "replay reached the end" len cursor.Checkpoint.wal_offset;
          Alcotest.(check bool) "every update recovered" true
            (Rel.equal (Db.find (Registry.db reg) "R")
               (Db.find (make_db (List.init 6 (fun k -> ([ k; k + 1 ], 1)))) "R"));
          let w = ok (Wal.Z.open_log ~from:cursor.Checkpoint.wal_offset wal_path) in
          Alcotest.(check int) "nothing below the cursor was cut" len (Wal.Z.offset w);
          Wal.Z.close w;
          match Wal.Z.open_log ~from:(len + 1) wal_path with
          | Ok _ -> Alcotest.fail "a log shorter than its cursor must not open"
          | Error (Errors.Corrupt _) -> ()
          | Error e -> Alcotest.failf "expected Corrupt, got %s" (Errors.to_string e)))

let () =
  Alcotest.run ~and_exit:false "fault"
    [
      ( "failpoint",
        [
          Alcotest.test_case "trigger window" `Quick (faulty failpoint_window);
          Alcotest.test_case "disabled is inert" `Quick (faulty failpoint_disabled_is_inert);
          Alcotest.test_case "seeded replay" `Quick (faulty failpoint_seeded_replay);
        ] );
      ( "io",
        [
          Alcotest.test_case "short write leaves prefix" `Quick (faulty io_short_write_prefix);
          Alcotest.test_case "failed write leaves nothing" `Quick
            (faulty io_fail_writes_nothing);
        ] );
      ( "wal",
        [
          Alcotest.test_case "fsync fail is retryable" `Quick
            (faulty wal_fsync_fail_is_retryable);
          Alcotest.test_case "crash drops unsynced" `Quick (faulty wal_crash_drops_unsynced);
          Alcotest.test_case "decode fault ends replay" `Quick
            (faulty wal_decode_fault_ends_replay);
          Alcotest.test_case "foreign file rejected" `Quick
            (faulty wal_foreign_file_is_bad_magic);
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "fsync fail installs nothing" `Quick
            (faulty ckpt_fsync_fail_installs_nothing);
          Alcotest.test_case "rename fail keeps previous" `Quick
            (faulty ckpt_rename_fail_keeps_previous);
          Alcotest.test_case "load rejects corruption" `Quick
            (faulty ckpt_load_rejects_corruption);
          Alcotest.test_case "recovery over a covered corrupt record" `Quick
            (faulty recover_over_covered_corruption);
        ] );
    ]
