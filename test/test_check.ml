(* The differential fuzzing harness tested on itself: generator
   validity, ddmin minimality, cross-engine agreement over fresh seeds,
   the injected delete-dropping bug caught + shrunk + filed, and the
   codec round-trip properties on the adversarial distributions. *)

module Ck = Ivm_check
module Seed = Ck.Seed
module Case = Ck.Case
module Gen = Ck.Gen
module Value = Ivm_data.Value
module Tuple = Ivm_data.Tuple
module Update = Ivm_data.Update
module Codec = Ivm_data.Codec
module Db = Ivm_data.Database.Z
module Rel = Ivm_data.Relation.Z
module Vo = Ivm_query.Variable_order
module Fp = Ivm_fault.Failpoint

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let case_of_seed s =
  let rng = Seed.rng s in
  Gen.case ~rng ~seed:s

(* ---- seeding ------------------------------------------------------- *)

let seed_determinism () =
  for s = 1 to 30 do
    checkb "same seed, same case" true (Case.equal (case_of_seed s) (case_of_seed s))
  done;
  checkb "distinct seeds decorrelate" true
    (List.exists
       (fun s -> not (Case.equal (case_of_seed s) (case_of_seed (s + 1))))
       [ 1; 2; 3; 4; 5 ]);
  checkb "case seeds are distinct" true (Seed.case 1 0 <> Seed.case 1 1);
  checkb "case seeds differ across masters" true (Seed.case 1 0 <> Seed.case 2 0)

(* ---- generator validity -------------------------------------------- *)

(* Apply init + whole stream; no base multiplicity may ever go negative
   (the validity invariant View_tree enumeration relies on). *)
let never_negative (c : Case.t) =
  let db = Case.db_of c in
  List.for_all
    (fun rows ->
      List.iter (fun r -> Db.apply db (Case.update_of_row r)) rows;
      List.for_all
        (fun (name, _) ->
          Rel.fold (fun _ p acc -> acc && p >= 0) (Db.find db name) true)
        c.Case.schemas)
    c.Case.stream

let generator_validity () =
  for s = 1 to 60 do
    let c = case_of_seed s in
    checkb "sanitize is idempotent" true (Case.equal c (Case.sanitize c));
    checkb "multiplicities stay non-negative" true (never_negative c);
    checkb "every relation has a schema" true
      (List.for_all
         (fun (r : Case.row) -> List.mem_assoc r.Case.rel c.Case.schemas)
         (c.Case.init @ List.concat c.Case.stream));
    match c.Case.family with
    | Case.Join ->
        let q = Option.get c.Case.query and o = Option.get c.Case.order in
        checkb "order valid" true (Vo.validate q o = Ok ());
        checkb "order free-top" true (Vo.free_top q o)
    | Case.Kclique ->
        checkb "k in range" true (c.Case.k >= 3 && c.Case.k <= 4);
        List.iter
          (fun (r : Case.row) ->
            match r.Case.values with
            | [ Value.Int u; Value.Int v ] ->
                checkb "edge normalized, no loop" true (u < v)
            | _ -> Alcotest.fail "non-edge kclique row")
          (List.concat c.Case.stream)
    | Case.Static_dynamic ->
        checkb "static T untouched by the stream" true
          (List.for_all
             (fun (r : Case.row) -> r.Case.rel <> "T")
             (List.concat c.Case.stream))
    | Case.Minmax ->
        checkb "minmax rows are (G, V) on R" true
          (List.for_all
             (fun (r : Case.row) -> r.Case.rel = "R" && List.length r.Case.values = 2)
             (c.Case.init @ List.concat c.Case.stream))
    | Case.Mixed ->
        let module Mx = Ivm_workload.Mixed in
        let tenants = Mx.of_tables c.Case.schemas in
        checkb "at least two tenants" true (List.length tenants >= 2);
        checkb "one economy tenant present" true
          (List.exists (fun (tn : Mx.tenant) -> tn.Mx.kind = Mx.Economy) tenants);
        (* Conservation: economy debits and credits cancel, so applying
           the whole stream leaves each economy view total at its
           opening accounts × initial_balance... unless sanitize dropped
           one leg. Either way totals must never go negative (checked by
           never_negative above); here we pin the zero-sum pairing. *)
        let econ_total rows tn =
          List.fold_left
            (fun acc (r : Case.row) ->
              if List.mem_assoc r.Case.rel tn.Mx.tables then acc + r.Case.payload else acc)
            0 rows
        in
        List.iter
          (fun (tn : Mx.tenant) ->
            if tn.Mx.kind = Mx.Economy then
              checkb "economy stream sums to zero" true
                (econ_total (List.concat c.Case.stream) tn = 0))
          tenants
    | Case.Triangle -> ()
  done

(* ---- ddmin --------------------------------------------------------- *)

let ddmin_props () =
  let contains x l = List.mem x l in
  checkb "singleton cause" true (Ck.Shrink.ddmin ~failing:(contains 42) [ 1; 42; 7; 9 ] = [ 42 ]);
  (* two interacting causes must both survive *)
  let both l = List.mem 3 l && List.mem 11 l in
  let r = Ck.Shrink.ddmin ~failing:both (List.init 40 (fun i -> i)) in
  checkb "pair kept" true (both r);
  checki "pair is minimal" 2 (List.length r);
  (* 1-minimality on a monotone predicate *)
  let big l = List.length l >= 5 in
  let r = Ck.Shrink.ddmin ~failing:big (List.init 64 (fun i -> i)) in
  checki "monotone floor" 5 (List.length r);
  checkb "empty input" true (Ck.Shrink.ddmin ~failing:(fun _ -> true) ([] : int list) = [])

(* ---- cross-engine agreement ---------------------------------------- *)

let agreement () =
  for s = 101 to 130 do
    let c = case_of_seed s in
    match Ck.Harness.run c with
    | Ck.Harness.Agree -> ()
    | Ck.Harness.Diverged ds ->
        Alcotest.failf "seed %d (%s): %a" s
          (Case.family_name c.Case.family)
          Ck.Harness.pp_divergence (List.hd ds)
  done

(* ---- the injected bug is caught, shrunk and filed ------------------- *)

let with_bug f =
  Fp.enable ~seed:5 ();
  Fp.arm Ck.Engines.bug_failpoint ~times:max_int Fp.Fail;
  Fun.protect ~finally:Fp.reset f

let injected_bug () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ivm-check-corpus-test" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let summary =
        with_bug (fun () -> Ck.Fuzz.run ~runs:40 ~corpus_dir:dir ~seed:77 ())
      in
      checkb "bug caught" true (summary.Ck.Fuzz.failures <> []);
      let f = List.hd summary.Ck.Fuzz.failures in
      checkb "reproducer is small" true (f.Ck.Fuzz.updates <= 5);
      checkb "minimized case still diverges under the bug" true
        (with_bug (fun () -> Ck.Harness.diverges f.Ck.Fuzz.minimized));
      checkb "minimized case agrees without the bug" true
        (not (Ck.Harness.diverges f.Ck.Fuzz.minimized));
      (* the filed reproducer round-trips and replays *)
      let file = Option.get f.Ck.Fuzz.corpus_file in
      (match Ck.Corpus.load file with
      | Error e -> Alcotest.failf "corpus load: %s" e
      | Ok c ->
          checkb "corpus round-trip" true (Case.equal c f.Ck.Fuzz.minimized);
          checkb "loaded case diverges under the bug" true
            (with_bug (fun () -> Ck.Harness.diverges c)));
      checkb "clean run of the same seeds finds nothing" true
        ((Ck.Fuzz.run ~runs:40 ~seed:77 ()).Ck.Fuzz.failures = []))

(* ---- corpus format -------------------------------------------------- *)

let corpus_roundtrip () =
  for s = 1 to 40 do
    let c = Case.sanitize (case_of_seed s) in
    match Ck.Corpus.of_string (Ck.Corpus.to_string c) with
    | Error e -> Alcotest.failf "seed %d: %s" s e
    | Ok c' -> checkb "to_string/of_string" true (Case.equal c c')
  done;
  (match Ck.Corpus.of_string "not a repro" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  (match Ck.Corpus.of_string (Ck.Corpus.magic ^ "\nfamily join\nend\n") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a query family without atoms");
  checks "magic" "ivm-repro v1" Ck.Corpus.magic

(* ---- codec round-trips on the adversarial distributions ------------- *)

let qgen g = QCheck.make ~print:(fun _ -> "<opaque>") g

let value_roundtrip =
  QCheck.Test.make ~count:500 ~name:"codec value roundtrip"
    (QCheck.make ~print:Value.to_string Gen.value) (fun v ->
      let b = Buffer.create 16 in
      Codec.add_value b v;
      let pos = ref 0 in
      let v' = Codec.value (Buffer.contents b) pos in
      Value.equal v v' && !pos = Buffer.length b)

let tuple_roundtrip =
  QCheck.Test.make ~count:500 ~name:"codec tuple roundtrip" (qgen Gen.tuple) (fun t ->
      let b = Buffer.create 32 in
      Codec.add_tuple b t;
      let pos = ref 0 in
      let t' = Codec.tuple (Buffer.contents b) pos in
      Tuple.equal t t' && !pos = Buffer.length b)

let update_roundtrip =
  QCheck.Test.make ~count:500 ~name:"codec update roundtrip" (qgen Gen.update) (fun u ->
      let b = Buffer.create 48 in
      Codec.add_update b u;
      let pos = ref 0 in
      let u' = Codec.update (Buffer.contents b) pos in
      u'.Update.rel = u.Update.rel
      && Tuple.equal u'.Update.tuple u.Update.tuple
      && u'.Update.payload = u.Update.payload)

let truncation_detected =
  QCheck.Test.make ~count:200 ~name:"codec truncation raises Corrupt" (qgen Gen.tuple)
    (fun t ->
      let b = Buffer.create 32 in
      Codec.add_tuple b t;
      let s = Buffer.contents b in
      let cut = String.sub s 0 (String.length s - 1) in
      match Codec.tuple cut (ref 0) with
      | _ -> false
      | exception Codec.Corrupt _ -> true)

let () =
  Alcotest.run "check"
    [
      ( "seeding",
        [
          Alcotest.test_case "determinism" `Quick seed_determinism;
          Alcotest.test_case "generator validity" `Quick generator_validity;
        ] );
      ("shrink", [ Alcotest.test_case "ddmin" `Quick ddmin_props ]);
      ( "differential",
        [
          Alcotest.test_case "cross-engine agreement" `Slow agreement;
          Alcotest.test_case "injected bug caught and shrunk" `Slow injected_bug;
        ] );
      ("corpus", [ Alcotest.test_case "roundtrip" `Quick corpus_roundtrip ]);
      ( "codec",
        List.map QCheck_alcotest.to_alcotest
          [ value_roundtrip; tuple_roundtrip; update_roundtrip; truncation_detected ] );
    ]
