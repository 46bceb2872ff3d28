(* The data substrate: values, tuples, schemas, ring relations, group
   indexes, updates — checked against brute-force association-list
   models with qcheck, plus targeted unit tests. *)

module V = Ivm_data.Value
module T = Ivm_data.Tuple
module S = Ivm_data.Schema
module Rel = Ivm_data.Relation.Z
module Db = Ivm_data.Database.Z
module U = Ivm_data.Update
module Flat = Ivm_data.Flat_tbl

let tup = T.of_ints

(* --- unit tests ------------------------------------------------------ *)

let value_unit () =
  Alcotest.(check bool) "int eq" true (V.equal (V.of_int 3) (V.of_int 3));
  Alcotest.(check bool) "mixed neq" false (V.equal (V.of_int 3) (V.of_string "3"));
  Alcotest.(check int) "roundtrip" 42 (V.to_int (V.of_int 42));
  Alcotest.(check string) "pp" "7" (V.to_string (V.of_int 7));
  Alcotest.check_raises "to_int on string" (Invalid_argument "Value.to_int") (fun () ->
      ignore (V.to_int (V.of_string "x")))

let tuple_unit () =
  Alcotest.(check bool) "equal" true (T.equal (tup [ 1; 2 ]) (tup [ 1; 2 ]));
  Alcotest.(check bool) "not equal" false (T.equal (tup [ 1; 2 ]) (tup [ 2; 1 ]));
  Alcotest.(check int) "unit arity" 0 (T.arity T.unit);
  Alcotest.(check bool) "project" true
    (T.equal (T.project (tup [ 5; 6; 7 ]) [| 2; 0 |]) (tup [ 7; 5 ]));
  Alcotest.(check bool) "append" true
    (T.equal (T.append (tup [ 1 ]) (tup [ 2; 3 ])) (tup [ 1; 2; 3 ]));
  Alcotest.(check int) "compare by prefix" (-1)
    (compare (T.compare (tup [ 1; 2 ]) (tup [ 1; 3 ])) 0)

(* [compare] runs in every snapshot sort and [equal] in every hash
   probe: neither may allocate (e.g. a closure per call). *)
let tuple_no_alloc () =
  let a = tup [ 1; 2; 3 ] and b = tup [ 1; 2; 4 ] and a' = tup [ 1; 2; 3 ] in
  let words f x y =
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      ignore (Sys.opaque_identity (f x y))
    done;
    Gc.minor_words () -. w0
  in
  let floor = words (fun _ _ -> 0) a b in
  Alcotest.(check (float 0.)) "compare: 0 words" floor (words T.compare a b);
  Alcotest.(check (float 0.)) "equal: 0 words" floor (words T.equal a a')

let schema_unit () =
  let s = S.of_list [ "A"; "B"; "C" ] in
  Alcotest.(check int) "arity" 3 (S.arity s);
  Alcotest.(check int) "position" 1 (S.position s "B");
  Alcotest.(check bool) "mem" true (S.mem "C" s);
  Alcotest.(check (list string)) "union keeps order" [ "A"; "B"; "C"; "D" ]
    (S.to_list (S.union s (S.of_list [ "B"; "D" ])));
  Alcotest.(check (list string)) "inter" [ "B" ] (S.to_list (S.inter s (S.of_list [ "D"; "B" ])));
  Alcotest.(check (list string)) "diff" [ "A"; "C" ] (S.to_list (S.diff s (S.of_list [ "B" ])));
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Schema.of_list: duplicate variable A") (fun () ->
      ignore (S.of_list [ "A"; "A" ]))

let relation_unit () =
  let r = Rel.create (S.of_list [ "A"; "B" ]) in
  Rel.add_entry r (tup [ 1; 2 ]) 3;
  Rel.add_entry r (tup [ 1; 2 ]) (-3);
  Alcotest.(check int) "zero elision" 0 (Rel.size r);
  Rel.add_entry r (tup [ 1; 2 ]) 2;
  Rel.add_entry r (tup [ 4; 5 ]) 1;
  Alcotest.(check int) "size" 2 (Rel.size r);
  Alcotest.(check int) "get" 2 (Rel.get r (tup [ 1; 2 ]));
  Alcotest.(check int) "get absent" 0 (Rel.get r (tup [ 9; 9 ]))

let join_unit () =
  (* Fig. 2: the triangle query over the example database. *)
  let r = Rel.of_list (S.of_list [ "A"; "B" ]) [ (tup [ 1; 1 ], 1); (tup [ 2; 1 ], 3) ] in
  let s = Rel.of_list (S.of_list [ "B"; "C" ]) [ (tup [ 1; 1 ], 2); (tup [ 1; 2 ], 4) ] in
  let t = Rel.of_list (S.of_list [ "C"; "A" ]) [ (tup [ 1; 1 ], 1); (tup [ 2; 2 ], 2) ] in
  let rs = Rel.join r s in
  Alcotest.(check (list string)) "join schema" [ "A"; "B"; "C" ] (S.to_list (Rel.schema rs));
  Alcotest.(check int) "join size" 4 (Rel.size rs);
  let rst = Rel.join rs t in
  (* Join output of Fig. 2: (a1,b1,c1) -> 2, (a2,b1,c2) -> 24. *)
  Alcotest.(check int) "rst size" 2 (Rel.size rst);
  Alcotest.(check int) "a1b1c1" 2 (Rel.get rst (tup [ 1; 1; 1 ]));
  Alcotest.(check int) "a2b1c2" 24 (Rel.get rst (tup [ 2; 1; 2 ]));
  let q = Rel.aggregate (Rel.aggregate (Rel.aggregate rst "A") "B") "C" in
  Alcotest.(check int) "triangle count Fig.2" 26 (Rel.scalar q)

let aggregate_lift_unit () =
  let r = Rel.of_list (S.of_list [ "A"; "B" ]) [ (tup [ 1; 10 ], 2); (tup [ 1; 20 ], 1) ] in
  (* Lift B-values into the ring: SUM(B) with multiplicities. *)
  let s = Rel.aggregate ~lift:V.to_int r "B" in
  Alcotest.(check int) "sum with lifting" ((2 * 10) + 20) (Rel.get s (tup [ 1 ]))

let index_unit () =
  let r = Rel.create (S.of_list [ "A"; "B" ]) in
  let ix = Rel.Index.create ~rel_schema:(S.of_list [ "A"; "B" ]) ~key:(S.of_list [ "A" ]) in
  let upd t p =
    Rel.add_entry r t p;
    Rel.Index.update ix t p
  in
  upd (tup [ 1; 10 ]) 1;
  upd (tup [ 1; 11 ]) 2;
  upd (tup [ 2; 12 ]) 1;
  Alcotest.(check int) "group size" 2 (Rel.Index.group_size ix (tup [ 1 ]));
  upd (tup [ 1; 11 ]) (-2);
  Alcotest.(check int) "group shrinks on delete" 1 (Rel.Index.group_size ix (tup [ 1 ]));
  upd (tup [ 2; 12 ]) (-1);
  Alcotest.(check bool) "empty group removed" false (Rel.Index.mem_key ix (tup [ 2 ]));
  Alcotest.(check int) "group count" 1 (Rel.Index.group_count ix)

let scratch_store_rejected () =
  (* The scratch footgun (tuple.mli): a mutable probe buffer stored as
     a key would keep mutating under its stale inline hash and corrupt
     the table — the storage layer must refuse it at every entry. *)
  let k = T.scratch 2 in
  T.set k 0 (V.of_int 1);
  T.set k 1 (V.of_int 2);
  Alcotest.(check bool) "is_scratch" true (T.is_scratch k);
  Alcotest.(check bool) "fresh tuples are not scratch" false (T.is_scratch (tup [ 1; 2 ]));
  let tbl = Flat.create ~size:8 0 in
  Alcotest.check_raises "Flat_tbl.set rejects scratch"
    (Invalid_argument "Flat_tbl.set: scratch tuples must not be stored as table keys")
    (fun () -> Flat.set tbl k 7);
  let r = Rel.create (S.of_list [ "A"; "B" ]) in
  Alcotest.check_raises "Relation.add_entry rejects scratch"
    (Invalid_argument "Flat_tbl.set: scratch tuples must not be stored as table keys")
    (fun () -> Rel.add_entry r k 1);
  (* Probing with a scratch buffer is the whole point — always fine. *)
  Rel.add_entry r (tup [ 1; 2 ]) 5;
  Alcotest.(check int) "scratch probe reads" 5 (Rel.get r k);
  Alcotest.(check bool) "scratch mem reads" true (Rel.mem r k);
  (* project returns a fresh immutable tuple, safe to store. *)
  let proj = T.project k [| 0; 1 |] in
  Alcotest.(check bool) "projection of scratch is storable" false (T.is_scratch proj);
  Flat.set tbl proj 7;
  Alcotest.(check int) "stored projection" 7 (Flat.find_default tbl (tup [ 1; 2 ]) 0)

let equal_asymmetric_sizes () =
  (* Regression: [equal] scans only [a]'s support, so without the size
     guard a strict subset with matching payloads would pass. *)
  let s = S.of_list [ "A"; "B" ] in
  let small = Rel.of_list s [ (tup [ 1; 2 ], 3) ] in
  let big = Rel.of_list s [ (tup [ 1; 2 ], 3); (tup [ 4; 5 ], 1) ] in
  Alcotest.(check bool) "subset is not equal" false (Rel.equal small big);
  Alcotest.(check bool) "superset is not equal" false (Rel.equal big small);
  Alcotest.(check bool) "reflexive" true (Rel.equal big (Rel.copy big))

let flat_tbl_resize_churn () =
  (* March a table through several resize boundaries (initial capacity
     8, grow at 7/8 load), then delete most of it and reuse — the
     backward-shift path must leave every survivor reachable. *)
  let tbl = Flat.create ~size:0 (-1) in
  for i = 0 to 199 do
    Flat.set tbl (tup [ i; i * 7 ]) i
  done;
  Alcotest.(check int) "all inserted" 200 (Flat.length tbl);
  for i = 0 to 199 do
    if i mod 2 = 0 then Flat.remove tbl (tup [ i; i * 7 ])
  done;
  Alcotest.(check int) "half deleted" 100 (Flat.length tbl);
  for i = 0 to 199 do
    let expect = if i mod 2 = 0 then -1 else i in
    Alcotest.(check int)
      (Printf.sprintf "survivor %d" i)
      expect
      (Flat.find_default tbl (tup [ i; i * 7 ]) (-1))
  done;
  Flat.clear tbl;
  Alcotest.(check int) "cleared" 0 (Flat.length tbl);
  Flat.set tbl (tup [ 3; 4 ]) 9;
  Alcotest.(check int) "reusable after clear" 9 (Flat.find_default tbl (tup [ 3; 4 ]) (-1))

let database_unit () =
  let db = Db.create () in
  let _ = Db.declare db "R" (S.of_list [ "A" ]) in
  Db.apply db (U.make ~rel:"R" ~tuple:(tup [ 1 ]) ~payload:2);
  Db.apply db (U.make ~rel:"R" ~tuple:(tup [ 2 ]) ~payload:1);
  Alcotest.(check int) "db size" 2 (Db.size db);
  Alcotest.check_raises "unknown relation" (Invalid_argument "Database.find: no relation X")
    (fun () -> ignore (Db.find db "X"))

(* --- property tests --------------------------------------------------- *)

(* Model: a relation is an assoc list (tuple-as-int-list -> payload). *)
type model = (int list * int) list

let gen_model : model QCheck.arbitrary =
  QCheck.list_of_size (QCheck.Gen.int_range 0 20)
    (QCheck.pair
       (QCheck.pair (QCheck.int_range 0 4) (QCheck.int_range 0 4))
       (QCheck.int_range (-3) 3))
  |> QCheck.map (List.map (fun ((a, b), p) -> ([ a; b ], p)))

let to_rel schema (m : model) = Rel.of_list schema (List.map (fun (t, p) -> (tup t, p)) m)

let model_get (m : model) t =
  List.fold_left (fun acc (t', p) -> if t' = t then acc + p else acc) 0 m

let pairs l1 l2 = List.concat_map (fun a -> List.map (fun b -> (a, b)) l2) l1
let dom = [ 0; 1; 2; 3; 4 ]

let union_matches_model =
  QCheck.Test.make ~name:"union = payload-wise addition" (QCheck.pair gen_model gen_model)
    (fun (m1, m2) ->
      let s = S.of_list [ "A"; "B" ] in
      let u = Rel.union (to_rel s m1) (to_rel s m2) in
      List.for_all
        (fun (a, b) ->
          Rel.get u (tup [ a; b ]) = model_get m1 [ a; b ] + model_get m2 [ a; b ])
        (pairs dom dom))

let join_matches_model =
  QCheck.Test.make ~name:"join = pointwise product over union schema"
    (QCheck.pair gen_model gen_model) (fun (m1, m2) ->
      let r = to_rel (S.of_list [ "A"; "B" ]) m1 in
      let s = to_rel (S.of_list [ "B"; "C" ]) m2 in
      let j = Rel.join r s in
      List.for_all
        (fun ((a, b), c) ->
          Rel.get j (tup [ a; b; c ]) = model_get m1 [ a; b ] * model_get m2 [ b; c ])
        (pairs (pairs dom dom) dom))

let aggregate_matches_model =
  QCheck.Test.make ~name:"aggregate marginalizes" gen_model (fun m ->
      let r = to_rel (S.of_list [ "A"; "B" ]) m in
      let agg = Rel.aggregate r "B" in
      List.for_all
        (fun a ->
          Rel.get agg (tup [ a ])
          = List.fold_left (fun acc b -> acc + model_get m [ a; b ]) 0 dom)
        dom)

let project_is_iterated_aggregate =
  QCheck.Test.make ~name:"project_onto = iterated aggregation" gen_model (fun m ->
      let r = to_rel (S.of_list [ "A"; "B" ]) m in
      Rel.equal (Rel.project_onto r (S.of_list [ "A" ])) (Rel.aggregate r "B"))

let join_commutes =
  QCheck.Test.make ~name:"join commutative up to reordering"
    (QCheck.pair gen_model gen_model) (fun (m1, m2) ->
      let r = to_rel (S.of_list [ "A"; "B" ]) m1 in
      let s = to_rel (S.of_list [ "B"; "C" ]) m2 in
      let j1 = Rel.join r s in
      let j2 = Rel.project_onto (Rel.join s r) (S.of_list [ "A"; "B"; "C" ]) in
      Rel.equal j1 j2)

let batch_order_irrelevant =
  (* The paper's Sec. 2 optimization claim: update batches commute. *)
  QCheck.Test.make ~name:"update batches commute" (QCheck.pair gen_model QCheck.int)
    (fun (m, seed) ->
      let s = S.of_list [ "A"; "B" ] in
      let batch = List.map (fun (t, p) -> U.make ~rel:"R" ~tuple:(tup t) ~payload:p) m in
      let rng = Random.State.make [| seed |] in
      let shuffled = U.shuffle ~rng batch in
      let run b =
        let db = Db.create () in
        let _ = Db.declare db "R" s in
        Db.apply_batch db b;
        Db.find db "R"
      in
      Rel.equal (run batch) (run shuffled))

let index_consistent_with_relation =
  QCheck.Test.make ~name:"index stays consistent under update streams"
    (QCheck.pair gen_model gen_model) (fun (m1, m2) ->
      let s = S.of_list [ "A"; "B" ] in
      let r = Rel.create s in
      let ix = Rel.Index.create ~rel_schema:s ~key:(S.of_list [ "A" ]) in
      List.iter
        (fun (t, p) ->
          Rel.add_entry r (tup t) p;
          Rel.Index.update ix (tup t) p)
        (m1 @ m2);
      (* Every group reconstructs the relation restricted to the key. *)
      List.for_all
        (fun a ->
          let via_index = Rel.Index.fold_group ix (tup [ a ]) (fun _ p acc -> acc + p) 0 in
          let direct =
            Rel.fold (fun t p acc -> if V.to_int (T.get t 0) = a then acc + p else acc) r 0
          in
          via_index = direct
          && Rel.Index.group_size ix (tup [ a ])
             = Rel.fold (fun t _ acc -> if V.to_int (T.get t 0) = a then acc + 1 else acc) r 0)
        dom)

(* --- Flat_tbl vs stdlib Hashtbl oracle ------------------------------- *)

(* Drive the open-addressing table and a stdlib [Hashtbl.Make] oracle
   through the same operation sequence, then demand full agreement
   through every read path. The key space is small so sequences revisit
   keys (overwrites, delete/re-insert) and long enough to cross the
   8 → 16 → 32 → 64 resize boundaries. *)
let agree flat oracle =
  Flat.length flat = T.Tbl.length oracle
  && T.Tbl.fold
       (fun k v ok ->
         ok && Flat.find_default flat k min_int = v
         && Flat.mem flat k)
       oracle true
  && Flat.fold (fun k v ok -> ok && T.Tbl.find_opt oracle k = Some v) flat true
  && List.length (List.of_seq (Flat.to_seq flat)) = Flat.length flat

let apply_op flat oracle (a, b, sel) ~remove_bias =
  let k = tup [ a; b ] in
  if sel < remove_bias then begin
    Flat.remove flat k;
    T.Tbl.remove oracle k
  end
  else begin
    Flat.set flat k sel;
    T.Tbl.replace oracle k sel
  end

let gen_ops =
  QCheck.list_of_size (QCheck.Gen.int_range 0 400)
    (QCheck.triple (QCheck.int_range 0 5) (QCheck.int_range 0 5) (QCheck.int_range 0 9))

let lockstep_of ~name ~remove_bias =
  QCheck.Test.make ~name gen_ops (fun ops ->
      let flat = Flat.create ~size:0 min_int in
      let oracle = T.Tbl.create 16 in
      List.iter (fun op -> apply_op flat oracle op ~remove_bias) ops;
      agree flat oracle)

let flat_lockstep = lockstep_of ~name:"Flat_tbl lockstep with Hashtbl oracle" ~remove_bias:3

let flat_lockstep_churn =
  (* Deletion-heavy mix: backward-shift deletion dominates, so chains
     are repeatedly compacted while inserts re-displace them. *)
  lockstep_of ~name:"Flat_tbl lockstep under deletion churn" ~remove_bias:6

let flat_copy_independent =
  QCheck.Test.make ~name:"Flat_tbl.copy is a snapshot" gen_ops (fun ops ->
      let flat = Flat.create ~size:0 min_int in
      let oracle = T.Tbl.create 16 in
      let n = List.length ops / 2 in
      List.iteri (fun i op -> if i < n then apply_op flat oracle op ~remove_bias:3) ops;
      let snap = Flat.copy flat in
      let snap_oracle = T.Tbl.copy oracle in
      List.iteri (fun i op -> if i >= n then apply_op flat oracle op ~remove_bias:3) ops;
      (* The copy must reflect the midpoint exactly, whatever happened
         to the original afterwards — and the original must agree too. *)
      agree snap snap_oracle && agree flat oracle)

let flat_iter_matches_fold =
  QCheck.Test.make ~name:"Flat_tbl iter/fold visit each entry once" gen_ops (fun ops ->
      let flat = Flat.create ~size:0 min_int in
      let oracle = T.Tbl.create 16 in
      List.iter (fun op -> apply_op flat oracle op ~remove_bias:3) ops;
      let sum_iter = ref 0 and count = ref 0 in
      Flat.iter
        (fun _ v ->
          sum_iter := !sum_iter + v;
          incr count)
        flat;
      let sum_fold = Flat.fold (fun _ v acc -> acc + v) flat 0 in
      let sum_oracle = T.Tbl.fold (fun _ v acc -> acc + v) oracle 0 in
      !count = Flat.length flat && !sum_iter = sum_fold && sum_fold = sum_oracle)

(* [merge] through one reused scratch key against a zero-eliding
   oracle: the same contents, no stored scratch key, and the returned
   key equal to the probe and storable. Every 17th op also reserves. *)
let flat_merge_lockstep =
  let ops =
    QCheck.list_of_size (QCheck.Gen.int_range 0 400)
      (QCheck.triple (QCheck.int_range 0 5) (QCheck.int_range 0 5) (QCheck.int_range (-2) 2))
  in
  QCheck.Test.make ~name:"Flat_tbl.merge lockstep with a zero-eliding oracle" ops (fun ops ->
      let flat = Flat.create ~size:0 0 in
      let oracle = T.Tbl.create 16 in
      let k = T.scratch 2 in
      let returned_ok = ref true in
      List.iteri
        (fun i (a, b, d) ->
          if i mod 17 = 0 then Flat.reserve flat (i mod 5);
          T.set k 0 (V.of_int a);
          T.set k 1 (V.of_int b);
          let stored = Flat.merge flat k d ~add:( + ) ~is_zero:(fun x -> x = 0) in
          if d <> 0 then returned_ok := !returned_ok && T.equal stored k && not (T.is_scratch stored);
          let key = tup [ a; b ] in
          let s = Option.value (T.Tbl.find_opt oracle key) ~default:0 + d in
          if s = 0 then T.Tbl.remove oracle key else T.Tbl.replace oracle key s)
        ops;
      !returned_ok
      && Flat.fold (fun key _ ok -> ok && not (T.is_scratch key)) flat true
      && agree flat oracle)

let qt t = QCheck_alcotest.to_alcotest ~long:false t

let () =
  Alcotest.run "data"
    [
      ( "units",
        [
          Alcotest.test_case "values" `Quick value_unit;
          Alcotest.test_case "tuples" `Quick tuple_unit;
          Alcotest.test_case "tuple compare and equal allocate nothing" `Quick tuple_no_alloc;
          Alcotest.test_case "schemas" `Quick schema_unit;
          Alcotest.test_case "relations" `Quick relation_unit;
          Alcotest.test_case "join (Fig. 2)" `Quick join_unit;
          Alcotest.test_case "aggregation with lifting" `Quick aggregate_lift_unit;
          Alcotest.test_case "group index" `Quick index_unit;
          Alcotest.test_case "database" `Quick database_unit;
          Alcotest.test_case "scratch keys rejected by storage" `Quick scratch_store_rejected;
          Alcotest.test_case "equal with asymmetric sizes" `Quick equal_asymmetric_sizes;
          Alcotest.test_case "flat table resize and churn" `Quick flat_tbl_resize_churn;
        ] );
      ( "storage properties",
        [
          qt flat_lockstep;
          qt flat_lockstep_churn;
          qt flat_copy_independent;
          qt flat_iter_matches_fold;
          qt flat_merge_lockstep;
        ] );
      ( "properties",
        [
          qt union_matches_model;
          qt join_matches_model;
          qt aggregate_matches_model;
          qt project_is_iterated_aggregate;
          qt join_commutes;
          qt batch_order_irrelevant;
          qt index_consistent_with_relation;
        ] );
    ]
