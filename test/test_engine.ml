(* Engines: view trees, the four Fig. 4 strategies, the triangle engines
   (Sec. 3), the FD-reduct engine (Ex. 4.12), PK-FK (Ex. 4.13), the
   cascade (Sec. 4.2), insert-only (Sec. 4.6), CQAP runtimes (Ex. 4.6)
   and the static/dynamic engine (Ex. 4.14) — each cross-checked against
   from-scratch recomputation on randomized update streams. *)

module D = Ivm_data
module Q = Ivm_query
module E = Ivm_engine
module Rel = D.Relation.Z
module S = D.Schema
module T = D.Tuple
module U = D.Update
module Cq = Q.Cq
module Vo = Q.Variable_order

let tup = T.of_ints
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Enforce validity (Sec. 2): a delete never drives a base multiplicity
   negative. The paper's maintenance guarantees assume valid update
   sequences — enumeration from a factorized representation relies on
   marginal payloads not cancelling to zero while tuples remain. *)
let validize (ops : (string * int list * int) list) : (string * int list * int) list =
  let live = Hashtbl.create 16 in
  List.filter_map
    (fun (rel, t, p) ->
      let k = (rel, t) in
      let cur = Option.value (Hashtbl.find_opt live k) ~default:0 in
      let p = if p >= 0 then p else -min (-p) cur in
      if p = 0 then None
      else begin
        Hashtbl.replace live k (cur + p);
        Some (rel, t, p)
      end)
    ops

(* Recompute a query output from the tree's base relations. *)
let recompute (tree : E.View_tree.t) (q : Cq.t) =
  E.Eval.aggregate q ~lookup:(fun rel -> E.View_tree.base_view tree rel)

(* --- view trees -------------------------------------------------------- *)

let fig3_query =
  Cq.make ~name:"Q" ~free:[ "Y"; "X"; "Z" ]
    [ Cq.atom "R" [ "Y"; "X" ]; Cq.atom "S" [ "Y"; "Z" ] ]

let empty_db atoms =
  let db = D.Database.Z.create () in
  List.iter (fun (a : Cq.atom) -> ignore (D.Database.Z.declare db a.Cq.rel (S.of_list a.Cq.vars))) atoms;
  db

let fig3_tree () =
  let db = empty_db fig3_query.Cq.atoms in
  let forest = Option.get (Vo.canonical fig3_query) in
  E.View_tree.build fig3_query forest db

let view_tree_fig3 () =
  let tree = fig3_tree () in
  let apply rel l p = E.View_tree.apply_update tree (U.make ~rel ~tuple:(tup l) ~payload:p) in
  apply "R" [ 1; 10 ] 1;
  apply "S" [ 1; 20 ] 1;
  apply "S" [ 1; 21 ] 2;
  apply "R" [ 2; 11 ] 1;
  (* Y=2 has no S partner. *)
  let out = E.View_tree.output_relation tree in
  checki "output size" 2 (Rel.size out);
  checki "payload" 2 (Rel.get out (tup [ 1; 10; 21 ]));
  (* Delete the R tuple: output vanishes. *)
  apply "R" [ 1; 10 ] (-1);
  checki "empty after delete" 0 (Rel.size (E.View_tree.output_relation tree));
  checkb "agrees with recompute" true
    (Rel.equal (E.View_tree.output_relation tree) (recompute tree fig3_query))

let delta_enumeration () =
  (* Footnote 2: delta enumeration returns exactly the output change. *)
  let tree = fig3_tree () in
  let upd rel l p = U.make ~rel ~tuple:(tup l) ~payload:p in
  let d0 = E.View_tree.apply_batch_enumerating tree [ upd "R" [ 1; 10 ] 1 ] in
  checki "no partner yet" 0 (List.length d0);
  let d1 = E.View_tree.apply_batch_enumerating tree [ upd "S" [ 1; 20 ] 1 ] in
  checki "one new output" 1 (List.length d1);
  (match d1 with
  | [ (t, p) ] ->
      checkb "tuple" true (T.equal t (tup [ 1; 10; 20 ]));
      checki "payload" 1 p
  | _ -> Alcotest.fail "unexpected delta");
  let d2 = E.View_tree.apply_batch_enumerating tree [ upd "R" [ 1; 11 ] 2 ] in
  checki "join multiplies" 1 (List.length d2);
  checki "payload 2" 2 (snd (List.hd d2));
  (* A delete produces negative deltas. *)
  let d3 = E.View_tree.apply_batch_enumerating tree [ upd "S" [ 1; 20 ] (-1) ] in
  checki "two outputs disappear" 2 (List.length d3);
  List.iter (fun (_, p) -> checkb "negative" true (p < 0)) d3;
  (* The accumulated deltas equal the final output. *)
  let acc = Rel.create (S.of_list [ "Y"; "X"; "Z" ]) in
  List.iter (fun (t, p) -> Rel.add_entry acc t p) (d0 @ d1 @ d2 @ d3);
  checkb "deltas sum to the output" true (Rel.equal acc (E.View_tree.output_relation tree))

let delta_enumeration_invalid_states () =
  (* Deletes ahead of their inserts (concurrent producers of a
     commuting ring stream) leave base multiplicities negative in
     between, so an aggregate can cancel to zero over live tuples and
     hide outputs no pinned walk covers. The reported deltas must still
     sum to the output. *)
  let tree = fig3_tree () in
  let upd rel l p = U.make ~rel ~tuple:(tup l) ~payload:p in
  let acc = Rel.create (S.of_list [ "Y"; "X"; "Z" ]) in
  List.iter
    (fun batch ->
      List.iter
        (fun (t, p) -> Rel.add_entry acc t p)
        (E.View_tree.apply_batch_enumerating tree batch);
      checkb "deltas sum to the output" true (Rel.equal acc (E.View_tree.output_relation tree)))
    [
      [ upd "R" [ 1; 10 ] 1; upd "S" [ 1; 20 ] 1 ];
      [ upd "S" [ 1; 21 ] (-1); upd "R" [ 1; 11 ] 1 ];
      [ upd "S" [ 1; 21 ] 1 ];
      [ upd "S" [ 1; 22 ] 1; upd "R" [ 1; 12 ] (-1); upd "S" [ 1; 23 ] 1 ];
      [ upd "R" [ 1; 12 ] 1; upd "S" [ 1; 20 ] (-1) ];
    ]

let iter_output_matches_enumerate =
  QCheck.Test.make ~count:60 ~name:"iter_output = enumerate (Seq)"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 40)
           (pair (int_range 0 1) (triple (int_range 0 3) (int_range 0 3) (int_range (-1) 2)))))
    (fun upds ->
      let tree = fig3_tree () in
      let ops =
        validize
          (List.map (fun (r, (x, y, p)) -> ((if r = 0 then "R" else "S"), [ x; y ], p)) upds)
      in
      List.iter
        (fun (rel, t, p) -> E.View_tree.apply_update tree (U.make ~rel ~tuple:(tup t) ~payload:p))
        ops;
      let via_seq = Rel.create (S.of_list [ "Y"; "X"; "Z" ]) in
      Seq.iter (fun (t, p) -> Rel.add_entry via_seq t p) (E.View_tree.enumerate tree);
      Rel.equal via_seq (E.View_tree.output_relation tree))

let view_tree_single_tuple_deltas () =
  (* For q-hierarchical queries the propagated deltas must stay O(1):
     views grow by at most a constant per update. *)
  let tree = fig3_tree () in
  let apply rel l p = E.View_tree.apply_update tree (U.make ~rel ~tuple:(tup l) ~payload:p) in
  for i = 1 to 100 do
    apply "R" [ 1; i ] 1
  done;
  let before = E.View_tree.views_size tree in
  apply "S" [ 1; 7 ] 1;
  let after = E.View_tree.views_size tree in
  (* One S insert changes V_S, V_agg at Z and the root views: <= 4 new
     entries even though it joins with 100 R tuples. *)
  checkb "delta stays constant-size" true (after - before <= 4)

(* Random update streams on a random q-hierarchical-or-not query, view
   tree vs recompute. *)
let view_tree_random =
  let gen =
    QCheck.Gen.(
      let* upds =
        list_size (int_range 1 60)
          (quad (int_range 0 2) (int_range 0 3) (int_range 0 3) (int_range (-2) 2))
      in
      return upds)
  in
  QCheck.Test.make ~count:80
    ~name:"view tree = recompute on random streams (triangle order)"
    (QCheck.make gen) (fun upds ->
      (* The triangle query exercises multi-tuple delta propagation. *)
      let q =
        Cq.make ~name:"tri" ~free:[ "A"; "B" ]
          [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B"; "C" ]; Cq.atom "T" [ "C"; "A" ] ]
      in
      let db = empty_db q.Cq.atoms in
      let tree = E.View_tree.build q [ Vo.chain [ "A"; "B"; "C" ] ] db in
      let ops =
        validize
          (List.map
             (fun (r, x, y, p) ->
               ((match r with 0 -> "R" | 1 -> "S" | _ -> "T"), [ x; y ], p))
             upds)
      in
      List.iter
        (fun (rel, t, p) ->
          E.View_tree.apply_update tree (U.make ~rel ~tuple:(tup t) ~payload:p))
        ops;
      (* Enumeration not available (free vars not connex top for this
         order: A,B free with C bound below B — actually the chain
         A(B(C)) has A,B on top, so it is enumerable). *)
      Rel.equal (E.View_tree.output_relation tree) (recompute tree q))

let strategies_agree =
  QCheck.Test.make ~count:40 ~name:"all four Fig. 4 strategies agree"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 50)
           (pair (int_range 0 1) (triple (int_range 0 3) (int_range 0 3) (int_range (-1) 2)))))
    (fun upds ->
      let q = fig3_query in
      let forest = Option.get (Vo.canonical q) in
      let mk kind = E.Strategy.create kind q forest (empty_db q.Cq.atoms) in
      let engines =
        [
          mk E.Strategy.Eager_fact;
          mk E.Strategy.Eager_list;
          mk E.Strategy.Lazy_fact;
          mk E.Strategy.Lazy_list;
        ]
      in
      let ops =
        validize
          (List.map (fun (r, (x, y, p)) -> ((if r = 0 then "R" else "S"), [ x; y ], p)) upds)
      in
      let step i (rel, t, p) =
        List.iter (fun e -> E.Strategy.apply e (U.make ~rel ~tuple:(tup t) ~payload:p)) engines;
        (* Occasionally enumerate everywhere and compare. *)
        if i mod 7 = 0 then begin
          let outs = List.map E.Strategy.output engines in
          match outs with
          | ref :: rest -> List.iter (fun o -> assert (Rel.equal ref o)) rest
          | [] -> ()
        end
      in
      List.iteri step ops;
      let outs = List.map E.Strategy.output engines in
      match outs with
      | ref :: rest -> List.for_all (Rel.equal ref) rest
      | [] -> true)

(* Every update checked against a fresh build over the current database:
   the output and the total view size (which catches stale
   intermediate entries an output check misses). About a quarter of the
   drawn queries have an atom whose plan iterates a sibling's group. *)
let view_tree_fresh_build =
  QCheck.Test.make ~count:200 ~name:"view tree = fresh build after every update"
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let w = Ivm_workload.Random_queries.executable ~rng ~id:seed in
      let q = w.Ivm_workload.Random_queries.query in
      let db = empty_db q.Cq.atoms in
      let tree = E.View_tree.build q w.Ivm_workload.Random_queries.order db in
      let atoms = Array.of_list q.Cq.atoms in
      let ops =
        validize
          (List.init 40 (fun _ ->
               let a = atoms.(Random.State.int rng (Array.length atoms)) in
               ( a.Cq.rel,
                 List.map (fun _ -> Random.State.int rng 3) a.Cq.vars,
                 Random.State.int rng 5 - 2 )))
      in
      List.for_all
        (fun (rel, t, p) ->
          let u = U.make ~rel ~tuple:(tup t) ~payload:p in
          E.View_tree.apply_update tree u;
          D.Database.Z.apply_batch db [ u ];
          let fresh = E.View_tree.build q w.Ivm_workload.Random_queries.order db in
          Rel.equal (E.View_tree.output_relation tree) (E.View_tree.output_relation fresh)
          && E.View_tree.views_size tree = E.View_tree.views_size fresh)
        ops)

(* The work of one update: +1 on a stored tuple, then its -1 restoring
   the state, halved. *)
let update_work tree rel vs =
  let w0 = E.View_tree.work tree in
  E.View_tree.apply_update tree (U.make ~rel ~tuple:(tup vs) ~payload:1);
  E.View_tree.apply_update tree (U.make ~rel ~tuple:(tup vs) ~payload:(-1));
  (E.View_tree.work tree - w0) / 2

let db_of rels =
  let db = D.Database.Z.create () in
  List.iter
    (fun (name, cols, rows) ->
      let r = D.Database.Z.declare db name (S.of_list cols) in
      List.iter (fun vs -> Rel.add_entry r (tup vs) 1) rows)
    rels;
  db

(* The update-time classes of Sec. 4 in counted index probes and
   iterated entries, at N and 4N: constant for the dynamic relations of
   Ex. 4.14 and for R and S of Ex. 4.12 under its FDs (Thm. 4.11),
   linear for Ex. 4.14's T. *)
let view_tree_work_classes () =
  let ex414 n =
    let module Sd = E.Static_dynamic_engine in
    let tree =
      E.View_tree.build Sd.query Sd.order
        (db_of
           [
             ("R", [ "A"; "D" ], List.init n (fun a -> [ a; a mod 13 ]));
             ("S", [ "A"; "B" ], List.init n (fun a -> [ a; 1 ]));
             ("T", [ "B"; "C" ], [ [ 1; 1 ] ]);
           ])
    in
    (update_work tree "R" [ 0; 0 ], update_work tree "S" [ 0; 1 ], update_work tree "T" [ 1; 1 ])
  in
  let r1, s1, t1 = ex414 1_000 and r4, s4, t4 = ex414 4_000 in
  Printf.printf "Ex. 4.14 work: R %d, S %d, T %d at N and %d at 4N\n" r4 s4 t1 t4;
  checki "Ex. 4.14 R work flat" r1 r4;
  checki "Ex. 4.14 S work flat" s1 s4;
  if t4 < 3 * t1 then Alcotest.failf "Ex. 4.14 T work %d at N, %d at 4N: not linear" t1 t4;
  let ex412 n =
    let q =
      Cq.make ~name:"Q" ~free:[ "Z"; "Y"; "X"; "W" ]
        [ Cq.atom "R" [ "X"; "W" ]; Cq.atom "S" [ "X"; "Y" ]; Cq.atom "T" [ "Y"; "Z" ] ]
    in
    let xs = List.init n (fun i -> i + 1) in
    let db =
      db_of
        [
          ("R", [ "X"; "W" ], List.map (fun x -> [ x; x mod 97 ]) xs);
          ("S", [ "X"; "Y" ], List.map (fun x -> [ x; x + n ]) xs);
          ("T", [ "Y"; "Z" ], List.map (fun x -> [ x + n; x + (2 * n) ]) xs);
        ]
    in
    let fds = Q.Fd.[ make [ "X" ] [ "Y" ]; make [ "Y" ] [ "Z" ] ] in
    let tree =
      match E.Fd_reduct.build fds q db with
      | Ok e -> E.Fd_reduct.tree e
      | Error m -> Alcotest.fail m
    in
    (update_work tree "R" [ 7; 7 ], update_work tree "S" [ 7; 7 + n ])
  in
  let r1, s1 = ex412 1_000 and r4, s4 = ex412 4_000 in
  Printf.printf "Ex. 4.12 work: R %d, S %d\n" r4 s4;
  checki "Ex. 4.12 R work flat" r1 r4;
  checki "Ex. 4.12 S work flat" s1 s4

(* --- triangle engines -------------------------------------------------- *)

let triangle_engines_agree =
  QCheck.Test.make ~count:30 ~name:"triangle engines agree on random insert/delete streams"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 150)
           (quad (int_range 0 2) (int_range 0 6) (int_range 0 6) (int_range (-1) 2))))
    (fun upds ->
      let naive = E.Triangle.Naive.create () in
      let delta = E.Triangle.Delta.create () in
      let one = E.Triangle.One_view.create () in
      List.iter
        (fun (r, a, b, m) ->
          if m <> 0 then begin
            let rel =
              match r with 0 -> E.Triangle.R | 1 -> E.Triangle.S | _ -> E.Triangle.T
            in
            E.Triangle.Naive.update naive rel ~a ~b m;
            E.Triangle.Delta.update delta rel ~a ~b m;
            E.Triangle.One_view.update one rel ~a ~b m
          end)
        upds;
      E.Triangle.Naive.count naive = E.Triangle.Delta.count delta
      && E.Triangle.Delta.count delta = E.Triangle.One_view.count one)

let triangle_fig2 () =
  (* Fig. 2 exactly: count 26, then δR(a2,b1) -> -2 gives 10. *)
  let eng = E.Triangle.Delta.create () in
  E.Triangle.Delta.update eng E.Triangle.R ~a:1 ~b:1 1;
  E.Triangle.Delta.update eng E.Triangle.R ~a:2 ~b:1 3;
  E.Triangle.Delta.update eng E.Triangle.S ~a:1 ~b:1 2;
  E.Triangle.Delta.update eng E.Triangle.S ~a:1 ~b:2 4;
  E.Triangle.Delta.update eng E.Triangle.T ~a:1 ~b:1 1;
  E.Triangle.Delta.update eng E.Triangle.T ~a:2 ~b:2 2;
  checki "Fig. 2 count" 26 (E.Triangle.Delta.count eng);
  E.Triangle.Delta.update eng E.Triangle.R ~a:2 ~b:1 (-2);
  checki "Fig. 2 after delete" 10 (E.Triangle.Delta.count eng)

(* --- FD-reduct engine (Ex. 4.12) --------------------------------------- *)

let fd_engine_unit () =
  let q =
    Cq.make ~name:"Q" ~free:[ "Z"; "Y"; "X"; "W" ]
      [ Cq.atom "R" [ "X"; "W" ]; Cq.atom "S" [ "X"; "Y" ]; Cq.atom "T" [ "Y"; "Z" ] ]
  in
  let fds = [ Q.Fd.make [ "X" ] [ "Y" ]; Q.Fd.make [ "Y" ] [ "Z" ] ] in
  let db = empty_db q.Cq.atoms in
  match E.Fd_reduct.build fds q db with
  | Error e -> Alcotest.fail e
  | Ok eng ->
      let apply rel l p =
        E.Fd_reduct.apply_update eng (U.make ~rel ~tuple:(tup l) ~payload:p)
      in
      (* FD-satisfying data: X -> Y and Y -> Z are functions. *)
      apply "S" [ 1; 10 ] 1;
      apply "S" [ 2; 20 ] 1;
      apply "T" [ 10; 100 ] 1;
      apply "T" [ 20; 200 ] 1;
      apply "R" [ 1; 7 ] 1;
      apply "R" [ 1; 8 ] 1;
      apply "R" [ 2; 9 ] 1;
      let out = E.Fd_reduct.output eng in
      checki "output size" 3 (Rel.size out);
      (* Output schema is (Z,Y,X,W). *)
      checki "tuple payload" 1 (Rel.get out (tup [ 100; 10; 1; 7 ]));
      (* Cross-check against recomputation. *)
      let out2 = recompute (E.Fd_reduct.tree eng) q in
      checkb "matches recompute" true
        (Rel.equal out (Rel.project_onto out2 (S.of_list q.Cq.free)));
      (* Deletes propagate too. *)
      apply "R" [ 1; 7 ] (-1);
      checki "after delete" 2 (Rel.size (E.Fd_reduct.output eng))

(* --- PK-FK engine (Ex. 4.13) ------------------------------------------- *)

let pkfk_unit () =
  let eng = E.Pkfk.create () in
  (* Out-of-order valid batch: M rows before their T and C keys. *)
  E.Pkfk.update_companies eng ~m:1 ~c:10 1;
  E.Pkfk.update_companies eng ~m:2 ~c:10 1;
  checki "count with dangling FKs" 0 (E.Pkfk.count eng);
  E.Pkfk.update_title eng ~m:1 1;
  E.Pkfk.update_title eng ~m:2 1;
  checki "still no company" 0 (E.Pkfk.count eng);
  E.Pkfk.update_names eng ~c:10 1;
  checki "batch committed" 2 (E.Pkfk.count eng);
  checki "matches recompute" (E.Pkfk.recompute eng) (E.Pkfk.count eng);
  (* Valid delete batch, company first (inconsistent intermediate). *)
  E.Pkfk.update_names eng ~c:10 (-1);
  E.Pkfk.update_companies eng ~m:1 ~c:10 (-1);
  E.Pkfk.update_title eng ~m:1 (-1);
  E.Pkfk.update_companies eng ~m:2 ~c:10 (-1);
  E.Pkfk.update_title eng ~m:2 (-1);
  checki "empty after delete batch" 0 (E.Pkfk.count eng);
  checki "recompute agrees" 0 (E.Pkfk.recompute eng)

let pkfk_random =
  QCheck.Test.make ~count:50 ~name:"pkfk = recompute under arbitrary interleavings"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 80)
           (quad (int_range 0 2) (int_range 0 5) (int_range 0 5) (int_range (-1) 1))))
    (fun ops ->
      let eng = E.Pkfk.create () in
      List.iter
        (fun (k, m, c, d) ->
          if d <> 0 then
            match k with
            | 0 -> E.Pkfk.update_title eng ~m d
            | 1 -> E.Pkfk.update_companies eng ~m ~c d
            | _ -> E.Pkfk.update_names eng ~c d)
        ops;
      E.Pkfk.count eng = E.Pkfk.recompute eng)

(* --- cascade (Sec. 4.2) ------------------------------------------------- *)

let cascade_unit () =
  let db = empty_db E.Cascade.q2.Cq.atoms in
  let eng = E.Cascade.create db in
  let apply rel l p = E.Cascade.apply_update eng (U.make ~rel ~tuple:(tup l) ~payload:p) in
  apply "R" [ 1; 2 ] 1;
  apply "S" [ 2; 3 ] 1;
  apply "T" [ 3; 4 ] 1;
  apply "T" [ 3; 5 ] 1;
  (* Q1 before Q2 must be rejected. *)
  (try
     ignore (List.of_seq (E.Cascade.enumerate_q1 eng));
     Alcotest.fail "expected enumerate_q1 to fail while dirty"
   with Invalid_argument _ -> ());
  let q2_out = List.of_seq (E.Cascade.enumerate_q2 eng) in
  checki "Q2 size" 1 (List.length q2_out);
  let q1_out = List.of_seq (E.Cascade.enumerate_q1 eng) in
  checki "Q1 size" 2 (List.length q1_out);
  (* A further R update dirties Q1 again. *)
  apply "R" [ 9; 2 ] 1;
  (try
     ignore (List.of_seq (E.Cascade.enumerate_q1 eng));
     Alcotest.fail "expected dirty rejection"
   with Invalid_argument _ -> ());
  ignore (List.of_seq (E.Cascade.enumerate_q2 eng));
  checki "Q1 after refresh" 4 (List.length (List.of_seq (E.Cascade.enumerate_q1 eng)))

let cascade_random =
  QCheck.Test.make ~count:40 ~name:"cascade Q1 = standalone Q1 on random streams"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 60)
           (quad (int_range 0 2) (int_range 0 4) (int_range 0 4) (int_range (-1) 1))))
    (fun ops ->
      let db = empty_db E.Cascade.q2.Cq.atoms in
      let eng = E.Cascade.create db in
      let base = E.Cascade.Standalone.create () in
      let ops =
        validize
          (List.map
             (fun (r, x, y, p) ->
               ((match r with 0 -> "R" | 1 -> "S" | _ -> "T"), [ x; y ], p))
             ops)
      in
      List.iter
        (fun (rel, t, p) ->
          let u = U.make ~rel ~tuple:(tup t) ~payload:p in
          E.Cascade.apply_update eng u;
          E.Cascade.Standalone.apply_update base u)
        ops;
      ignore (Seq.fold_left (fun n _ -> n + 1) 0 (E.Cascade.enumerate_q2 eng));
      let collect seq =
        let r = Rel.create (S.of_list [ "A"; "B"; "C"; "D" ]) in
        Seq.iter (fun (t, p) -> Rel.add_entry r t p) seq;
        r
      in
      Rel.equal (collect (E.Cascade.enumerate_q1 eng))
        (collect (E.Cascade.Standalone.enumerate base)))

(* --- insert-only (Sec. 4.6) --------------------------------------------- *)

let insert_only_random =
  QCheck.Test.make ~count:40 ~name:"insert-only engine = delta engine on insert streams"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 80)
           (triple (int_range 0 2) (int_range 0 4) (int_range 0 4))))
    (fun ops ->
      let mono = E.Insert_only.create () in
      let base = E.Insert_only.With_deletes.create () in
      List.iter
        (fun (r, x, y) ->
          (match r with
          | 0 -> E.Insert_only.insert_r mono ~a:x ~b:y 1
          | 1 -> E.Insert_only.insert_s mono ~b:x ~c:y 1
          | _ -> E.Insert_only.insert_t mono ~c:x ~d:y 1);
          E.Insert_only.With_deletes.update base
            (match r with 0 -> `R | 1 -> `S | _ -> `T)
            ~x ~y 1)
        ops;
      let collect seq =
        let r = Rel.create (S.of_list [ "A"; "B"; "C"; "D" ]) in
        Seq.iter (fun (t, p) -> Rel.add_entry r t p) seq;
        r
      in
      Rel.equal (collect (E.Insert_only.enumerate mono))
        (collect (E.Insert_only.With_deletes.enumerate base)))

let insert_only_amortized () =
  (* Monotone activation: total work is O(#inserts), even on the
     adversarial order that inserts all R tuples before their S and T
     partners exist. *)
  let eng = E.Insert_only.create () in
  let n = 2000 in
  for i = 1 to n do
    E.Insert_only.insert_r eng ~a:i ~b:1 1
  done;
  for i = 1 to n do
    E.Insert_only.insert_t eng ~c:i ~d:0 1
  done;
  E.Insert_only.insert_s eng ~b:1 ~c:1 1;
  (* Activating the n pending R tuples costs O(n) once — amortized O(1). *)
  checkb "work linear in inserts" true (E.Insert_only.work eng <= 4 * (2 * n + 1));
  checki "output size" n (E.Insert_only.output_size eng)

(* --- CQAP runtimes (Ex. 4.6) -------------------------------------------- *)

let cqap_runtimes () =
  let module TD = E.Cqap_runtime.Triangle_detect in
  let d = TD.create () in
  TD.update d ~x:1 ~y:2 1;
  TD.update d ~x:2 ~y:3 1;
  TD.update d ~x:3 ~y:1 1;
  checkb "triangle detected" true (TD.answer d ~a:1 ~b:2 ~c:3);
  checkb "no triangle" false (TD.answer d ~a:2 ~b:1 ~c:3);
  TD.update d ~x:2 ~y:3 (-1);
  checkb "deleted edge breaks it" false (TD.answer d ~a:1 ~b:2 ~c:3);
  let module ET = E.Cqap_runtime.Edge_triangles in
  let e = ET.create () in
  List.iter (fun (x, y) -> ET.update e ~x ~y 1) [ (1, 2); (2, 3); (3, 1); (2, 4); (4, 1) ];
  let cs = List.sort compare (List.map fst (ET.answer e ~a:1 ~b:2)) in
  Alcotest.(check (list int)) "triangles through edge (1,2)" [ 3; 4 ] cs;
  Alcotest.(check (list int)) "no base edge, no triangles" []
    (List.map fst (ET.answer e ~a:9 ~b:9));
  let module LJ = E.Cqap_runtime.Lookup_join in
  let l = LJ.create () in
  LJ.update_s l ~a:1 ~b:5 1;
  LJ.update_s l ~a:2 ~b:5 1;
  LJ.update_t l ~b:5 2;
  let out = List.sort compare (List.of_seq (LJ.answer l ~b:5)) in
  Alcotest.(check (list (pair int int))) "Q(A|B) answers" [ (1, 2); (2, 2) ] out;
  LJ.update_t l ~b:5 (-2);
  checki "guard empties answers" 0 (List.length (List.of_seq (LJ.answer l ~b:5)))

(* --- static/dynamic engine (Ex. 4.14) ------------------------------------ *)

let static_dynamic_unit () =
  let db = empty_db E.Static_dynamic_engine.query.Cq.atoms in
  (* Preload the static relation T. *)
  let trel = D.Database.Z.find db "T" in
  Rel.add_entry trel (tup [ 1; 100 ]) 1;
  Rel.add_entry trel (tup [ 1; 101 ]) 1;
  Rel.add_entry trel (tup [ 2; 200 ]) 1;
  let eng = E.Static_dynamic_engine.create db in
  let apply rel l p =
    E.Static_dynamic_engine.apply_update eng (U.make ~rel ~tuple:(tup l) ~payload:p)
  in
  apply "R" [ 1; 7 ] 1;
  apply "S" [ 1; 1 ] 1;
  apply "S" [ 1; 2 ] 1;
  let out = E.Static_dynamic_engine.output eng in
  (* (A=1,B=1,C∈{100,101}) and (A=1,B=2,C=200). *)
  checki "output" 3 (Rel.size out);
  (try
     apply "T" [ 3; 300 ] 1;
     Alcotest.fail "static update must be rejected"
   with Invalid_argument _ -> ());
  (* Deleting the R tuple kills everything (Σ_D R(A,D) becomes 0). *)
  apply "R" [ 1; 7 ] (-1);
  checki "empty" 0 (Rel.size (E.Static_dynamic_engine.output eng))

(* --- integration: the Fig. 4 retailer workload ------------------------- *)

let retailer_integration () =
  (* All four strategies over mixed batches (inserts + dimension churn)
     agree with each other and with from-scratch evaluation. *)
  let module R = Ivm_workload.Retailer in
  let spec = { R.locations = 6; zips_per_location = 3; dates = 5; skus = 40; skew = 1.0 } in
  let mk kind =
    let gen = R.create spec in
    let db = R.initial_database gen in
    (gen, E.Strategy.create kind R.query (R.order ()) db)
  in
  let engines =
    List.map mk
      [ E.Strategy.Eager_fact; E.Strategy.Eager_list; E.Strategy.Lazy_fact;
        E.Strategy.Lazy_list ]
  in
  (* Identical streams: same seed per engine. *)
  for _ = 1 to 5 do
    List.iter
      (fun (gen, eng) ->
        List.iter (E.Strategy.apply eng) (R.next_mixed_batch gen ~size:200 ~churn:0.1))
      engines;
    let outs = List.map (fun (_, e) -> E.Strategy.output e) engines in
    match outs with
    | first :: rest ->
        checkb "nonempty output" true (Rel.size first > 0);
        List.iter (fun o -> checkb "strategies agree" true (Rel.equal first o)) rest
    | [] -> ()
  done;
  (* Cross-check against recomputation over one engine's base state. *)
  let _, eager = List.hd engines in
  let expected = recompute (E.Strategy.tree eager) R.query in
  checkb "matches recompute" true (Rel.equal (E.Strategy.output eager) expected)

(* --- k-clique counting (Sec. 3.3 extension) ----------------------------- *)

let kclique_known_graphs () =
  let binom n k =
    let rec go acc i = if i > k then acc else go (acc * (n - i + 1) / i) (i + 1) in
    go 1 1
  in
  List.iter
    (fun k ->
      let g = E.Kclique.create ~k in
      let n = 8 in
      for u = 1 to n do
        for v = u + 1 to n do
          ignore (E.Kclique.insert g u v)
        done
      done;
      checki (Printf.sprintf "K%d has C(%d,%d) %d-cliques" n n k k) (binom n k)
        (E.Kclique.count g);
      checki "recompute agrees" (E.Kclique.recompute g) (E.Kclique.count g);
      (* Remove one edge: cliques through it disappear. *)
      let destroyed = E.Kclique.delete g 1 2 in
      checki "destroyed = C(n-2, k-2)" (binom (n - 2) (k - 2)) destroyed;
      checki "count after delete" (binom n k - binom (n - 2) (k - 2)) (E.Kclique.count g))
    [ 2; 3; 4; 5 ];
  (* A bipartite graph has no triangles. *)
  let g = E.Kclique.create ~k:3 in
  for u = 1 to 5 do
    for v = 6 to 10 do
      ignore (E.Kclique.insert g u v)
    done
  done;
  checki "bipartite: no triangles" 0 (E.Kclique.count g);
  Alcotest.check_raises "duplicate edge" (Invalid_argument "Kclique.insert: duplicate edge")
    (fun () -> ignore (E.Kclique.insert g 1 6));
  Alcotest.check_raises "missing edge" (Invalid_argument "Kclique.delete: no such edge")
    (fun () -> ignore (E.Kclique.delete g 1 2))

let kclique_random =
  QCheck.Test.make ~count:40 ~name:"k-clique count = recompute on random edge streams"
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 3 5)
           (list_size (int_range 1 60) (pair (int_range 1 8) (int_range 1 8)))))
    (fun (k, ops) ->
      let g = E.Kclique.create ~k in
      List.iter
        (fun (u, v) ->
          if u <> v then
            if E.Kclique.has_edge g u v then ignore (E.Kclique.delete g u v)
            else ignore (E.Kclique.insert g u v))
        ops;
      E.Kclique.count g = E.Kclique.recompute g)

let qt t = QCheck_alcotest.to_alcotest ~long:false t

let () =
  Alcotest.run "engine"
    [
      ( "view trees",
        [
          Alcotest.test_case "Fig. 3 maintenance" `Quick view_tree_fig3;
          Alcotest.test_case "constant-size deltas" `Quick view_tree_single_tuple_deltas;
          Alcotest.test_case "delta enumeration (footnote 2)" `Quick delta_enumeration;
          qt iter_output_matches_enumerate;
          qt view_tree_random;
          qt view_tree_fresh_build;
          Alcotest.test_case "work counter: update-time classes" `Quick view_tree_work_classes;
          Alcotest.test_case "negative multiplicities: deltas still exact" `Quick
            delta_enumeration_invalid_states;
        ] );
      ("strategies", [ qt strategies_agree ]);
      ( "triangle (Sec. 3)",
        [ Alcotest.test_case "Fig. 2 worked example" `Quick triangle_fig2;
          qt triangle_engines_agree ] );
      ( "fd-reduct (Ex. 4.12)",
        [ Alcotest.test_case "constant-time maintenance under FDs" `Quick fd_engine_unit ] );
      ( "pk-fk (Ex. 4.13)",
        [ Alcotest.test_case "valid out-of-order batches" `Quick pkfk_unit; qt pkfk_random ]
      );
      ( "cascade (Sec. 4.2)",
        [ Alcotest.test_case "piggybacked maintenance" `Quick cascade_unit;
          qt cascade_random ] );
      ( "insert-only (Sec. 4.6)",
        [ qt insert_only_random;
          Alcotest.test_case "amortized constant activation" `Quick insert_only_amortized ]
      );
      ("cqap (Ex. 4.6)", [ Alcotest.test_case "three runtimes" `Quick cqap_runtimes ]);
      ( "static/dynamic (Ex. 4.14)",
        [ Alcotest.test_case "engine" `Quick static_dynamic_unit ] );
      ( "k-clique (Sec. 3.3)",
        [ Alcotest.test_case "known graphs" `Quick kclique_known_graphs; qt kclique_random ]
      );
      ( "integration (Fig. 4 workload)",
        [ Alcotest.test_case "four strategies on retailer batches" `Quick
            retailer_integration ] );
    ]
