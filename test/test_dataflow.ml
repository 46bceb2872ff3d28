(* The dataflow operator DAG: per-operator delta rules against
   from-scratch recomputation, the extremum re-scan fallback, window
   watermark retraction, source sharing, and the Maintainable wrap. *)

module D = Ivm_data
module G = Ivm_dataflow.Graph
module M = Ivm_engine.Maintainable
module U = D.Update

let tup ints = D.Tuple.of_ints ints
let up rel ints payload = U.make ~rel ~tuple:(tup ints) ~payload

let canon entries =
  List.sort compare (List.map (fun (tp, p) -> (D.Tuple.to_list tp, p)) entries)

let check_entries what g view expected =
  Alcotest.(check bool)
    what true
    (canon (G.entries g view)
    = canon (List.map (fun (ints, p) -> (tup ints, p)) expected))

(* ---- linear operators ------------------------------------------------ *)

let filter_map_project () =
  let g = G.create () in
  let r = G.source g ~rel:"R" ~schema:[ "a"; "b" ] in
  let even = G.filter g ~label:"b even" (fun tp -> D.Value.to_int (D.Tuple.get tp 1) mod 2 = 0) r in
  G.output g ~name:"even" even;
  G.output g ~name:"firsts" (G.project g ~cols:[ "a" ] r);
  G.output g ~name:"swapped"
    (G.map g ~schema:[ "b"; "a" ]
       (fun tp -> D.Tuple.of_list [ D.Tuple.get tp 1; D.Tuple.get tp 0 ])
       even);
  G.apply g [ up "R" [ 1; 2 ] 1; up "R" [ 1; 3 ] 2; up "R" [ 4; 6 ] 1 ];
  check_entries "filter keeps evens" g "even" [ ([ 1; 2 ], 1); ([ 4; 6 ], 1) ];
  check_entries "projection sums multiplicities" g "firsts" [ ([ 1 ], 3); ([ 4 ], 1) ];
  check_entries "map rewrites tuples" g "swapped" [ ([ 2; 1 ], 1); ([ 6; 4 ], 1) ];
  G.apply g [ up "R" [ 1; 2 ] (-1); up "R" [ 1; 3 ] (-2) ];
  check_entries "deletes retract" g "even" [ ([ 4; 6 ], 1) ];
  check_entries "zero rows elided" g "firsts" [ ([ 4 ], 1) ]

let aggregate_sum () =
  let g = G.create () in
  let r = G.source g ~rel:"R" ~schema:[ "g"; "v" ] in
  G.output g ~name:"sums"
    (G.aggregate g ~lift:(fun tp -> D.Value.to_int (D.Tuple.get tp 1)) ~group:[ "g" ] r);
  G.apply g [ up "R" [ 1; 10 ] 1; up "R" [ 1; 5 ] 2; up "R" [ 2; 7 ] 1 ];
  check_entries "grouped SUM" g "sums" [ ([ 1 ], 20); ([ 2 ], 7) ];
  G.apply g [ up "R" [ 1; 10 ] (-1); up "R" [ 2; 7 ] (-1) ];
  check_entries "SUM after deletes" g "sums" [ ([ 1 ], 10) ]

(* ---- join: live deltas = from-scratch rebuild on random streams ------ *)

let join_random_agrees () =
  let build () =
    let g = G.create () in
    let r = G.source g ~rel:"R" ~schema:[ "a"; "b" ] in
    let s = G.source g ~rel:"S" ~schema:[ "b"; "c" ] in
    G.output g ~name:"q" (G.project g ~cols:[ "a"; "c" ] (G.join g r s));
    g
  in
  let rng = Random.State.make [| 71 |] in
  for _ = 1 to 40 do
    let live = build () in
    let history = ref [] in
    for _ = 1 to 30 do
      let rel = if Random.State.bool rng then "R" else "S" in
      let t = [ Random.State.int rng 3; Random.State.int rng 3 ] in
      let p = if Random.State.int rng 4 = 0 then -1 else 1 in
      (* keep base multiplicities non-negative *)
      let total =
        List.fold_left
          (fun acc (u : int U.t) ->
            if u.U.rel = rel && D.Tuple.to_list u.U.tuple = List.map D.Value.of_int t then
              acc + u.U.payload
            else acc)
          0 !history
      in
      let p = if p < 0 && total <= 0 then 1 else p in
      let u = up rel t p in
      history := u :: !history;
      G.apply live [ u ]
    done;
    let scratch = build () in
    G.apply scratch (List.rev !history);
    Alcotest.(check bool)
      "incremental join = one-batch rebuild" true
      (canon (G.entries live "q") = canon (G.entries scratch "q"));
    Alcotest.(check bool)
      "state fingerprints agree" true
      (G.state_fingerprint live = G.state_fingerprint scratch)
  done

(* ---- distinct -------------------------------------------------------- *)

let distinct_zero_crossings () =
  let g = G.create () in
  let r = G.source g ~rel:"R" ~schema:[ "a" ] in
  G.output g ~name:"d" (G.distinct g r);
  G.apply g [ up "R" [ 1 ] 3; up "R" [ 2 ] 1 ];
  check_entries "present once" g "d" [ ([ 1 ], 1); ([ 2 ], 1) ];
  G.apply g [ up "R" [ 1 ] (-2) ];
  check_entries "still positive: no change" g "d" [ ([ 1 ], 1); ([ 2 ], 1) ];
  G.apply g [ up "R" [ 1 ] (-1); up "R" [ 2 ] (-1) ];
  check_entries "crossed zero: retracted" g "d" []

(* ---- extremum: re-scan fallback and top-k slots ---------------------- *)

let extremum_rescan () =
  let g = G.create () in
  let r = G.source g ~rel:"R" ~schema:[ "g"; "v" ] in
  G.output g ~name:"mn" (G.minimum g ~col:"v" ~group:[ "g" ] r);
  G.output g ~name:"mx" (G.maximum g ~col:"v" ~group:[ "g" ] r);
  G.apply g [ up "R" [ 1; 3 ] 1; up "R" [ 1; 5 ] 1; up "R" [ 1; 7 ] 2 ];
  check_entries "min" g "mn" [ ([ 1; 3 ], 1) ];
  check_entries "max" g "mx" [ ([ 1; 7 ], 1) ];
  let before = G.rescans g in
  (* a higher value arrives: the served min is untouched, no re-scan *)
  G.apply g [ up "R" [ 1; 4 ] 1 ];
  Alcotest.(check int) "insert above min: no re-scan" before (G.rescans g);
  (* delete the served min: the ordered index must be re-consulted *)
  G.apply g [ up "R" [ 1; 3 ] (-1) ];
  check_entries "min re-scanned" g "mn" [ ([ 1; 4 ], 1) ];
  Alcotest.(check bool) "deletion of served min re-scans" true (G.rescans g > before);
  (* the served max has multiplicity 2: deleting one copy keeps it *)
  G.apply g [ up "R" [ 1; 7 ] (-1) ];
  check_entries "max survives partial delete" g "mx" [ ([ 1; 7 ], 1) ];
  G.apply g [ up "R" [ 1; 7 ] (-1) ];
  check_entries "max falls back" g "mx" [ ([ 1; 5 ], 1) ];
  (* empty the group entirely *)
  G.apply g [ up "R" [ 1; 4 ] (-1); up "R" [ 1; 5 ] (-1) ];
  check_entries "empty group emits nothing (min)" g "mn" [];
  check_entries "empty group emits nothing (max)" g "mx" []

let topk_slots () =
  let g = G.create () in
  let r = G.source g ~rel:"R" ~schema:[ "g"; "v" ] in
  G.output g ~name:"top2" (G.extremum g ~k:2 ~dir:G.Desc ~col:"v" ~group:[ "g" ] r);
  G.apply g [ up "R" [ 1; 9 ] 1; up "R" [ 1; 7 ] 3; up "R" [ 1; 5 ] 1 ];
  (* slots: one 9, one of the three 7s *)
  check_entries "largest-2 slots" g "top2" [ ([ 1; 9 ], 1); ([ 1; 7 ], 1) ];
  G.apply g [ up "R" [ 1; 9 ] (-1) ];
  check_entries "evicted head: 7 fills both slots" g "top2" [ ([ 1; 7 ], 2) ];
  G.apply g [ up "R" [ 1; 7 ] (-2) ];
  check_entries "slots refill from below" g "top2" [ ([ 1; 7 ], 1); ([ 1; 5 ], 1) ]

(* ---- windows --------------------------------------------------------- *)

let window_watermark () =
  let g = G.create () in
  let r = G.source g ~rel:"E" ~schema:[ "t"; "g"; "v" ] in
  G.output g ~name:"w"
    (G.window g ~lift:(fun tp -> D.Value.to_int (D.Tuple.get tp 2)) ~time:"t" ~size:10
       ~group:[ "g" ] r);
  G.apply g [ up "E" [ 1; 1; 5 ] 1; up "E" [ 4; 1; 2 ] 1; up "E" [ 12; 1; 9 ] 1 ];
  (* watermark 12 closes pane [0,10) only once it passes end + lateness(0):
     12 >= 10, so the first pane is already retracted *)
  check_entries "closed pane retracted, open pane served" g "w" [ ([ 10; 1 ], 9) ];
  Alcotest.(check int) "one pane retracted" 1 (G.retracted_panes g);
  let drops = G.late_drops g in
  G.apply g [ up "E" [ 3; 1; 100 ] 1 ];
  Alcotest.(check int) "late row dropped" (drops + 1) (G.late_drops g);
  check_entries "late row did not resurrect the pane" g "w" [ ([ 10; 1 ], 9) ];
  (* deletes inside a live pane retract normally *)
  G.apply g [ up "E" [ 12; 1; 9 ] (-1); up "E" [ 15; 1; 4 ] 1 ];
  check_entries "live pane maintained" g "w" [ ([ 10; 1 ], 4) ]

let window_sliding () =
  let g = G.create () in
  let r = G.source g ~rel:"E" ~schema:[ "t"; "v" ] in
  G.output g ~name:"w"
    (G.window g ~slide:5 ~lift:(fun tp -> D.Value.to_int (D.Tuple.get tp 1)) ~time:"t"
       ~size:10 ~group:[] r);
  (* t=7 lands in panes [0,10) and [5,15) *)
  G.apply g [ up "E" [ 7; 3 ] 1 ];
  check_entries "row counted in both overlapping panes" g "w" [ ([ 0 ], 3); ([ 5 ], 3) ];
  G.apply g [ up "E" [ 11; 2 ] 1 ];
  (* watermark 11: pane [0,10) closes; [5,15) and [10,20) stay live *)
  check_entries "slide retains overlapping live panes" g "w" [ ([ 5 ], 5); ([ 10 ], 2) ]

(* Within one batch, lateness is decided against the watermark at its
   start and expiry against its end: a row in a pane the batch itself
   expires neither drops nor lingers, whatever order the batch's rows
   are visited in. *)
let window_epoch_order () =
  for x = 0 to 9 do
    let g = G.create () in
    let r = G.source g ~rel:"E" ~schema:[ "t"; "g" ] in
    G.output g ~name:"w" (G.window g ~time:"t" ~size:10 ~group:[ "g" ] r);
    G.apply g [ up "E" [ x; 1 ] 1; up "E" [ 12; 1 ] 1 ];
    check_entries (Printf.sprintf "x=%d: only the open pane" x) g "w" [ ([ 10; 1 ], 1) ];
    Alcotest.(check int) (Printf.sprintf "x=%d: no late drop" x) 0 (G.late_drops g);
    Alcotest.(check int) (Printf.sprintf "x=%d: pane retracted once" x) 1 (G.retracted_panes g)
  done

(* Any permutation of each batch: equal entries, late drops and
   retracted panes. *)
let window_permutation =
  let row = QCheck.Gen.(triple (int_range 0 40) (int_range 0 2) (oneofl [ 1; 1; 2; -1 ])) in
  let gen =
    QCheck.Gen.(
      triple (int_range 0 3) (oneofl [ 10; 5 ])
        (list_size (int_range 1 5) (list_size (int_range 1 12) row)))
  in
  QCheck.Test.make ~count:300 ~name:"window: batch order does not matter" (QCheck.make gen)
    (fun (lateness, slide, batches) ->
      let run batches =
        let g = G.create () in
        let r = G.source g ~rel:"E" ~schema:[ "t"; "g" ] in
        G.output g ~name:"w" (G.window g ~slide ~lateness ~time:"t" ~size:10 ~group:[ "g" ] r);
        List.iter (fun b -> G.apply g (List.map (fun (t, k, p) -> up "E" [ t; k ] p) b)) batches;
        (canon (G.entries g "w"), G.late_drops g, G.retracted_panes g)
      in
      let rng = Random.State.make [| List.length batches |] in
      let shuffled = List.map (fun b -> QCheck.Gen.shuffle_l b rng) batches in
      run batches = run shuffled && run batches = run (List.map List.rev batches))

(* ---- sharing and introspection --------------------------------------- *)

let shared_sources () =
  let g = G.create () in
  let r1 = G.source g ~rel:"R" ~schema:[ "g"; "v" ] in
  let r2 = G.source g ~rel:"R" ~schema:[ "g"; "v" ] in
  Alcotest.(check bool) "sources hash-consed" true (r1 == r2);
  G.output g ~name:"mn" (G.minimum g ~col:"v" ~group:[ "g" ] r1);
  G.output g ~name:"mx" (G.maximum g ~col:"v" ~group:[ "g" ] r2);
  let nodes = G.node_count g in
  G.apply g [ up "R" [ 1; 4 ] 1; up "R" [ 1; 8 ] 1 ];
  check_entries "min view" g "mn" [ ([ 1; 4 ], 1) ];
  check_entries "max view" g "mx" [ ([ 1; 8 ], 1) ];
  (* 1 shared source + 2 extrema; outputs are registrations, not nodes *)
  Alcotest.(check int) "one physical source feeds both views" 3 nodes;
  Alcotest.(check bool) "describe lists every node" true
    (List.length (G.describe g) = nodes);
  Alcotest.(check (list string)) "relations deduplicated" [ "R" ] (G.relations g)

let maintainable_wrap () =
  let build () =
    let g = G.create () in
    let r = G.source g ~rel:"R" ~schema:[ "g"; "v" ] in
    G.output g ~name:"mn" (G.minimum g ~col:"v" ~group:[ "g" ] r);
    g
  in
  let g = build () in
  let m = M.of_dataflow ~name:"mn" g in
  m.M.apply_batch [ up "R" [ 1; 6 ] 1; up "R" [ 1; 2 ] 1 ];
  m.M.apply_batch [ up "R" [ 1; 2 ] (-1) ];
  Alcotest.(check bool)
    "wrapper serves the view" true
    (canon (m.M.enumerate ()) = [ ([ D.Value.of_int 1; D.Value.of_int 6 ], 1) ]);
  Alcotest.(check int) "output_count" 1 (m.M.output_count ());
  let scratch = build () in
  let m2 = M.of_dataflow ~name:"mn" scratch in
  m2.M.apply_batch [ up "R" [ 1; 6 ] 1 ];
  Alcotest.(check int)
    "fingerprint equals from-scratch recompute after extremum deletion"
    (m2.M.fingerprint ()) (m.M.fingerprint ())

let () =
  Alcotest.run "dataflow"
    [
      ( "linear",
        [
          Alcotest.test_case "filter/map/project" `Quick filter_map_project;
          Alcotest.test_case "grouped SUM" `Quick aggregate_sum;
        ] );
      ("join", [ Alcotest.test_case "random streams = rebuild" `Quick join_random_agrees ]);
      ("distinct", [ Alcotest.test_case "zero crossings" `Quick distinct_zero_crossings ]);
      ( "extremum",
        [
          Alcotest.test_case "re-scan on served-value delete" `Quick extremum_rescan;
          Alcotest.test_case "top-k slots" `Quick topk_slots;
        ] );
      ( "window",
        [
          Alcotest.test_case "watermark retraction + late drops" `Quick window_watermark;
          Alcotest.test_case "sliding panes" `Quick window_sliding;
          Alcotest.test_case "lateness fixed per epoch" `Quick window_epoch_order;
          QCheck_alcotest.to_alcotest window_permutation;
        ] );
      ( "graph",
        [
          Alcotest.test_case "shared sources" `Quick shared_sources;
          Alcotest.test_case "maintainable wrap" `Quick maintainable_wrap;
        ] );
    ]
