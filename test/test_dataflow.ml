(* The dataflow operator DAG: per-operator delta rules against
   from-scratch recomputation, the extrema re-scan fallback, window
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

let filter_project () =
  let g = G.create () in
  let r = G.source g ~rel:"R" ~schema:[ "a"; "b" ] in
  let even = G.filter g ~label:"b even" (fun tp -> D.Value.to_int (D.Tuple.get tp 1) mod 2 = 0) r in
  G.output g ~name:"even" even;
  G.output g ~name:"firsts" (G.project g ~cols:[ "a" ] r);
  G.apply g [ up "R" [ 1; 2 ] 1; up "R" [ 1; 3 ] 2; up "R" [ 4; 6 ] 1 ];
  check_entries "filter keeps evens" g "even" [ ([ 1; 2 ], 1); ([ 4; 6 ], 1) ];
  check_entries "projection sums multiplicities" g "firsts" [ ([ 1 ], 3); ([ 4 ], 1) ];
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

(* ---- extrema: re-scan fallback, random streams = recompute ----------- *)

let extremum_rescan () =
  let g = G.create () in
  let r = G.source g ~rel:"R" ~schema:[ "g"; "v" ] in
  G.output g ~name:"mm" (G.extrema g ~group:[ "g" ] ~aggs:[ (G.Asc, "v"); (G.Desc, "v") ] r);
  Alcotest.(check (list string))
    "aggregate columns named as SQL names them" [ "g"; "MIN(v)"; "MAX(v)" ]
    (D.Schema.to_list (G.view_schema g "mm"));
  G.apply g [ up "R" [ 1; 3 ] 1; up "R" [ 1; 5 ] 1; up "R" [ 1; 7 ] 2 ];
  check_entries "one (g, min, max) row" g "mm" [ ([ 1; 3; 7 ], 1) ];
  let before = G.rescans g in
  (* a value between the extrema arrives: nothing served left, no re-scan *)
  G.apply g [ up "R" [ 1; 4 ] 1 ];
  Alcotest.(check int) "insert inside the range: no re-scan" before (G.rescans g);
  (* delete the served min: the ordered multiset must be re-consulted *)
  G.apply g [ up "R" [ 1; 3 ] (-1) ];
  check_entries "min re-scanned" g "mm" [ ([ 1; 4; 7 ], 1) ];
  Alcotest.(check bool) "deletion of served min re-scans" true (G.rescans g > before);
  (* the served max has multiplicity 2: deleting one copy keeps it *)
  let before = G.rescans g in
  G.apply g [ up "R" [ 1; 7 ] (-1) ];
  check_entries "max survives partial delete" g "mm" [ ([ 1; 4; 7 ], 1) ];
  Alcotest.(check int) "partial delete: no re-scan" before (G.rescans g);
  G.apply g [ up "R" [ 1; 7 ] (-1) ];
  check_entries "max falls back" g "mm" [ ([ 1; 4; 5 ], 1) ];
  (* empty the group entirely *)
  G.apply g [ up "R" [ 1; 4 ] (-1); up "R" [ 1; 5 ] (-1) ];
  check_entries "empty group emits nothing" g "mm" []

(* Random streams over R(g, v, w) whose deletes (40 % of the updates)
   aim at a row holding a currently served value about 40 % of the
   time: after every batch the live node equals a from-scratch
   recompute of the live multiset, and a cold rebuild from that multiset
   lands on the same operator state. *)
let extrema_random_agrees =
  let agg = QCheck.Gen.(pair (oneofl [ G.Asc; G.Desc ]) (oneofl [ "v"; "w" ])) in
  let gen =
    QCheck.Gen.(
      quad bool (list_size (int_range 1 3) agg) (int_range 0 10_000) (int_range 5 40))
  in
  let print (grouped, aggs, seed, steps) =
    Printf.sprintf "grouped=%b aggs=[%s] seed=%d steps=%d" grouped
      (String.concat ";"
         (List.map (fun (d, c) -> (if d = G.Asc then "MIN " else "MAX ") ^ c) aggs))
      seed steps
  in
  QCheck.Test.make ~count:200 ~name:"extrema: random streams = recompute = cold rebuild"
    (QCheck.make ~print gen) (fun (grouped, aggs, seed, steps) ->
      let aggs =
        List.fold_left (fun acc a -> if List.mem a acc then acc else acc @ [ a ]) [] aggs
      in
      let build () =
        let g = G.create () in
        let r = G.source g ~rel:"R" ~schema:[ "g"; "v"; "w" ] in
        G.output g ~name:"x" (G.extrema g ~group:(if grouped then [ "g" ] else []) ~aggs r);
        g
      in
      let key tp = if grouped then [ List.hd tp ] else [] in
      let value c tp = List.nth tp (if c = "v" then 1 else 2) in
      let best (dir, c) tps =
        List.fold_left (if dir = G.Asc then min else max) (value c (List.hd tps))
          (List.map (value c) tps)
      in
      (* the live base multiset: tuple -> positive count *)
      let live = Hashtbl.create 32 in
      let rows () = List.sort compare (Hashtbl.fold (fun tp _ acc -> tp :: acc) live []) in
      let step rng =
        let tp, p =
          if Hashtbl.length live > 0 && Random.State.int rng 100 < 40 then begin
            let all = rows () in
            let any = List.nth all (Random.State.int rng (List.length all)) in
            if Random.State.int rng 100 < 40 then begin
              (* a row of [any]'s group holding one aggregate's served value *)
              let a = List.nth aggs (Random.State.int rng (List.length aggs)) in
              let group = List.filter (fun tp -> key tp = key any) all in
              (List.find (fun tp -> value (snd a) tp = best a group) group, -1)
            end
            else (any, -1)
          end
          else (List.init 3 (fun _ -> Random.State.int rng 5), 1 + Random.State.int rng 2)
        in
        let c = Option.value (Hashtbl.find_opt live tp) ~default:0 + p in
        if c = 0 then Hashtbl.remove live tp else Hashtbl.replace live tp c;
        up "R" tp p
      in
      let recompute () =
        let groups = Hashtbl.create 8 in
        List.iter
          (fun tp ->
            let k = key tp in
            Hashtbl.replace groups k (tp :: Option.value (Hashtbl.find_opt groups k) ~default:[]))
          (rows ());
        Hashtbl.fold
          (fun k tps acc -> (k @ List.map (fun a -> best a tps) aggs, 1) :: acc)
          groups []
        |> List.map (fun (l, p) -> (List.map D.Value.of_int l, p))
        |> List.sort compare
      in
      let rng = Random.State.make [| seed |] in
      let g = build () in
      List.for_all
        (fun () ->
          G.apply g (List.init (1 + Random.State.int rng 4) (fun _ -> step rng));
          let cold = build () in
          G.apply cold (Hashtbl.fold (fun tp c acc -> up "R" tp c :: acc) live []);
          let expected = recompute () in
          canon (G.entries g "x") = expected
          && canon (G.entries cold "x") = expected
          && G.state_fingerprint g = G.state_fingerprint cold)
        (List.init steps (fun _ -> ())))

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
      pair (int_range 0 3) (list_size (int_range 1 5) (list_size (int_range 1 12) row)))
  in
  QCheck.Test.make ~count:300 ~name:"window: batch order does not matter" (QCheck.make gen)
    (fun (lateness, batches) ->
      let run batches =
        let g = G.create () in
        let r = G.source g ~rel:"E" ~schema:[ "t"; "g" ] in
        G.output g ~name:"w" (G.window g ~lateness ~time:"t" ~size:10 ~group:[ "g" ] r);
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
  G.output g ~name:"mn" (G.extrema g ~group:[ "g" ] ~aggs:[ (G.Asc, "v") ] r1);
  G.output g ~name:"mx" (G.extrema g ~group:[ "g" ] ~aggs:[ (G.Desc, "v") ] r2);
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
    G.output g ~name:"mn" (G.extrema g ~group:[ "g" ] ~aggs:[ (G.Asc, "v") ] r);
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
          Alcotest.test_case "filter/project" `Quick filter_project;
          Alcotest.test_case "grouped SUM" `Quick aggregate_sum;
        ] );
      ("join", [ Alcotest.test_case "random streams = rebuild" `Quick join_random_agrees ]);
      ("distinct", [ Alcotest.test_case "zero crossings" `Quick distinct_zero_crossings ]);
      ( "extremum",
        [
          Alcotest.test_case "re-scan on served-value delete" `Quick extremum_rescan;
          QCheck_alcotest.to_alcotest extrema_random_agrees;
        ] );
      ( "window",
        [
          Alcotest.test_case "watermark retraction + late drops" `Quick window_watermark;
          Alcotest.test_case "lateness fixed per epoch" `Quick window_epoch_order;
          QCheck_alcotest.to_alcotest window_permutation;
        ] );
      ( "graph",
        [
          Alcotest.test_case "shared sources" `Quick shared_sources;
          Alcotest.test_case "maintainable wrap" `Quick maintainable_wrap;
        ] );
    ]
