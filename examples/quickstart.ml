(* Quickstart: declare a query, let the planner classify it, maintain it
   under updates with a view tree, and enumerate the output.

   Run with: dune exec examples/quickstart.exe *)

open Core.Ivm

let tup = Tuple.of_ints

let () =
  (* The q-hierarchical query of the paper's Fig. 3:
     Q(Y, X, Z) = R(Y, X) · S(Y, Z). *)
  let q =
    Cq.make ~name:"Q" ~free:[ "Y"; "X"; "Z" ]
      [ Cq.atom "R" [ "Y"; "X" ]; Cq.atom "S" [ "Y"; "Z" ] ]
  in
  Format.printf "Query: %a@.@." Cq.pp q;

  (* 1. Ask the planner what maintenance this query admits. *)
  let analysis = Ivm_query.Taxonomy.analyze q in
  Format.printf "%a@.@." Ivm_query.Taxonomy.pp_analysis analysis;

  (* 2. Build the view tree over an empty database and stream updates. *)
  let db = Database.Z.create () in
  let _ = Database.Z.declare db "R" (Schema.of_list [ "Y"; "X" ]) in
  let _ = Database.Z.declare db "S" (Schema.of_list [ "Y"; "Z" ]) in
  let forest = Option.get (Variable_order.canonical q) in
  Format.printf "View tree order: %a@.@." Variable_order.pp forest;
  let tree = View_tree.build q forest db in

  let insert rel l = View_tree.apply_update tree (Update.insert ~one:1 ~rel (tup l)) in
  let delete rel l =
    View_tree.apply_update tree (Update.make ~rel ~tuple:(tup l) ~payload:(-1))
  in
  insert "R" [ 1; 10 ];
  insert "R" [ 1; 11 ];
  insert "S" [ 1; 20 ];
  insert "S" [ 2; 21 ];
  (* Y = 2 joins nothing yet. *)
  insert "R" [ 2; 12 ];

  (* 3. Enumerate the output with constant delay. *)
  let show () =
    Format.printf "Output:@.";
    Seq.iter
      (fun (t, payload) -> Format.printf "  %a -> %d@." Tuple.pp t payload)
      (View_tree.enumerate tree);
    Format.printf "@."
  in
  show ();

  (* 4. Deletes are just updates with negative payloads. *)
  Format.printf "After deleting R(1, 10):@.";
  delete "R" [ 1; 10 ];
  show ();

  (* 5. The triangle count (Sec. 3), maintained worst-case optimally by
     IVM^eps in O(sqrt N) per update. *)
  let module Tri = Ivm_eps.Triangle_count in
  let module T = Ivm_engine.Triangle in
  let tri = Tri.create ~epsilon:0.5 () in
  Tri.update tri T.R ~a:1 ~b:2 1;
  Tri.update tri T.S ~a:2 ~b:3 1;
  Tri.update tri T.T ~a:3 ~b:1 1;
  Format.printf "Triangle count after three edges: %d@." (Tri.count tri);
  Tri.update tri T.S ~a:2 ~b:3 (-1);
  Format.printf "After deleting S(2,3): %d@." (Tri.count tri)
