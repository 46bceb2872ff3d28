(* The taxonomy (Sec. 6): verdicts on the paper's example queries. *)

module P = Ivm_query.Taxonomy
module Cq = Ivm_query.Cq
module Fd = Ivm_query.Fd
module Sd = Ivm_query.Static_dynamic
module Vo = Ivm_query.Variable_order

let checkb = Alcotest.(check bool)

let is_best = function P.Best_possible _ -> true | _ -> false
let is_amortized = function P.Amortized_best _ -> true | _ -> false
let is_wco = function P.Worst_case_optimal _ -> true | _ -> false
let is_delta = function P.Delta_only _ -> true | _ -> false

let q_hierarchical_goes_best () =
  let q =
    Cq.make ~name:"Q" ~free:[ "Y"; "X"; "Z" ]
      [ Cq.atom "R" [ "Y"; "X" ]; Cq.atom "S" [ "Y"; "Z" ] ]
  in
  let a = P.analyze q in
  checkb "best possible" true (is_best a.P.verdict);
  checkb "order provided" true
    (match a.P.verdict with P.Best_possible { order; _ } -> order <> None | _ -> false)

let fd_rescue () =
  let q =
    Cq.make ~name:"Q" ~free:[ "Z"; "Y"; "X"; "W" ]
      [ Cq.atom "R" [ "X"; "W" ]; Cq.atom "S" [ "X"; "Y" ]; Cq.atom "T" [ "Y"; "Z" ] ]
  in
  checkb "delta without FDs" true
    (let a = P.analyze q in
     (* acyclic path join: amortized best under insert-only *)
     is_amortized a.P.verdict);
  let fds = [ Fd.make [ "X" ] [ "Y" ]; Fd.make [ "Y" ] [ "Z" ] ] in
  let a = P.analyze ~fds q in
  checkb "best under FDs (Thm. 4.11)" true (is_best a.P.verdict);
  match a.P.verdict with
  | P.Best_possible { order = Some o; _ } ->
      checkb "the Σ-reduct's canonical order" true
        (Some o = Vo.canonical (Fd.sigma_reduct fds q));
      checkb "valid for the query as written" true (Vo.validate q o = Ok ())
  | _ -> Alcotest.fail "expected the Σ-reduct's order"

let triangle_goes_wco () =
  let q =
    Cq.make ~name:"tri" ~free:[]
      [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B"; "C" ]; Cq.atom "T" [ "C"; "A" ] ]
  in
  let a = P.analyze q in
  checkb "worst-case optimal (IVM^eps)" true (is_wco a.P.verdict);
  checkb "not acyclic" false a.P.alpha_acyclic

let cqap_access () =
  let q =
    Cq.make ~name:"detect" ~free:[ "A"; "B"; "C" ]
      [ Cq.atom "E1" [ "A"; "B" ]; Cq.atom "E2" [ "B"; "C" ]; Cq.atom "E3" [ "C"; "A" ] ]
  in
  let a = P.analyze ~access:[ "A"; "B"; "C" ] q in
  checkb "tractable CQAP wins" true (is_best a.P.verdict);
  checkb "flag set" true (a.P.cqap_tractable = Some true)

let static_dynamic_rescue () =
  let q =
    Cq.make ~name:"Q" ~free:[ "A"; "B"; "C" ]
      [ Cq.atom "R" [ "A"; "D" ]; Cq.atom "S" [ "A"; "B" ]; Cq.atom "T" [ "B"; "C" ] ]
  in
  let ad = [ ("R", Sd.Dynamic); ("S", Sd.Dynamic); ("T", Sd.Static) ] in
  let a = P.analyze ~adornment:ad q in
  checkb "sd-tractable wins" true (is_best a.P.verdict);
  match a.P.verdict with
  | P.Best_possible { order = Some o; _ } ->
      checkb "the verdict's order is a witness" true (Sd.is_witness q ad o)
  | _ -> Alcotest.fail "expected a witness order"

let acyclic_amortized () =
  let q =
    Cq.make ~name:"path" ~free:[ "A"; "B"; "C"; "D" ]
      [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B"; "C" ]; Cq.atom "T" [ "C"; "D" ] ]
  in
  checkb "amortized for acyclic" true (is_amortized (P.analyze q).P.verdict)

let cyclic_nonbinary_delta () =
  let q =
    Cq.make ~name:"lw" ~free:[]
      [
        Cq.atom "R" [ "A"; "B"; "C" ];
        Cq.atom "S" [ "B"; "C"; "D" ];
        Cq.atom "T" [ "C"; "D"; "A" ];
        Cq.atom "U" [ "D"; "A"; "B" ];
      ]
  in
  let a = P.analyze q in
  checkb "Loomis-Whitney falls back to delta" true (is_delta a.P.verdict)

let report_prints () =
  let q = Cq.make ~name:"Q" ~free:[ "A" ] [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B" ] ] in
  let a = P.analyze q in
  let s = Format.asprintf "%a" P.pp_analysis a in
  checkb "mentions the query" true (String.length s > 40)

let () =
  Alcotest.run "planner"
    [
      ( "verdicts",
        [
          Alcotest.test_case "q-hierarchical -> best possible" `Quick q_hierarchical_goes_best;
          Alcotest.test_case "FDs rescue Ex. 4.12" `Quick fd_rescue;
          Alcotest.test_case "triangle -> IVM^eps" `Quick triangle_goes_wco;
          Alcotest.test_case "CQAP access patterns" `Quick cqap_access;
          Alcotest.test_case "static relations rescue Ex. 4.14" `Quick static_dynamic_rescue;
          Alcotest.test_case "acyclic -> amortized insert-only" `Quick acyclic_amortized;
          Alcotest.test_case "cyclic non-binary -> delta" `Quick cyclic_nonbinary_delta;
          Alcotest.test_case "report rendering" `Quick report_prints;
        ] );
    ]
