(* Structural query analysis: every worked example in the paper appears
   here as a test, plus property tests relating the classifiers. *)

module Cq = Ivm_query.Cq
module H = Ivm_query.Hierarchical
module Hg = Ivm_query.Hypergraph
module Fd = Ivm_query.Fd
module Cqap = Ivm_query.Cqap
module Vo = Ivm_query.Variable_order
module Rw = Ivm_query.Rewrite
module Sd = Ivm_query.Static_dynamic

let checkb = Alcotest.(check bool)

(* --- the paper's example queries -------------------------------------- *)

let triangle =
  Cq.make ~name:"Q" ~free:[]
    [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B"; "C" ]; Cq.atom "T" [ "C"; "A" ] ]

(* Ex. 4.3: a simple non-hierarchical query. *)
let ex43_nonhier =
  Cq.make ~name:"Q" ~free:[]
    [ Cq.atom "R" [ "X" ]; Cq.atom "S" [ "X"; "Y" ]; Cq.atom "T" [ "Y" ] ]

(* Ex. 4.3: hierarchical but not q-hierarchical. *)
let ex43_hier_not_q =
  Cq.make ~name:"Q" ~free:[ "X" ] [ Cq.atom "R" [ "X"; "Y" ]; Cq.atom "S" [ "Y" ] ]

(* Fig. 3: the q-hierarchical running example. *)
let fig3 =
  Cq.make ~name:"Q" ~free:[ "Y"; "X"; "Z" ]
    [ Cq.atom "R" [ "Y"; "X" ]; Cq.atom "S" [ "Y"; "Z" ] ]

(* Sec. 5 / Fig. 7: the simplest non-q-hierarchical query. *)
let fig7 = Cq.make ~name:"Q" ~free:[ "A" ] [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B" ] ]

let hierarchical_examples () =
  checkb "triangle not hierarchical" false (H.is_hierarchical triangle);
  checkb "Ex4.3 not hierarchical" false (H.is_hierarchical ex43_nonhier);
  checkb "Ex4.3 witness" true (H.non_hierarchical_witness ex43_nonhier <> None);
  checkb "dropping an atom makes Ex4.3 hierarchical" true
    (H.is_hierarchical
       (Cq.make ~name:"Q" ~free:[] [ Cq.atom "S" [ "X"; "Y" ]; Cq.atom "T" [ "Y" ] ]));
  checkb "Ex4.3b hierarchical" true (H.is_hierarchical ex43_hier_not_q);
  checkb "Ex4.3b not q-hierarchical" false (H.is_q_hierarchical ex43_hier_not_q);
  checkb "Fig3 q-hierarchical" true (H.is_q_hierarchical fig3);
  checkb "Fig7 hierarchical" true (H.is_hierarchical fig7);
  checkb "Fig7 not q-hierarchical" false (H.is_q_hierarchical fig7);
  (* Boolean version of Fig7 is q-hierarchical (no free vars). *)
  checkb "Fig7 boolean q-hierarchical" true
    (H.is_q_hierarchical { fig7 with Cq.free = [] })

let acyclicity () =
  checkb "triangle cyclic" false (Hg.is_alpha_acyclic triangle);
  checkb "path acyclic" true
    (Hg.is_alpha_acyclic
       (Cq.make ~name:"P" ~free:[]
          [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B"; "C" ]; Cq.atom "T" [ "C"; "D" ] ]));
  (* Free-connex: full path join is free-connex; the projection to the
     endpoints is acyclic but not free-connex. *)
  let path free =
    Cq.make ~name:"P" ~free [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B"; "C" ] ]
  in
  checkb "full join free-connex" true (Hg.is_free_connex (path [ "A"; "B"; "C" ]));
  checkb "endpoints not free-connex" false (Hg.is_free_connex (path [ "A"; "C" ]));
  checkb "q-hierarchical implies free-connex (Fig3)" true (Hg.is_free_connex fig3)

let fd_closure () =
  (* The example below Def. 4.9: Σ = {A→C; BC→D}, C({A,B}) = {A,B,C,D}. *)
  let fds = [ Fd.make [ "A" ] [ "C" ]; Fd.make [ "B"; "C" ] [ "D" ] ] in
  let cl = Fd.closure fds [ "A"; "B" ] in
  Alcotest.(check (list string))
    "closure" [ "A"; "B"; "C"; "D" ]
    (List.sort String.compare (Fd.SSet.elements cl))

let ex410_retailer () =
  (* Ex. 4.10 shape: zip -> locn turns the retailer join hierarchical. *)
  let q =
    Cq.make ~name:"Retailer" ~free:[ "locn"; "dateid"; "ksn"; "zip" ]
      [
        Cq.atom "Inventory" [ "locn"; "dateid"; "ksn" ];
        Cq.atom "Weather" [ "locn"; "dateid" ];
        Cq.atom "Location" [ "locn"; "zip" ];
        Cq.atom "Census" [ "zip" ];
      ]
  in
  checkb "not hierarchical as written" false (H.is_hierarchical q);
  let fds = [ Fd.make [ "zip" ] [ "locn" ] ] in
  checkb "hierarchical under zip->locn" true (Fd.hierarchical_under fds q);
  checkb "q-hierarchical under zip->locn" true (Fd.q_hierarchical_under fds q)

let ex412_fd_reduct () =
  (* Ex. 4.12: Q(Z,Y,X,W) = R(X,W)·S(X,Y)·T(Y,Z), Σ = {X→Y, Y→Z}. *)
  let q =
    Cq.make ~name:"Q" ~free:[ "Z"; "Y"; "X"; "W" ]
      [ Cq.atom "R" [ "X"; "W" ]; Cq.atom "S" [ "X"; "Y" ]; Cq.atom "T" [ "Y"; "Z" ] ]
  in
  checkb "not hierarchical" false (H.is_hierarchical q);
  let fds = [ Fd.make [ "X" ] [ "Y" ]; Fd.make [ "Y" ] [ "Z" ] ] in
  let reduct = Fd.sigma_reduct fds q in
  checkb "reduct q-hierarchical" true (H.is_q_hierarchical reduct);
  (* The reduct extends R to R'(X,W,Y,Z) and S to S'(X,Y,Z). *)
  let r' = Cq.find_atom reduct "R" in
  Alcotest.(check (list string))
    "R schema closure"
    [ "W"; "X"; "Y"; "Z" ]
    (List.sort String.compare r'.Cq.vars);
  let s' = Cq.find_atom reduct "S" in
  Alcotest.(check (list string))
    "S schema closure" [ "X"; "Y"; "Z" ]
    (List.sort String.compare s'.Cq.vars)

let cqap_examples () =
  (* Ex. 4.6 (1): triangle detection with all-input head — tractable. *)
  let e3 =
    [ Cq.atom "E1" [ "A"; "B" ]; Cq.atom "E2" [ "B"; "C" ]; Cq.atom "E3" [ "C"; "A" ] ]
  in
  let detect =
    Cqap.make ~input:[ "A"; "B"; "C" ]
      (Cq.make ~name:"detect" ~free:[ "A"; "B"; "C" ] e3)
  in
  checkb "triangle detection tractable" true (Cqap.is_tractable detect);
  (* Its fracture splits into three disconnected atoms. *)
  let f = Cqap.fracture detect in
  Alcotest.(check int) "fracture components" 3
    (List.length (Hg.components f.Cqap.cq));
  (* Ex. 4.6 (2): edge triangle listing — not tractable. *)
  let listing =
    Cqap.make ~input:[ "A"; "B" ] (Cq.make ~name:"list" ~free:[ "A"; "B"; "C" ] e3)
  in
  checkb "edge triangle listing not tractable" false (Cqap.is_tractable listing);
  (* Ex. 4.6 (3): Q(A|B) = S(A,B)·T(B) — tractable. *)
  let lk =
    Cqap.make ~input:[ "B" ]
      (Cq.make ~name:"lk" ~free:[ "A"; "B" ] [ Cq.atom "S" [ "A"; "B" ]; Cq.atom "T" [ "B" ] ])
  in
  checkb "lookup join tractable" true (Cqap.is_tractable lk);
  (* A CQAP with no input variables is tractable iff q-hierarchical. *)
  let as_cqap q = Cqap.make ~input:[] q in
  checkb "no-input tractable = q-hierarchical (Fig3)" true (Cqap.is_tractable (as_cqap fig3));
  checkb "no-input not tractable (Fig7)" false (Cqap.is_tractable (as_cqap fig7))

let variable_orders () =
  let forest = Option.get (Vo.canonical fig3) in
  checkb "canonical validates" true (Vo.validate fig3 forest = Ok ());
  checkb "free-top" true (Vo.free_top fig3 forest);
  (* Y is the root (largest atom set); X and Z hang below. *)
  (match forest with
  | [ { Vo.var = "Y"; children } ] ->
      Alcotest.(check (list string))
        "children" [ "X"; "Z" ]
        (List.sort String.compare (List.map (fun c -> c.Vo.var) children))
  | _ -> Alcotest.fail "unexpected canonical forest shape");
  (* dep sets: dep(X) = dep(Z) = {Y}, dep(Y) = {}. *)
  let deps = Vo.keys fig3 forest in
  Alcotest.(check (list string)) "dep X" [ "Y" ] (List.assoc "X" deps);
  Alcotest.(check (list string)) "dep Y" [] (List.assoc "Y" deps);
  (* A chain is always a valid order for the triangle query. *)
  checkb "triangle chain valid" true
    (Vo.validate triangle [ Vo.chain [ "A"; "B"; "C" ] ] = Ok ());
  (* But a forest with A and B as separate roots is not. *)
  let bad = [ { Vo.var = "A"; children = [] };
              { Vo.var = "B"; children = [ { Vo.var = "C"; children = [] } ] } ] in
  checkb "invalid order rejected" true (Vo.validate triangle bad <> Ok ());
  checkb "canonical of non-hierarchical is None" true (Vo.canonical triangle = None)

let rewrite_cascade () =
  (* Ex. 4.5. *)
  let q2 =
    Cq.make ~name:"Q2" ~free:[ "A"; "B"; "C" ]
      [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B"; "C" ] ]
  in
  let q1 =
    Cq.make ~name:"Q1" ~free:[ "A"; "B"; "C"; "D" ]
      [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B"; "C" ]; Cq.atom "T" [ "C"; "D" ] ]
  in
  checkb "Q2 q-hierarchical" true (H.is_q_hierarchical q2);
  checkb "Q1 not q-hierarchical" false (H.is_q_hierarchical q1);
  (match Rw.rewrite ~q1 ~q2 with
  | None -> Alcotest.fail "expected a rewriting"
  | Some q1' ->
      checkb "rewriting q-hierarchical" true (H.is_q_hierarchical q1');
      Alcotest.(check int) "two atoms" 2 (List.length q1'.Cq.atoms));
  checkb "cascadable" true (Rw.cascadable ~q1 ~q2);
  (* A Q2 projecting away the join variable C cannot be used. *)
  let q2_bad =
    Cq.make ~name:"Q2b" ~free:[ "A" ] [ Cq.atom "R" [ "A"; "B" ]; Cq.atom "S" [ "B"; "C" ] ]
  in
  checkb "projection blocks rewriting" true (Rw.rewrite ~q1 ~q2:q2_bad = None)

let static_dynamic () =
  (* Ex. 4.14: R^d(A,D)·S^d(A,B)·T^s(B,C), group by A,B,C. *)
  let q =
    Cq.make ~name:"Q" ~free:[ "A"; "B"; "C" ]
      [ Cq.atom "R" [ "A"; "D" ]; Cq.atom "S" [ "A"; "B" ]; Cq.atom "T" [ "B"; "C" ] ]
  in
  checkb "not q-hierarchical" false (H.is_q_hierarchical q);
  let ad = [ ("R", Sd.Dynamic); ("S", Sd.Dynamic); ("T", Sd.Static) ] in
  checkb "tractable with T static" true (Sd.witness q ad <> None);
  checkb "not tractable all-dynamic" false (Sd.witness q (Sd.all_dynamic q) <> None);
  (* Ex. 4.3's non-hierarchical query with static middle: needs
     exponential preprocessing per the paper, so our constant-update
     checker rejects it (we do not implement the powerset trick). *)
  let q3 =
    Cq.make ~name:"Q" ~free:[ "A"; "B" ]
      [ Cq.atom "R" [ "A" ]; Cq.atom "S" [ "A"; "B" ]; Cq.atom "T" [ "B" ] ]
  in
  let ad3 = [ ("R", Sd.Dynamic); ("S", Sd.Static); ("T", Sd.Dynamic) ] in
  checkb "R^d S^s T^d beyond the constant-update checker" false
    (Sd.witness q3 ad3 <> None)

let parser () =
  let module P = Ivm_query.Parse in
  (match P.query "Q(A, B) = R(A, B), S(B, C)" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check string) "name" "Q" p.P.cq.Cq.name;
      Alcotest.(check (list string)) "free" [ "A"; "B" ] p.P.cq.Cq.free;
      Alcotest.(check int) "atoms" 2 (List.length p.P.cq.Cq.atoms);
      Alcotest.(check (list string)) "no inputs" [] p.P.input);
  (match P.query "Detect(| A, B, C) = E1(A,B), E2(B,C), E3(C,A)" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check (list string)) "inputs" [ "A"; "B"; "C" ] p.P.input;
      checkb "tractable" true
        (Cqap.is_tractable (Cqap.make ~input:p.P.input p.P.cq)));
  (match P.query "B() = R(X), S(X, Y)" with
  | Error e -> Alcotest.fail e
  | Ok p -> checkb "boolean" true (Cq.is_boolean p.P.cq));
  checkb "reject junk" true (Result.is_error (P.query "nonsense"));
  checkb "reject dup vars" true (Result.is_error (P.query "Q(A) = R(A, A)"));
  (match P.fds "A -> B; C, D -> E" with
  | Error e -> Alcotest.fail e
  | Ok fds ->
      Alcotest.(check int) "two fds" 2 (List.length fds);
      Alcotest.(check (list string))
        "closure" [ "A"; "B" ]
        (List.sort String.compare (Fd.SSet.elements (Fd.closure fds [ "A" ]))));
  (match P.adornment "R: static; S: dynamic" with
  | Error e -> Alcotest.fail e
  | Ok ad ->
      checkb "R static" true (Sd.kind_of ad "R" = Sd.Static);
      checkb "S dynamic" true (Sd.kind_of ad "S" = Sd.Dynamic);
      checkb "default dynamic" true (Sd.kind_of ad "T" = Sd.Dynamic));
  checkb "reject bad kind" true (Result.is_error (P.adornment "R: frozen"))

(* --- property tests ---------------------------------------------------- *)

(* Random small queries over a fixed pool of variables and relations. *)
let gen_query : Cq.t QCheck.arbitrary =
  let vars = [| "A"; "B"; "C"; "D" |] in
  let gen =
    QCheck.Gen.(
      let* n_atoms = int_range 1 4 in
      let* atom_vars =
        list_repeat n_atoms
          (let* k = int_range 1 3 in
           let* idxs = list_repeat k (int_range 0 3) in
           return (List.sort_uniq compare idxs))
      in
      let atoms =
        List.mapi
          (fun i idxs -> Cq.atom (Printf.sprintf "R%d" i) (List.map (fun j -> vars.(j)) idxs))
          atom_vars
      in
      let all = List.sort_uniq compare (List.concat_map (fun a -> a.Cq.vars) atoms) in
      let* free_mask = list_repeat (List.length all) bool in
      let free = List.filteri (fun i _ -> List.nth free_mask i) all in
      return (Cq.make ~name:"G" ~free atoms))
  in
  QCheck.make ~print:Cq.to_string gen

let qh_iff_hier_and_fd =
  QCheck.Test.make ~name:"q-hierarchical = hierarchical + free-dominant" gen_query (fun q ->
      H.is_q_hierarchical q = (H.is_hierarchical q && H.is_free_dominant q))

let boolean_qh_iff_hier =
  QCheck.Test.make ~name:"boolean: q-hierarchical = hierarchical" gen_query (fun q ->
      let b = { q with Cq.free = [] } in
      H.is_q_hierarchical b = H.is_hierarchical b)

let hier_implies_acyclic =
  QCheck.Test.make ~name:"hierarchical implies alpha-acyclic" gen_query (fun q ->
      (not (H.is_hierarchical q)) || Hg.is_alpha_acyclic q)

let qh_implies_free_connex =
  QCheck.Test.make ~name:"q-hierarchical implies free-connex" gen_query (fun q ->
      (not (H.is_q_hierarchical q)) || Hg.is_free_connex q)

let canonical_order_sound =
  QCheck.Test.make ~name:"canonical order validates, is free-top for q-hierarchical"
    gen_query (fun q ->
      match Vo.canonical q with
      | None -> not (H.is_hierarchical q)
      | Some f ->
          H.is_hierarchical q
          && Vo.validate q f = Ok ()
          && ((not (H.is_q_hierarchical q)) || Vo.free_top q f))

let reduct_no_fds_is_identity =
  QCheck.Test.make ~name:"Σ-reduct with no FDs preserves classification" gen_query (fun q ->
      let r = Fd.sigma_reduct [] q in
      H.is_hierarchical r = H.is_hierarchical q
      && H.is_q_hierarchical r = H.is_q_hierarchical q)

let cqap_no_input_iff_qh =
  QCheck.Test.make ~name:"CQAP with no inputs tractable iff q-hierarchical" gen_query
    (fun q -> Cqap.is_tractable (Cqap.make ~input:[] q) = H.is_q_hierarchical q)

let sd_all_dynamic_iff_qh =
  (* Sec. 4.5: the mixed-setting class collapses to q-hierarchical when
     everything is dynamic. *)
  QCheck.Test.make ~name:"all-dynamic sd-tractable iff q-hierarchical" ~count:60 gen_query
    (fun q -> (Sd.witness q (Sd.all_dynamic q) <> None) = H.is_q_hierarchical q)

let qt t = QCheck_alcotest.to_alcotest ~long:false t

let parser_positions () =
  let module P = Ivm_query.Parse in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  let err = function
    | Error e -> e
    | Ok _ -> Alcotest.fail "malformed input must be rejected"
  in
  let e = err (P.query "Q(A,B) = R(A,B), S(B C)") in
  checkb "bad variable carries its offset" true
    (contains e "'B C'" && contains e "offset 19" && contains e "column 20");
  let e = err (P.query "Q(A,B) = R(A,B), S(B,C") in
  checkb "unclosed atom points at the atom" true
    (contains e "missing ')'" && contains e "offset 17");
  let e = err (P.query "Q(A) =\n R(A,\n x!)") in
  checkb "multi-line input reports line and column" true
    (contains e "line 3" && contains e "column 2");
  let e = err (P.fds "A -> B; C, D -> E F") in
  checkb "FD rhs error is positioned" true (contains e "'E F'" && contains e "offset 16");
  let e = err (P.adornment "R: static; S: bogus") in
  checkb "adornment kind error is positioned" true
    (contains e "'bogus'" && contains e "offset 14")

let () =
  Alcotest.run "query"
    [
      ( "paper examples",
        [
          Alcotest.test_case "hierarchical (Ex. 4.3, Fig. 3, Fig. 7)" `Quick
            hierarchical_examples;
          Alcotest.test_case "acyclicity and free-connex" `Quick acyclicity;
          Alcotest.test_case "FD closure (Def. 4.9)" `Quick fd_closure;
          Alcotest.test_case "retailer under FDs (Ex. 4.10)" `Quick ex410_retailer;
          Alcotest.test_case "Σ-reduct (Ex. 4.12)" `Quick ex412_fd_reduct;
          Alcotest.test_case "CQAPs (Ex. 4.6)" `Quick cqap_examples;
          Alcotest.test_case "variable orders (Fig. 3)" `Quick variable_orders;
          Alcotest.test_case "cascading rewriting (Ex. 4.5)" `Quick rewrite_cascade;
          Alcotest.test_case "static/dynamic (Ex. 4.14)" `Quick static_dynamic;
          Alcotest.test_case "parser" `Quick parser;
          Alcotest.test_case "parser errors carry positions" `Quick parser_positions;
        ] );
      ( "properties",
        [
          qt qh_iff_hier_and_fd;
          qt boolean_qh_iff_hier;
          qt hier_implies_acyclic;
          qt qh_implies_free_connex;
          qt canonical_order_sound;
          qt reduct_no_fds_is_identity;
          qt cqap_no_input_iff_qh;
          qt sd_all_dynamic_iff_qh;
        ] );
    ]
