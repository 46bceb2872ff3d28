(* The SQL front end: printer/parser round-trip properties, positioned
   syntax errors, the cost-based planner's engine decisions on fixture
   queries from the paper's taxonomy, executor semantics (maintained
   views, parameterized lookups, aggregates), and multi-seed oracle
   agreement of SQL-created views inside the differential harness. *)

module Sql = Ivm_sql
module Ast = Sql.Ast
module Parser = Sql.Parser
module Lower = Sql.Lower
module Planner = Sql.Planner
module Exec = Sql.Exec
module Compile = Sql.Compile
module M = Ivm_engine.Maintainable
module Fd = Ivm_query.Fd
module Vo = Ivm_query.Variable_order
module Value = Ivm_data.Value
module Ck = Ivm_check

let checkb = Alcotest.(check bool)
let ok = function Ok v -> v | Error e -> Alcotest.fail e

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- printer/parser round trip ---------------------------------------- *)

let gen_ident = QCheck.Gen.oneofl [ "a"; "b"; "c"; "d"; "r1"; "s2"; "t_3"; "zip" ]

(* Reals restricted to dyadic rationals so the decimal rendering
   re-parses to the identical float. *)
let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) (int_range (-100) 100);
        map (fun s -> Value.Str s) (oneofl [ ""; "x"; "it's"; "a''b"; "s p c" ]);
        map (fun n -> Value.Real (float_of_int n /. 4.)) (int_range (-40) 40);
      ])

let gen_rhs =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Ast.Const v) gen_value;
        return (Ast.Param 0) (* renumbered below to appearance order *);
        map (fun c -> Ast.Col c) gen_ident;
      ])

let gen_pred =
  QCheck.Gen.(
    let* col = gen_ident in
    let* rhs = gen_rhs in
    return { Ast.col; rhs })

(* The parser numbers '?' by appearance, so the generator must too. *)
let renumber_params (s : Ast.select) =
  let n = ref 0 in
  let where =
    List.map
      (fun (p : Ast.pred) ->
        match p.Ast.rhs with
        | Ast.Param _ ->
            incr n;
            { p with Ast.rhs = Ast.Param !n }
        | _ -> p)
      s.Ast.where
  in
  { s with Ast.where }

let gen_select =
  QCheck.Gen.(
    let* from = list_size (int_range 1 3) gen_ident in
    let* distinct = bool in
    let* items =
      oneof
        [
          return [ Ast.Star ];
          return [ Ast.Count ];
          (let* cols = list_size (int_range 1 3) (map (fun c -> Ast.Column c) gen_ident) in
           let* agg =
             oneof
               [
                 return [];
                 return [ Ast.Count ];
                 map (fun c -> [ Ast.Sum c ]) gen_ident;
                 map (fun c -> [ Ast.Min c ]) gen_ident;
                 map (fun c -> [ Ast.Max c ]) gen_ident;
                 map2 (fun c d -> [ Ast.Min c; Ast.Max d ]) gen_ident gen_ident;
               ]
           in
           return (cols @ agg));
        ]
    in
    let* where = list_size (int_range 0 3) gen_pred in
    let* group_by = oneof [ return []; list_size (int_range 1 2) gen_ident ] in
    let* window =
      oneof
        [
          return None;
          (let* wcol = gen_ident in
           let* wsize = int_range 1 50 in
           return (Some { Ast.wcol; wsize }));
        ]
    in
    return (renumber_params { Ast.distinct; items; from; where; group_by; window }))

let gen_stmt =
  QCheck.Gen.(
    let base =
      oneof
        [
          (let* table = gen_ident in
           let* cols = list_size (int_range 1 4) gen_ident in
           let* fds =
             oneof
               [
                 return [];
                 (let* lhs = list_size (int_range 1 2) gen_ident in
                  let* rhs_col = gen_ident in
                  return [ { Ast.lhs; rhs_col } ]);
               ]
           in
           return (Ast.Create_table { table; cols; fds }));
          (let* view = gen_ident in
           let* opts =
             oneof
               [
                 return [];
                 return [ Ast.Insert_only ];
                 map (fun t -> [ Ast.Static t ]) gen_ident;
               ]
           in
           let* select = gen_select in
           return (Ast.Create_view { view; opts; select }));
          (let* table = gen_ident in
           let* rows = list_size (int_range 1 3) (list_size (int_range 1 3) gen_value) in
           return (Ast.Insert { table; rows }));
          (let* table = gen_ident in
           let* rows = list_size (int_range 1 2) (list_size (int_range 1 3) gen_value) in
           return (Ast.Delete { table; rows }));
          map (fun s -> Ast.Select s) gen_select;
        ]
    in
    let* wrap = bool in
    let* st = base in
    return (if wrap then Ast.Explain st else st))

let arb_stmt = QCheck.make ~print:Ast.print gen_stmt

let parse_print_roundtrip =
  QCheck.Test.make ~name:"parse (print ast) = ast" ~count:500 arb_stmt (fun st ->
      match Parser.stmt (Ast.print st) with
      | Ok st' -> Ast.equal st st'
      | Error e -> QCheck.Test.fail_reportf "%s on %s" e (Ast.print st))

(* --- positioned errors ------------------------------------------------ *)

let err text =
  match Parser.stmt text with
  | Error e -> e
  | Ok st -> Alcotest.failf "expected a syntax error, parsed %s" (Ast.print st)

let sql_errors_positioned () =
  let e = err "SELECT a FROM R WHERE b = " in
  checkb "truncated WHERE carries an offset" true (contains e "at offset 26");
  let e = err "CREATE TABLE R (a,, b)" in
  checkb "double comma points at the hole" true
    (contains e "offset 18" && contains e "column 19");
  let e = err "SELECT a\nFROM R,\n  5" in
  checkb "multi-line errors report line and column" true
    (contains e "line 3" && contains e "column 3");
  let e = err "SELECT *, a FROM R" in
  checkb "star mixed with items is rejected" true (contains e "'*'")

let script_errors_numbered () =
  let sess = Exec.create () in
  (match Exec.exec_text sess "CREATE TABLE R (a, b); INSERT INTO missing VALUES (1);" with
  | Ok _ -> Alcotest.fail "insert into a missing table must fail"
  | Error e ->
      checkb "execution error names the failing statement" true (contains e "statement 2"));
  match Exec.exec_text sess "CREATE TABLE S (a); SELECT FROM S;" with
  | Ok _ -> Alcotest.fail "malformed second statement must fail"
  | Error e -> checkb "parse error in a script carries an offset" true (contains e "offset")

(* --- the planner on fixture queries ----------------------------------- *)

let explain_of sess text =
  match ok (Exec.exec sess (Ast.Explain (ok (Parser.stmt text)))) with
  | Exec.Explained s -> s
  | _ -> Alcotest.fail "EXPLAIN must return a report"

let facts_of report =
  List.filter
    (fun l -> String.length l > 3 && String.sub l 0 4 = "  - ")
    (String.split_on_char '\n' report)

let select_of text =
  match ok (Parser.stmt text) with
  | Ast.Select s -> s
  | _ -> Alcotest.fail "expected a SELECT"

(* Fig. 3's q-hierarchical query: eager-fact maintenance, i.e. the
   factorized view tree over the canonical free-top order. *)
let planner_q_hierarchical () =
  let sess = Exec.create () in
  ignore (ok (Exec.exec_text sess "CREATE TABLE R (y, x); CREATE TABLE S (y, z);"));
  let text = "SELECT y, x, z FROM R, S" in
  let report = explain_of sess text in
  checkb "q-hierarchical -> factorized view tree" true
    (contains report "engine: factorized view tree");
  checkb "carries at least 2 facts" true (List.length (facts_of report) >= 2);
  checkb "names q-hierarchical" true (contains report "q-hierarchical: true");
  let l, _ =
    ok (Lower.select [ ("R", [ "y"; "x" ]); ("S", [ "y"; "z" ]) ] ~name:"v" (select_of text))
  in
  match (ok (Planner.plan ~opts:[] l)).Planner.choice with
  | Planner.Tree forest ->
      checkb "over the canonical free-top order" true (Some forest = Vo.canonical l.Lower.cq)
  | _ -> Alcotest.fail "expected a view-tree plan"

(* The A-C path with both endpoints free: hierarchical but not
   free-connex, so constant-delay maintenance is impossible (Thm. 4.1)
   and the planner must fall back to the factorized view tree. *)
let planner_non_free_connex () =
  let sess = Exec.create () in
  ignore (ok (Exec.exec_text sess "CREATE TABLE R (a, b); CREATE TABLE S (b, c);"));
  let report = explain_of sess "SELECT a, c FROM R, S" in
  checkb "non-free-connex -> view tree" true
    (contains report "engine: factorized view tree");
  checkb "says free-connex: false" true (contains report "free-connex: false");
  checkb "carries at least 2 facts" true (List.length (facts_of report) >= 2)

(* A view whose WITH clause adorns a relation static: the planner must
   pick the static/dynamic split of Sec. 4.5. *)
let planner_static_dynamic () =
  let sess = Exec.create () in
  ignore
    (ok
       (Exec.exec_text sess
          "CREATE TABLE R (a, d); CREATE TABLE S (a, b); CREATE TABLE T (b, c);"));
  let report =
    explain_of sess
      "CREATE MATERIALIZED VIEW v WITH (STATIC T) AS SELECT a, b, c FROM R, S, T"
  in
  checkb "static adornment -> static/dynamic view tree" true
    (contains report "engine: static/dynamic view tree");
  checkb "names the static relation" true (contains report "T");
  checkb "carries at least 2 facts" true (List.length (facts_of report) >= 2)

(* The triangle count lands on the first-order delta kernel, and
   EXPLAIN says so. *)
let planner_triangle () =
  let sess = Exec.create () in
  ignore
    (ok
       (Exec.exec_text sess
          "CREATE TABLE R (a, b); CREATE TABLE S (b, c); CREATE TABLE T (c, a);"));
  let report = explain_of sess "SELECT COUNT(*) FROM R, S, T" in
  checkb "triangle count -> first-order delta kernel" true
    (contains report "engine: first-order delta triangle kernel");
  checkb "cites Sec. 3.1" true (contains report "first-order delta queries (Sec. 3.1)");
  checkb "carries at least 2 facts" true (List.length (facts_of report) >= 2)

(* Ex. 4.12 under the FDs x -> y and y -> z: not q-hierarchical as
   written, but its Σ-reduct is (Thm. 4.11). In either SELECT order the
   planner must run the view tree over the reduct's canonical order — a
   chain in column order costs O(N) per T update — and the view must
   match a from-scratch recompute over FD-satisfying data. *)
let fd_tables =
  "CREATE TABLE R (x, w); CREATE TABLE S (x, y, FD x -> y);\n\
   CREATE TABLE T (y, z, FD y -> z);"

let planner_fd_reduct () =
  let catalog = [ ("R", [ "x"; "w" ]); ("S", [ "x"; "y" ]); ("T", [ "y"; "z" ]) ] in
  let declared = [ ("S", [ Fd.make [ "x" ] [ "y" ] ]); ("T", [ Fd.make [ "y" ] [ "z" ] ]) ] in
  List.iter
    (fun cols ->
      let text = Printf.sprintf "SELECT %s FROM R, S, T" cols in
      let l, fds = ok (Lower.select catalog ~fds:declared ~name:"v" (select_of text)) in
      let cq = l.Lower.cq in
      let reduct_order = Vo.canonical (Fd.sigma_reduct fds cq) in
      checkb (cols ^ ": reduct order valid for the query") true
        (Option.map (Vo.validate cq) reduct_order = Some (Ok ()));
      let p = ok (Planner.plan ~fds ~opts:[] l) in
      (match p.Planner.choice with
      | Planner.Tree forest ->
          checkb (cols ^ ": over the Σ-reduct's canonical order") true
            (Some forest = reduct_order)
      | _ -> Alcotest.failf "%s: expected a view-tree plan" cols);
      let report = Planner.explain p in
      checkb (cols ^ ": view-tree engine") true
        (contains report "engine: factorized view tree");
      checkb (cols ^ ": carries at least 2 facts") true (List.length (facts_of report) >= 2);
      checkb (cols ^ ": cites Thm. 4.11") true (contains report "Thm. 4.11");
      let sess = Exec.create () in
      ignore
        (ok
           (Exec.exec_text sess
              (fd_tables ^ "CREATE MATERIALIZED VIEW v AS " ^ text ^ ";\n\
               INSERT INTO R VALUES (1, 10), (2, 20), (3, 30), (1, 11);\n\
               INSERT INTO S VALUES (1, 100), (2, 100), (3, 200);\n\
               INSERT INTO T VALUES (100, 7), (200, 8);\n\
               DELETE FROM T VALUES (100, 7);\n\
               INSERT INTO T VALUES (100, 9);\n\
               DELETE FROM R VALUES (2, 20);\n\
               DELETE FROM S VALUES (3, 200);\n\
               INSERT INTO S VALUES (4, 200);\n\
               INSERT INTO R VALUES (4, 40);")));
      let reg = Exec.registry sess in
      let recomputed =
        Exec.Registry.read reg (fun () ->
            let db = Exec.Registry.db reg in
            Ivm_engine.Eval.aggregate cq ~lookup:(fun name ->
                Ivm_engine.View.of_relation (Ivm_data.Database.Z.find db name))
            |> fun rel -> Ivm_data.Relation.Z.fold (fun tp p acc -> (tp, p) :: acc) rel [])
      in
      let maintained = ok (Exec.view_entries sess "v") in
      checkb (cols ^ ": view = recompute") true
        (recomputed <> []
        && Ck.Oracle.equal_entries (Ck.Oracle.normalize maintained)
             (Ck.Oracle.normalize recomputed)))
    [ "w, x, y, z"; "z, y, x, w" ]

(* --- output deltas -------------------------------------------------- *)

let zset entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (tp, p) ->
      let k = Ivm_data.Tuple.to_list tp in
      Hashtbl.replace tbl k (p + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    entries;
  Hashtbl.fold (fun k p acc -> if p = 0 then acc else (k, p) :: acc) tbl [] |> List.sort compare

(* Seeded batches over [tables] with values in 1..3: inserts, and
   (unless [inserts_only]) deletes of rows present at that point, so
   every base table stays a bag. *)
let seeded_batches ~seed ~inserts_only tables =
  let rng = Random.State.make [| seed |] in
  let present = ref [] in
  List.init 30 (fun _ ->
      List.init (1 + Random.State.int rng 6) (fun _ ->
          let rel, cols = List.nth tables (Random.State.int rng (List.length tables)) in
          match !present with
          | (r, tp) :: rest when (not inserts_only) && Random.State.int rng 3 = 0 ->
              present := rest;
              Ivm_data.Update.make ~rel:r ~tuple:tp ~payload:(-1)
          | _ ->
              let tp =
                Ivm_data.Tuple.of_ints (List.map (fun _ -> 1 + Random.State.int rng 3) cols)
              in
              present := (rel, tp) :: !present;
              Ivm_data.Update.make ~rel ~tuple:tp ~payload:1))

(* One view per planner choice, each compiled through [Compile.build]
   over seeded tables (a static one is only loaded): enumerating before a batch plus the batch's
   [apply_delta] must equal enumerating after it, as Z-sets. *)
let every_choice_reports_exact_delta () =
  let views =
    [
      ( "view tree (SUM, filter)",
        [ ("R", [ "a"; "q" ]); ("S", [ "a"; "c" ]) ],
        "SELECT a, SUM(q) FROM R, S WHERE c = 1 GROUP BY a",
        [],
        "factorized view tree" );
      ( "static/dynamic tree",
        [ ("R", [ "a"; "d" ]); ("S", [ "a"; "b" ]); ("T", [ "b"; "c" ]) ],
        "SELECT a, b, c FROM R, S, T",
        [ Ast.Static "T" ],
        "static/dynamic view tree" );
      ( "triangle, flipped T",
        [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]); ("T", [ "a"; "c" ]) ],
        "SELECT COUNT(*) FROM R, S, T",
        [],
        "first-order delta triangle kernel" );
      ( "insert-only path",
        [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]); ("T", [ "c"; "d" ]) ],
        "SELECT a, b, c, d FROM R, S, T",
        [ Ast.Insert_only ],
        "insert-only monotone path join" );
      ( "dataflow",
        [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]) ],
        "SELECT a, MAX(c) FROM R, S GROUP BY a",
        [],
        "dataflow operator graph" );
      ( "dataflow, MIN and MAX without GROUP BY",
        [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]) ],
        "SELECT MIN(c), MAX(c) FROM R, S WHERE a = 1",
        [],
        "dataflow operator graph" );
    ]
  in
  List.iteri
    (fun i (what, catalog, text, opts, engine) ->
      let l, fds = ok (Lower.select catalog ~name:"v" (select_of text)) in
      let plan = ok (Planner.plan ~fds ~opts l) in
      checkb (what ^ ": " ^ engine) true (Planner.engine_name plan = engine);
      (match plan.Planner.choice with
      | Planner.Triangle { t; _ } -> checkb (what ^ ": T slot flipped") true t.Planner.flipped
      | _ -> ());
      let rng = Random.State.make [| i |] in
      let source =
        List.map
          (fun (t, cols) ->
            let rel = Ivm_data.Relation.Z.create (Ivm_data.Schema.of_list cols) in
            for _ = 1 to 4 do
              Ivm_data.Relation.Z.add_entry rel
                (Ivm_data.Tuple.of_ints (List.map (fun _ -> 1 + Random.State.int rng 3) cols))
                1
            done;
            (t, rel))
          catalog
      in
      let m = ok (Compile.build ~name:"v" l plan source) in
      let dynamic = List.filter (fun (t, _) -> List.mem t m.M.relations) catalog in
      let inserts_only = List.mem Ast.Insert_only opts in
      let changed = ref false in
      List.iter
        (fun batch ->
          let before = m.M.enumerate () in
          let delta = m.M.apply_delta batch in
          let after = m.M.enumerate () in
          if zset delta <> [] then changed := true;
          checkb (what ^ ": before + delta = after") true (zset (before @ delta) = zset after))
        (seeded_batches ~seed:(40 + i) ~inserts_only dynamic);
      checkb (what ^ ": some batch changed the output") true !changed)
    views

(* --- executor semantics ----------------------------------------------- *)

let exec_view_and_lookup () =
  let sess = Exec.create () in
  let script =
    "CREATE TABLE R (a, b); CREATE TABLE S (b, c);\n\
     CREATE MATERIALIZED VIEW v AS SELECT a, c FROM R, S WHERE a = ?;\n\
     INSERT INTO R VALUES (1, 2), (3, 2);\n\
     INSERT INTO S VALUES (2, 7), (2, 8);"
  in
  ignore (ok (Exec.exec_text sess script));
  let rows ?params text =
    match ok (Exec.exec sess ?params (ok (Parser.stmt text))) with
    | Exec.Rows r -> r.Exec.rows
    | _ -> Alcotest.fail "expected rows"
  in
  let got =
    rows ~params:[ Value.Int 1 ] "SELECT a, c FROM R, S WHERE a = ?"
  in
  checkb "parameterized lookup answers from the view" true
    (got = [ ([ Value.Int 1; Value.Int 7 ], 1); ([ Value.Int 1; Value.Int 8 ], 1) ]);
  let missing = rows ~params:[ Value.Int 9 ] "SELECT a, c FROM R, S WHERE a = ?" in
  checkb "unbound key yields no rows" true (missing = []);
  (* One-shot aggregate over the base tables, and the SQL scalar rule:
     a COUNT over an empty result is 0, not absent. *)
  let count = rows "SELECT COUNT(*) FROM R, S" in
  checkb "count aggregates multiplicities" true (count = [ ([], 4) ]);
  let zero = rows "SELECT COUNT(*) FROM R, S WHERE a = 42" in
  checkb "empty count is a 0 row" true (zero = [ ([], 0) ])

(* Several extrema over the whole table: one extrema node keyed on the
   empty group serves a single (MIN, MAX) row, retracted once the table
   empties. *)
let exec_extrema_without_group_by () =
  let sess = Exec.create () in
  ignore
    (ok
       (Exec.exec_text sess
          "CREATE TABLE T (v);\n\
           CREATE MATERIALIZED VIEW bounds AS SELECT MIN(v), MAX(v) FROM T;\n\
           INSERT INTO T VALUES (5), (3), (9);\n\
           DELETE FROM T VALUES (9);"));
  let rows () =
    match ok (Exec.exec sess (ok (Parser.stmt "SELECT MIN(v), MAX(v) FROM T"))) with
    | Exec.Rows r -> r.Exec.rows
    | _ -> Alcotest.fail "expected rows"
  in
  checkb "one (MIN, MAX) row; the deleted max re-scans" true
    (rows () = [ ([ Value.Int 3; Value.Int 5 ], 1) ]);
  (match ok (Exec.exec sess (ok (Parser.stmt "EXPLAIN SELECT MIN(v), MAX(v) FROM T"))) with
  | Exec.Explained text ->
      checkb "EXPLAIN shows one extrema node" true
        (contains text "extrema[min(v),max(v)]")
  | _ -> Alcotest.fail "expected an explanation");
  ignore (ok (Exec.exec_text sess "DELETE FROM T VALUES (5), (3);"));
  checkb "an empty table has no extremum row" true (rows () = [])

let exec_sum_group_by () =
  let sess = Exec.create () in
  ignore
    (ok
       (Exec.exec_text sess
          "CREATE TABLE R (k, v);\n\
           CREATE MATERIALIZED VIEW s AS SELECT k, SUM(v) FROM R GROUP BY k;\n\
           INSERT INTO R VALUES (1, 10), (1, 32), (2, 5);\n\
           DELETE FROM R VALUES (2, 5);"));
  match ok (Exec.exec sess (ok (Parser.stmt "SELECT k, SUM(v) FROM R GROUP BY k"))) with
  | Exec.Rows r ->
      checkb "SUM folds and deletes retract" true
        (r.Exec.rows = [ ([ Value.Int 1 ], 42) ])
  | _ -> Alcotest.fail "expected rows"

(* --- oracle agreement across seeds ------------------------------------ *)

(* Every case builds the SQL driver: tables created and data mutated
   through printed SQL text, the view planned and compiled by lib/sql
   onto whatever engine the planner picks — and the harness demands the
   exact oracle answer after every epoch. 30 join + 10 triangle seeds. *)
let sql_driver_agrees_with_oracle () =
  let run ~family ~gen seeds =
    List.iter
      (fun seed ->
        let case = gen ~rng:(Ck.Seed.rng seed) ~seed in
        match Ck.Harness.run ~select:[ "sql" ] case with
        | Ck.Harness.Agree -> ()
        | Ck.Harness.Diverged ds ->
            Alcotest.failf "%s seed %d: %s" family seed
              (String.concat "; "
                 (List.map (Format.asprintf "%a" Ck.Harness.pp_divergence) ds)))
      seeds
  in
  run ~family:"join" ~gen:Ck.Gen.join (List.init 30 (fun i -> 1000 + i));
  run ~family:"triangle" ~gen:Ck.Gen.triangle (List.init 10 (fun i -> 2000 + i))

(* Ex. 4.14 rendered as WITH (STATIC T): the SQL static/dynamic path
   (DESIGN.md §10 rows 1-2) against the oracle. *)
let sql_static_dynamic_agrees () =
  List.iter
    (fun seed ->
      let case = Ck.Gen.static_dynamic ~rng:(Ck.Seed.rng seed) ~seed in
      checkb "the sql driver runs on the family" true
        (List.mem "sql" (Ck.Engines.names case));
      match Ck.Harness.run ~select:[ "sql" ] case with
      | Ck.Harness.Agree -> ()
      | Ck.Harness.Diverged ds ->
          Alcotest.failf "static-dynamic seed %d: %s" seed
            (String.concat "; "
               (List.map (Format.asprintf "%a" Ck.Harness.pp_divergence) ds)))
    (List.init 10 (fun i -> 3000 + i))

let qt t = QCheck_alcotest.to_alcotest ~long:false t

let () =
  Alcotest.run ~and_exit:false "sql"
    [
      ( "syntax",
        [
          qt parse_print_roundtrip;
          Alcotest.test_case "positioned errors" `Quick sql_errors_positioned;
          Alcotest.test_case "script errors numbered" `Quick script_errors_numbered;
        ] );
      ( "planner",
        [
          Alcotest.test_case "q-hierarchical -> eager delta" `Quick
            planner_q_hierarchical;
          Alcotest.test_case "non-free-connex -> view tree" `Quick
            planner_non_free_connex;
          Alcotest.test_case "static adornment -> static/dynamic" `Quick
            planner_static_dynamic;
          Alcotest.test_case "triangle -> first-order delta kernel" `Quick planner_triangle;
          Alcotest.test_case "FDs -> eager-fact over the Σ-reduct order" `Quick
            planner_fd_reduct;
        ] );
      ( "deltas",
        [
          Alcotest.test_case "every plan choice reports an exact output delta" `Quick
            every_choice_reports_exact_delta;
        ] );
      ( "exec",
        [
          Alcotest.test_case "view + parameterized lookup" `Quick exec_view_and_lookup;
          Alcotest.test_case "SUM with GROUP BY" `Quick exec_sum_group_by;
          Alcotest.test_case "MIN and MAX without GROUP BY" `Quick
            exec_extrema_without_group_by;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "sql driver agrees over 40 seeds" `Slow
            sql_driver_agrees_with_oracle;
          Alcotest.test_case "sql static/dynamic agrees over 10 seeds" `Quick
            sql_static_dynamic_agrees;
        ] );
    ]
