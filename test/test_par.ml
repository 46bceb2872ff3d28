(* The parallel maintenance layer: the domain pool and the engine batch
   fronts that run on it (the triangle kernels and the Fig. 4
   strategies) — checked against the sequential engines. The
   load-bearing property is the paper's Sec. 2 commutativity claim: for
   any pool width, parallel batch apply must be extensionally equal to
   sequential apply. *)

module D = Ivm_data
module S = D.Schema
module U = D.Update
module Pool = Ivm_par.Domain_pool
module Tri = Ivm_engine.Triangle
module Tb = Ivm_engine.Triangle_batch

let tup = D.Tuple.of_ints

(* Pools are created once and reused; widths beyond the host's core
   count still exercise the task hand-off logic. *)
let widths = [ 1; 2; 4; 8 ]
let pools = List.map (fun w -> (w, Pool.create ~domains:w)) widths
let pool w = List.assoc w pools

(* --- domain pool ----------------------------------------------------- *)

let pool_unit () =
  List.iter
    (fun (w, p) ->
      Alcotest.(check int) "width" w (Pool.width p);
      let total =
        Pool.fold p ~add:( + ) ~zero:0
          (List.init 32 (fun i -> fun () -> i + 1))
      in
      Alcotest.(check int) "fold sums all tasks" (32 * 33 / 2) total;
      let cells = Array.make 100 0 in
      Pool.run p
        (List.map
           (fun (lo, len) ->
             fun () ->
              for i = lo to lo + len - 1 do
                cells.(i) <- i
              done)
           (Pool.chunk_bounds p 100));
      Alcotest.(check bool) "chunk_bounds covers the range" true
        (Array.to_list cells = List.init 100 Fun.id))
    pools

let pool_exceptions () =
  let p = pool 4 in
  Alcotest.check_raises "task exception re-raised" Exit (fun () ->
      Pool.run p (List.init 8 (fun i -> fun () -> if i = 5 then raise Exit)));
  (* The pool survives a failed run. *)
  Alcotest.(check int) "pool usable after failure" 10
    (Pool.fold p ~add:( + ) ~zero:0 (List.init 5 (fun i -> fun () -> i)))

(* --- triangle batch fronts vs sequential engines --------------------- *)

let gen_edges =
  QCheck.list_of_size (QCheck.Gen.int_range 0 80)
    (QCheck.quad (QCheck.int_range 0 2) (QCheck.int_range 0 4) (QCheck.int_range 0 4)
       (QCheck.int_range (-2) 2))

let to_edges l =
  List.map
    (fun (r, a, b, m) ->
      ((match r with 0 -> Tri.R | 1 -> Tri.S | _ -> Tri.T), a, b, m))
    l

(* Split a stream into batches of [k] so several apply_batch calls chain
   (later batches see the earlier ones' state). *)
let rec batches k = function
  | [] -> []
  | l ->
      let rec take n = function
        | x :: rest when n > 0 ->
            let h, t = take (n - 1) rest in
            (x :: h, t)
        | rest -> ([], rest)
      in
      let h, t = take k l in
      h :: batches k t

let tri_batch_matches (module B : Tb.BATCH_ENGINE) name =
  QCheck.Test.make ~name
    (QCheck.pair gen_edges (QCheck.int_range 1 25))
    (fun (edges, k) ->
      let edges = to_edges edges in
      let seq = Tri.Delta.create () in
      List.iter (fun (rel, a, b, m) -> Tri.Delta.update seq rel ~a ~b m) edges;
      List.for_all
        (fun (_, p) ->
          let eng = B.create ~pool:p () in
          List.iter (B.apply_batch eng) (batches k edges);
          B.count eng = Tri.Delta.count seq)
        pools)

let tri_delta_batch_matches =
  tri_batch_matches (module Tb.Delta) "Delta batch apply = sequential delta engine"

let tri_one_view_batch_matches =
  tri_batch_matches (module Tb.One_view) "One_view batch apply = sequential delta engine"

let tri_batch_single_updates =
  (* The single-tuple path of the batch fronts is the sequential one. *)
  QCheck.Test.make ~name:"batch fronts' single-tuple path = sequential" gen_edges
    (fun edges ->
      let edges = to_edges edges in
      let seq = Tri.One_view.create () in
      let b_delta = Tb.Delta.create () in
      let b_one = Tb.One_view.create () in
      List.iter
        (fun (rel, a, b, m) ->
          Tri.One_view.update seq rel ~a ~b m;
          Tb.Delta.update b_delta rel ~a ~b m;
          Tb.One_view.update b_one rel ~a ~b m)
        edges;
      Tb.Delta.count b_delta = Tri.One_view.count seq
      && Tb.One_view.count b_one = Tri.One_view.count seq)

(* --- strategy batch front -------------------------------------------- *)

let fig3_query =
  Ivm_query.Cq.make ~name:"Q" ~free:[ "Y"; "X"; "Z" ]
    [ Ivm_query.Cq.atom "R" [ "Y"; "X" ]; Ivm_query.Cq.atom "S" [ "Y"; "Z" ] ]

let strategy_batch_matches =
  let gen =
    QCheck.list_of_size (QCheck.Gen.int_range 0 50)
      (QCheck.quad QCheck.bool (QCheck.int_range 0 3) (QCheck.int_range 0 3)
         (QCheck.int_range (-2) 2))
  in
  QCheck.Test.make ~name:"strategy apply_batch with pool = sequential apply" gen
    (fun ops ->
      let batch =
        List.map
          (fun (is_r, x, y, m) ->
            U.make ~rel:(if is_r then "R" else "S") ~tuple:(tup [ x; y ]) ~payload:m)
          ops
      in
      let forest = Option.get (Ivm_query.Variable_order.canonical fig3_query) in
      let make kind =
        let db = D.Database.Z.create () in
        let _ = D.Database.Z.declare db "R" (S.of_list [ "Y"; "X" ]) in
        let _ = D.Database.Z.declare db "S" (S.of_list [ "Y"; "Z" ]) in
        Ivm_engine.Strategy.create kind fig3_query forest db
      in
      List.for_all
        (fun kind ->
          let seq = make kind in
          List.iter (Ivm_engine.Strategy.apply seq) batch;
          let expected = Ivm_engine.Strategy.output seq in
          List.for_all
            (fun (_, p) ->
              let par = make kind in
              Ivm_engine.Strategy.apply_batch ~pool:p par batch;
              D.Relation.Z.equal (Ivm_engine.Strategy.output par) expected)
            pools)
        Ivm_engine.Strategy.[ Eager_fact; Eager_list; Lazy_fact; Lazy_list ])

let qt t = QCheck_alcotest.to_alcotest ~long:false t

let () =
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, p) -> Pool.destroy p) pools)
    (fun () ->
      Alcotest.run ~and_exit:false "par"
        [
          ( "domain pool",
            [
              Alcotest.test_case "run/fold/chunks" `Quick pool_unit;
              Alcotest.test_case "exceptions" `Quick pool_exceptions;
            ] );
          ( "triangle batch fronts",
            [
              qt tri_delta_batch_matches;
              qt tri_one_view_batch_matches;
              qt tri_batch_single_updates;
            ] );
          ("strategy batch front", [ qt strategy_batch_matches ]);
        ])
