(* A live retail dashboard over the Fig. 4 workload: the five-relation
   Retailer join, non-hierarchical as written but q-hierarchical under
   the FD zip -> locn (Ex. 4.10). Inventory inserts stream in batches;
   the dashboard (an enumeration request) refreshes periodically.

   The example contrasts the four maintenance strategies of Fig. 4 on a
   small stream and shows why eager-fact (F-IVM) is the one to deploy.

   Run with: dune exec examples/retailer_dashboard.exe *)

open Core.Ivm
module Retailer = Ivm_workload.Retailer

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let () =
  Format.printf "Retailer query: %a@.@." Cq.pp Retailer.query;
  let analysis = Ivm_query.Taxonomy.analyze ~fds:Retailer.fds Retailer.query in
  Format.printf "%a@.@." Ivm_query.Taxonomy.pp_analysis analysis;

  let spec = { Retailer.default_spec with Ivm_workload.Retailer.locations = 20; dates = 20 } in
  let batches = 50 and batch_size = 200 and refresh_every = 10 in

  let strategies =
    [ Strategy.Eager_fact; Strategy.Eager_list; Strategy.Lazy_fact; Strategy.Lazy_list ]
  in
  Format.printf "Streaming %d batches of %d Inventory inserts, dashboard refresh every %d batches@.@."
    batches batch_size refresh_every;
  List.iter
    (fun kind ->
      let gen = Retailer.create spec in
      let db = Retailer.initial_database gen in
      let engine = Strategy.create kind Retailer.query (Retailer.order ()) db in
      let outputs = ref 0 in
      let (), elapsed =
        time (fun () ->
            for b = 1 to batches do
              List.iter (Strategy.apply engine) (Retailer.next_batch gen ~size:batch_size);
              if b mod refresh_every = 0 then outputs := Strategy.count_output engine
            done)
      in
      Format.printf "%-12s %6.0f updates/s   (last dashboard: %d rows)@."
        (Strategy.kind_name kind)
        (float_of_int (batches * batch_size) /. max 1e-9 elapsed)
        !outputs)
    strategies;
  Format.printf
    "@.The factorized eager strategy keeps both updates and refreshes cheap;@.\
     flat lists pay on update, lazy variants pay on refresh (Fig. 4).@."
