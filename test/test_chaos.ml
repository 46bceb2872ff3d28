(* The chaos matrices in tier 1: every fault scenario of [ivm_cli chaos],
   single node and sharded, at 3,000 updates under the seeds
   [chaos --seed 1] gives them (scenario i runs under seed 1 + i). Each
   run must converge to its fault-free reference. *)

module Chaos = Ivm_check.Chaos

let dir = Filename.concat (Filename.get_temp_dir_name ()) "ivm_test_chaos"

let cases ~cluster =
  List.mapi
    (fun i (sc : Chaos.scenario) ->
      Alcotest.test_case sc.Chaos.name `Quick (fun () ->
          match Chaos.run ~cluster ~dir ~updates:3_000 ~nodes:100 ~seed:(1 + i) sc with
          | Ok _ -> ()
          | Error m -> Alcotest.fail m))
    (Chaos.scenarios ~cluster)

let () =
  Alcotest.run "chaos"
    [ ("single-node", cases ~cluster:false); ("cluster", cases ~cluster:true) ]
