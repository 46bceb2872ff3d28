(* Output checks run at the end of every workload: the lib/check oracle
   recomputes every view kind it supports (join, triangle, minmax,
   economy) from scratch over the initial rows plus every acknowledged
   update, and each economy view's total must equal the money the
   economy opened with. Cascade and window views have no from-scratch
   oracle; they are listed by name, never counted as checked. *)

module D = Ivm_data
module U = D.Update
module Mx = Ivm_workload.Mixed
module Ck = Ivm_check

let oracle_kinds = [ Mx.Join; Mx.Triangle; Mx.Minmax; Mx.Economy ]

type outcome = { checked : string list; unchecked : string list; errors : string list }

let ok o = o.errors = []

(* [read name] is the served output of view [name]. *)
let run (inputs : Inputs.t) ~sent ~read =
  let tenants = Array.to_list inputs.Inputs.tenants in
  let checked, unchecked =
    List.partition (fun (tn : Mx.tenant) -> List.mem tn.Mx.kind oracle_kinds) tenants
  in
  let tables = List.concat_map (fun (tn : Mx.tenant) -> tn.Mx.tables) checked in
  let oracle =
    Ck.Oracle.create
      {
        Ck.Case.family = Ck.Case.Mixed;
        seed = inputs.Inputs.seed;
        query = None;
        order = None;
        k = 0;
        schemas = tables;
        init = [];
        stream = [];
      }
  in
  let wanted = Hashtbl.create 256 in
  List.iter (fun (name, _) -> Hashtbl.replace wanted name ()) tables;
  let keep (u : int U.t) = Hashtbl.mem wanted u.U.rel in
  Ck.Oracle.apply oracle (List.filter keep inputs.Inputs.rows @ List.filter keep sent);
  let errors = ref [] in
  let got =
    List.concat_map
      (fun (tn : Mx.tenant) ->
        match read tn.Mx.name with
        | Error m ->
            errors := Printf.sprintf "%s: read failed: %s" tn.Mx.name m :: !errors;
            []
        | Ok entries ->
            (match Mx.check_conservation tn ~accounts:inputs.Inputs.shape.Inputs.accounts entries with
            | Ok () -> ()
            | Error m -> errors := m :: !errors);
            List.map
              (fun (tp, p) ->
                (D.Tuple.of_list (D.Value.Str tn.Mx.name :: D.Tuple.to_list tp), p))
              entries)
      checked
  in
  if not (Ck.Oracle.equal_entries (Ck.Oracle.enumerate oracle) (Ck.Oracle.normalize got))
  then errors := "served views diverge from the lib/check oracle recompute" :: !errors;
  let names = List.map (fun (tn : Mx.tenant) -> tn.Mx.name) in
  { checked = names checked; unchecked = names unchecked; errors = List.rev !errors }

let report o =
  Printf.printf
    "check: %d views compared with the oracle recompute (join, triangle, minmax, economy)\n"
    (List.length o.checked);
  Printf.printf "check: %d views have no oracle and are not checked: %s\n"
    (List.length o.unchecked) (String.concat " " o.unchecked);
  List.iter (Printf.printf "check FAILED: %s\n") o.errors
