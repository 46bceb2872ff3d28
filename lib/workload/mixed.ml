(** Multi-tenant mixed workloads: the YCSB-style macro-benchmark mix.

    A {e tenant} is one materialized view plus the private base tables
    feeding it, namespaced so tens-to-hundreds of heterogeneous views
    (q-hierarchical joins, triangle kernels, cascade joins, dataflow
    MIN/MAX and window views, and a closed-economy ring-sum view) share
    one registry and one update stream. The update generators draw keys
    from a Zipf whose hot set {e drifts} on a seeded schedule — the
    churn that forces IVMε-style heavy/light rebalancing — and the
    economy tenant emits debit/credit {e pairs} that sum to zero by
    construction, so its view total is a conservation invariant any
    sampled epoch can assert. *)

module Tuple = Ivm_data.Tuple
module Update = Ivm_data.Update
module Schema = Ivm_data.Schema
module Db = Ivm_data.Database.Z
module Rel = Ivm_data.Relation.Z
module Cq = Ivm_query.Cq
module Vo = Ivm_query.Variable_order
module M = Ivm_engine.Maintainable
module View_tree = Ivm_engine.View_tree
module Tri = Ivm_engine.Triangle
module Df = Ivm_dataflow.Graph
module R = Random.State

(* --- tenant kinds ----------------------------------------------------- *)

type kind = Join | Triangle | Cascade | Minmax | Window | Economy

let kind_name = function
  | Join -> "join"
  | Triangle -> "triangle"
  | Cascade -> "cascade"
  | Minmax -> "minmax"
  | Window -> "window"
  | Economy -> "economy"

(* The kind letter is baked into every tenant and table name, so a
   tenant list is reconstructible from the table schemas alone
   ({!of_tables}) — what lets a fuzz case serialize only its schemas. *)
let kind_char = function
  | Join -> 'j'
  | Triangle -> 't'
  | Cascade -> 'c'
  | Minmax -> 'm'
  | Window -> 'w'
  | Economy -> 'e'

let kind_of_char = function
  | 'j' -> Some Join
  | 't' -> Some Triangle
  | 'c' -> Some Cascade
  | 'm' -> Some Minmax
  | 'w' -> Some Window
  | 'e' -> Some Economy
  | _ -> None

type tenant = {
  name : string;  (** view name, e.g. ["t3e"] *)
  kind : kind;
  index : int;
  tables : (string * string list) list;  (** namespaced table -> columns *)
  keys : int;  (** key-domain size the generators draw from *)
}

let initial_balance = 1_000

let table_shapes = function
  | Join -> [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]) ]
  | Triangle -> [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]); ("T", [ "C"; "A" ]) ]
  | Cascade -> [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]); ("T", [ "C"; "D" ]) ]
  | Minmax -> [ ("R", [ "G"; "V" ]) ]
  | Window -> [ ("R", [ "TS"; "K" ]) ]
  | Economy -> [ ("A", [ "ID" ]) ]

let tenant ~index kind ~keys =
  let name = Printf.sprintf "t%d%c" index (kind_char kind) in
  let tables =
    List.map (fun (t, cols) -> (name ^ "_" ^ t, cols)) (table_shapes kind)
  in
  { name; kind; index; tables; keys }

(* The round-robin mix: economy second so even a two-view run carries
   the conservation invariant. *)
let kind_cycle = [| Join; Economy; Triangle; Minmax; Cascade; Window |]

let tenants ~views ~keys =
  List.init views (fun i ->
      tenant ~index:i kind_cycle.(i mod Array.length kind_cycle) ~keys)

(* Reconstruct the tenant list from namespaced table schemas: names are
   [t<i><kind>_<table>]. Tables that do not parse are ignored. *)
let of_tables tables =
  let by_tenant = Hashtbl.create 16 in
  List.iter
    (fun (tbl, cols) ->
      match String.index_opt tbl '_' with
      | None -> ()
      | Some cut -> (
          let tname = String.sub tbl 0 cut in
          let n = String.length tname in
          if n >= 3 && tname.[0] = 't' then
            match
              ( int_of_string_opt (String.sub tname 1 (n - 2)),
                kind_of_char tname.[n - 1] )
            with
            | Some index, Some kind ->
                let prev =
                  Option.value (Hashtbl.find_opt by_tenant tname) ~default:[]
                in
                Hashtbl.replace by_tenant tname
                  ((index, kind, (tbl, cols)) :: prev)
            | _ -> ()))
    tables;
  Hashtbl.fold
    (fun name groups acc ->
      match groups with
      | [] -> acc
      | (index, kind, _) :: _ ->
          { name; kind; index; tables = List.rev_map (fun (_, _, t) -> t) groups;
            keys = 0 }
          :: acc)
    by_tenant []
  |> List.sort (fun a b -> compare a.index b.index)

let table tenant suffix =
  let full = tenant.name ^ "_" ^ suffix in
  if List.mem_assoc full tenant.tables then full
  else invalid_arg ("Mixed.table: " ^ full)

(* --- maintainable factories ------------------------------------------- *)

let ints vs = Tuple.of_ints vs

(* Q(B) :- R(A,B), S(B,C): the textbook q-hierarchical join (free join
   variable at the root, bound children), maintained as a view tree. *)
let join_factory t : Db.t -> M.t =
  let r = table t "R" and s = table t "S" in
  let q = Cq.make ~name:t.name ~free:[ "B" ] [ Cq.atom r [ "A"; "B" ]; Cq.atom s [ "B"; "C" ] ] in
  let order =
    [ { Vo.var = "B";
        children = [ { Vo.var = "A"; children = [] }; { Vo.var = "C"; children = [] } ] } ]
  in
  fun db -> M.of_view_tree ~name:t.name q (View_tree.build q order db)

let triangle_factory t : Db.t -> M.t =
  let relations = (table t "R", table t "S", table t "T") in
  fun db -> M.of_triangle ~name:t.name ~relations (module Tri.Delta) db

let seed_graph g db tables =
  Df.apply g
    (List.concat_map
       (fun (rel, _) ->
         Rel.fold
           (fun tp p acc -> Update.make ~rel ~tuple:tp ~payload:p :: acc)
           (Db.find db rel) [])
       tables)

(* R ⋈ S ⋈ T projected onto the ends — the retailer-style cascade of
   joins, maintained as a delta-propagating operator DAG. *)
let cascade_factory t : Db.t -> M.t =
  let r = table t "R" and s = table t "S" and tt = table t "T" in
  fun db ->
    let g = Df.create () in
    let src rel schema = Df.source g ~rel ~schema in
    let joined = Df.join g (Df.join g (src r [ "A"; "B" ]) (src s [ "B"; "C" ])) (src tt [ "C"; "D" ]) in
    Df.output g ~name:t.name (Df.project g ~cols:[ "A"; "D" ] joined);
    seed_graph g db t.tables;
    M.of_dataflow ~name:t.name g

(* (G, MIN(V), MAX(V)): one extrema node over the shared V multiset. *)
let minmax_factory t : Db.t -> M.t =
  let r = table t "R" in
  fun db ->
    let g = Df.create () in
    let src = Df.source g ~rel:r ~schema:[ "G"; "V" ] in
    Df.output g ~name:t.name
      (Df.extrema g ~group:[ "G" ] ~aggs:[ (Df.Asc, "V"); (Df.Desc, "V") ] src);
    seed_graph g db t.tables;
    M.of_dataflow ~name:t.name g

let window_size = 16
let window_lateness = 8

let window_factory t : Db.t -> M.t =
  let r = table t "R" in
  fun db ->
    let g = Df.create () in
    let src = Df.source g ~rel:r ~schema:[ "TS"; "K" ] in
    Df.output g ~name:t.name
      (Df.window g ~lateness:window_lateness ~time:"TS" ~size:window_size
         ~group:[ "K" ] src);
    seed_graph g db t.tables;
    M.of_dataflow ~name:t.name g

(* The closed-economy ring-sum view: account balances are multiplicities
   of A(id), and the group-by-nothing ring aggregate is the total — one
   scalar row whose payload must never move under transfer pairs. *)
let economy_factory t : Db.t -> M.t =
  let a = table t "A" in
  fun db ->
    let g = Df.create () in
    Df.output g ~name:t.name
      (Df.aggregate g ~label:"SUM(balance)" ~group:[]
         (Df.source g ~rel:a ~schema:[ "ID" ]));
    seed_graph g db t.tables;
    M.of_dataflow ~name:t.name g

let factory t =
  match t.kind with
  | Join -> join_factory t
  | Triangle -> triangle_factory t
  | Cascade -> cascade_factory t
  | Minmax -> minmax_factory t
  | Window -> window_factory t
  | Economy -> economy_factory t

(* Initial rows: only the economy opens with state — [accounts] accounts
   of [initial_balance] each, so the conserved total is never zero. *)
let init_updates t ~accounts =
  match t.kind with
  | Economy ->
      List.init accounts (fun i ->
          Update.make ~rel:(table t "A") ~tuple:(ints [ i + 1 ])
            ~payload:initial_balance)
  | _ -> []

let expected_total ~accounts = accounts * initial_balance

let conservation_total entries = List.fold_left (fun acc (_, p) -> acc + p) 0 entries

let check_conservation t ~accounts entries =
  if t.kind <> Economy then Ok ()
  else
    let total = conservation_total entries in
    let expect = expected_total ~accounts in
    if total = expect then Ok ()
    else
      Error
        (Printf.sprintf "%s: conservation violated: total %d, expected %d" t.name
           total expect)

(* --- drift schedule --------------------------------------------------- *)

(* splitmix64-style finalizer: the schedule is a pure function of
   (seed, phase), so two generators with the same seed drift in
   lockstep and a run replays exactly. *)
let mix (x : int) : int =
  let x = x lxor (x lsr 30) in
  let x = x * 0x2545f4914f6cdd1d in
  let x = x lxor (x lsr 27) in
  let x = x * 0x14d049bb133111eb in
  x lxor (x lsr 31)

module Drift = struct
  type t = { seed : int; keys : int; period : int }

  let create ~seed ~keys ~period =
    if keys < 1 then invalid_arg "Drift.create: keys < 1";
    { seed; keys; period }

  let phase t ~op = if t.period <= 0 then 0 else op / t.period

  (* Where the hot set sits during [op]'s phase: a seeded rotation of
     the key space. Adjacent phases land on decorrelated offsets. *)
  let offset t ~op =
    if t.keys <= 1 then 0
    else mix ((t.seed * 0x9e3779b9) + phase t ~op) land max_int mod t.keys

  let key t ~zipf rng ~op =
    let r = Zipf.sample zipf rng in
    1 + ((r - 1 + offset t ~op) mod t.keys)
end

(* --- per-tenant update generators ------------------------------------- *)

module Tgen = struct
  type t = {
    tenant : tenant;
    drift : Drift.t;
    zipf : Zipf.t;
    rng : Random.State.t;
    (* live rows inserted so far, so deletes hit existing tuples *)
    mutable live : (string * Tuple.t) list;
    mutable live_n : int;
    mutable clock : int; (* window event time, monotone per generator *)
    balances : int array; (* economy: the worker's account slice *)
    account_lo : int; (* first account id of the slice (1-based) *)
  }

  (* Each worker owns a disjoint slice of the economy's accounts, so its
     local balance tracking is globally exact and no debit can overdraw
     an account another worker also debits. *)
  let create ?(worker = 0) ?(workers = 1) ?(zipf_s = 1.1) ?(accounts = 64) tenant
      ~drift ~seed () =
    if worker < 0 || workers < 1 || worker >= workers then
      invalid_arg "Tgen.create: bad worker/workers";
    let per = max 1 (accounts / workers) in
    let lo = 1 + (worker * per) in
    let hi = if worker = workers - 1 then accounts else min accounts (lo + per - 1) in
    let slice = max 1 (hi - lo + 1) in
    {
      tenant;
      drift;
      zipf = Zipf.create ~n:(max 1 tenant.keys) ~s:zipf_s;
      rng = Random.State.make [| mix seed; mix (tenant.index + 1); mix (worker + 1) |];
      live = [];
      live_n = 0;
      clock = 0;
      balances = Array.make slice initial_balance;
      account_lo = lo;
    }

  let remember g rel tuple =
    (* Bounded memory: forget the oldest half once past 4096 rows. *)
    if g.live_n > 4096 then begin
      g.live <- List.filteri (fun i _ -> i < 2048) g.live;
      g.live_n <- 2048
    end;
    g.live <- (rel, tuple) :: g.live;
    g.live_n <- g.live_n + 1

  let take_live g =
    match g.live with
    | [] -> None
    | (rel, tuple) :: rest ->
        g.live <- rest;
        g.live_n <- g.live_n - 1;
        Some (rel, tuple)

  let key g ~op = Drift.key g.drift ~zipf:g.zipf g.rng ~op

  let insert_or_delete g make =
    if g.live_n > 0 && R.float g.rng 1.0 < 0.3 then
      match take_live g with
      | Some (rel, tuple) -> [ Update.make ~rel ~tuple ~payload:(-1) ]
      | None -> assert false
    else
      let rel, tuple = make () in
      remember g rel tuple;
      [ Update.make ~rel ~tuple ~payload:1 ]

  (* One workload step for this tenant: a single row for most kinds, a
     zero-sum debit/credit pair for the economy. *)
  let next g ~op =
    let t = g.tenant in
    match t.kind with
    | Join ->
        insert_or_delete g (fun () ->
            let b = key g ~op in
            if R.bool g.rng then (table t "R", ints [ 1 + R.int g.rng 16; b ])
            else (table t "S", ints [ b; 1 + R.int g.rng 16 ]))
    | Triangle ->
        insert_or_delete g (fun () ->
            let n = max 2 (min t.keys 32) in
            let rel = [| table t "R"; table t "S"; table t "T" |].(R.int g.rng 3) in
            (rel, ints [ 1 + (key g ~op mod n); 1 + R.int g.rng n ]))
    | Cascade ->
        insert_or_delete g (fun () ->
            let k = key g ~op in
            match R.int g.rng 3 with
            | 0 -> (table t "R", ints [ 1 + R.int g.rng 16; k ])
            | 1 -> (table t "S", ints [ k; 1 + R.int g.rng 16 ])
            | _ -> (table t "T", ints [ k; 1 + R.int g.rng 16 ]))
    | Minmax ->
        insert_or_delete g (fun () ->
            let groups = max 1 (min t.keys 16) in
            (table t "R", ints [ 1 + (key g ~op mod groups); R.int g.rng 1000 ]))
    | Window ->
        (* Event time advances with the op counter; occasional bounded
           lateness exercises pane accounting without guaranteed drops. *)
        g.clock <- max g.clock (op / 2);
        let late = if R.int g.rng 10 = 0 then R.int g.rng window_lateness else 0 in
        let ts = max 0 (g.clock - late) in
        [ Update.make ~rel:(table t "R") ~tuple:(ints [ ts; key g ~op ]) ~payload:1 ]
    | Economy ->
        let n = Array.length g.balances in
        if n < 2 then []
        else
          let amt = 1 + R.int g.rng 3 in
          (* Debit an account that can afford it (fall back to the
             richest), credit a drift-hot one: the pair sums to zero by
             construction and no balance ever goes negative. *)
          let src =
            let cand = R.int g.rng n in
            if g.balances.(cand) >= amt then cand
            else
              let best = ref 0 in
              Array.iteri (fun i b -> if b > g.balances.(!best) then best := i) g.balances;
              ignore cand;
              !best
          in
          if g.balances.(src) < amt then []
          else
            let dst =
              let d = (key g ~op - 1) mod n in
              if d = src then (d + 1) mod n else d
            in
            g.balances.(src) <- g.balances.(src) - amt;
            g.balances.(dst) <- g.balances.(dst) + amt;
            let acct i = ints [ g.account_lo + i ] in
            [
              Update.make ~rel:(table t "A") ~tuple:(acct src) ~payload:(-amt);
              Update.make ~rel:(table t "A") ~tuple:(acct dst) ~payload:amt;
            ]
end
