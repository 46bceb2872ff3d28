module R = Random.State
module Cq = Ivm_query.Cq
module Value = Ivm_data.Value
module Tuple = Ivm_data.Tuple
module Update = Ivm_data.Update
module Rq = Ivm_workload.Random_queries

(* --- shared small pieces -------------------------------------------- *)

(* The three polarity modes of the stream generators. *)
let delete_share rng = match R.int rng 3 with 0 -> 0.0 | 1 -> 0.3 | _ -> 0.6

(* Split [rows] into epochs of random sizes in [1, width]. *)
let epochs rng ~width rows =
  let rec go acc rows =
    match rows with
    | [] -> List.rev acc
    | _ ->
        let k = 1 + R.int rng width in
        let rec take k = function
          | x :: tl when k > 0 ->
              let xs, rest = take (k - 1) tl in
              (x :: xs, rest)
          | rest -> ([], rest)
        in
        let chunk, rest = take k rows in
        go (chunk :: acc) rest
  in
  go [] rows

(* A mutable live multiset so deletes target existing tuples; the
   sanitizer still guards, this just keeps delete-heavy streams dense. *)
module Live = struct
  type t = {
    tbl : (string * Value.t list, int) Hashtbl.t;
    mutable keys : (string * Value.t list) array;
    mutable n : int;
  }

  let create () = { tbl = Hashtbl.create 64; keys = Array.make 16 ("", []); n = 0 }

  let add t key p =
    let m = Option.value (Hashtbl.find_opt t.tbl key) ~default:0 in
    if m + p <= 0 then Hashtbl.remove t.tbl key else Hashtbl.replace t.tbl key (m + p);
    if m = 0 && p > 0 then begin
      if t.n = Array.length t.keys then begin
        let keys = Array.make (2 * t.n) ("", []) in
        Array.blit t.keys 0 keys 0 t.n;
        t.keys <- keys
      end;
      t.keys.(t.n) <- key;
      t.n <- t.n + 1
    end

  (* Rejection-sample a currently live key from the append-only list. *)
  let pick t rng =
    let rec go tries =
      if tries = 0 || t.n = 0 then None
      else
        let key = t.keys.(R.int rng t.n) in
        if Hashtbl.mem t.tbl key then Some key else go (tries - 1)
    in
    go 8
end

(* --- join ------------------------------------------------------------ *)

type domain = Ints of int | Strs of int

let sample_domain rng = function
  | Ints d -> Value.Int (R.int rng d)
  | Strs d -> Value.Str ("s" ^ string_of_int (R.int rng d))

let join ~rng ~seed : Case.t =
  let w = Rq.executable ~rng ~id:(seed land 0xffff) in
  let q = w.Rq.query in
  let dom =
    List.map
      (fun v ->
        let d = 1 + R.int rng 4 in
        (v, if R.int rng 100 < 15 then Strs d else Ints d))
      (Cq.vars q)
  in
  let schemas = List.map (fun (a : Cq.atom) -> (a.Cq.rel, a.Cq.vars)) q.Cq.atoms in
  let row_of rel vars payload =
    { Case.rel; values = List.map (fun v -> sample_domain rng (List.assoc v dom)) vars; payload }
  in
  let init =
    List.concat_map
      (fun (rel, vars) ->
        List.init (R.int rng 7) (fun _ -> row_of rel vars (1 + R.int rng 3)))
      schemas
  in
  let live = Live.create () in
  List.iter (fun (r : Case.row) -> Live.add live (r.Case.rel, r.Case.values) r.Case.payload) init;
  let dp = delete_share rng in
  let n = R.int rng 41 in
  let stream =
    List.init n (fun _ ->
        let delete = R.float rng 1.0 < dp in
        let row =
          match (if delete then Live.pick live rng else None) with
          | Some (rel, values) -> { Case.rel; values; payload = -1 }
          | None ->
              let rel, vars = List.nth schemas (R.int rng (List.length schemas)) in
              row_of rel vars (1 + R.int rng 2)
        in
        Live.add live (row.Case.rel, row.Case.values) row.Case.payload;
        row)
  in
  Case.sanitize
    {
      family = Case.Join;
      seed;
      query = Some q;
      order = Some w.Rq.order;
      k = 0;
      schemas;
      init;
      stream = epochs rng ~width:6 stream;
    }

(* --- triangle -------------------------------------------------------- *)

let triangle_schemas = [ ("R", [ "A"; "B" ]); ("S", [ "B"; "C" ]); ("T", [ "C"; "A" ]) ]

let triangle ~rng ~seed : Case.t =
  let nodes = 2 + R.int rng 6 in
  let dp = delete_share rng in
  let live = Live.create () in
  let n = R.int rng 81 in
  let stream =
    List.init n (fun _ ->
        let delete = R.float rng 1.0 < dp in
        let row =
          match (if delete then Live.pick live rng else None) with
          | Some (rel, values) -> { Case.rel; values; payload = -1 }
          | None ->
              let rel = [| "R"; "S"; "T" |].(R.int rng 3) in
              { Case.rel;
                values = [ Value.Int (1 + R.int rng nodes); Value.Int (1 + R.int rng nodes) ];
                payload = 1 }
        in
        Live.add live (row.Case.rel, row.Case.values) row.Case.payload;
        row)
  in
  Case.sanitize
    {
      family = Case.Triangle;
      seed;
      query = None;
      order = None;
      k = 0;
      schemas = triangle_schemas;
      init = [];
      stream = epochs rng ~width:8 stream;
    }

(* --- kclique --------------------------------------------------------- *)

let kclique ~rng ~seed : Case.t =
  let k = 3 + R.int rng 2 in
  let nodes = 3 + R.int rng 5 in
  let dp = delete_share rng in
  let present = Hashtbl.create 32 in
  let n = R.int rng 61 in
  let stream =
    List.filter_map
      (fun _ ->
        let delete = Hashtbl.length present > 0 && R.float rng 1.0 < dp in
        if delete then begin
          let es = Hashtbl.fold (fun e () acc -> e :: acc) present [] in
          let u, v = List.nth es (R.int rng (List.length es)) in
          Hashtbl.remove present (u, v);
          Some { Case.rel = "E"; values = [ Value.Int u; Value.Int v ]; payload = -1 }
        end
        else
          let u = 1 + R.int rng nodes and v = 1 + R.int rng nodes in
          let u, v = if u <= v then (u, v) else (v, u) in
          if u = v || Hashtbl.mem present (u, v) then None
          else begin
            Hashtbl.replace present (u, v) ();
            Some { Case.rel = "E"; values = [ Value.Int u; Value.Int v ]; payload = 1 }
          end)
      (List.init n Fun.id)
  in
  Case.sanitize
    {
      family = Case.Kclique;
      seed;
      query = None;
      order = None;
      k;
      schemas = [ ("E", [ "U"; "V" ]) ];
      init = [];
      stream = epochs rng ~width:5 stream;
    }

(* --- static/dynamic -------------------------------------------------- *)

let static_dynamic ~rng ~seed : Case.t =
  let module Sd = Ivm_engine.Static_dynamic_engine in
  let q = Sd.query in
  let schemas = List.map (fun (a : Cq.atom) -> (a.Cq.rel, a.Cq.vars)) q.Cq.atoms in
  let dom = 1 + R.int rng 4 in
  let row_of rel arity payload =
    { Case.rel; values = List.init arity (fun _ -> Value.Int (R.int rng dom)); payload }
  in
  let init =
    List.concat_map
      (fun (rel, vars) ->
        List.init (R.int rng 8) (fun _ -> row_of rel (List.length vars) (1 + R.int rng 2)))
      schemas
  in
  let live = Live.create () in
  List.iter (fun (r : Case.row) -> Live.add live (r.Case.rel, r.Case.values) r.Case.payload) init;
  let dp = delete_share rng in
  let n = R.int rng 41 in
  let dynamic = [ "R"; "S" ] in
  let stream =
    List.init n (fun _ ->
        let delete = R.float rng 1.0 < dp in
        let pick_live () =
          match Live.pick live rng with
          | Some ((rel, _) as key) when List.mem rel dynamic -> Some key
          | Some _ | None -> None
        in
        let row =
          match (if delete then pick_live () else None) with
          | Some (rel, values) -> { Case.rel; values; payload = -1 }
          | None ->
              let rel = List.nth dynamic (R.int rng 2) in
              row_of rel 2 (1 + R.int rng 2)
        in
        Live.add live (row.Case.rel, row.Case.values) row.Case.payload;
        row)
  in
  Case.sanitize
    {
      family = Case.Static_dynamic;
      seed;
      query = Some q;
      order = Some Sd.order;
      k = 0;
      schemas;
      init;
      stream = epochs rng ~width:6 stream;
    }

(* --- minmax ----------------------------------------------------------- *)

(* Grouped MIN/MAX over a single R(G, V). Tight domains so groups hold
   few distinct values with repeats, and a biased delete mix that aims
   at the currently served extremum — the dataflow engine's re-scan
   fallback is the point of the family. *)
let minmax ~rng ~seed : Case.t =
  let groups = 1 + R.int rng 3 in
  let vdom = if R.int rng 100 < 20 then Strs (2 + R.int rng 4) else Ints (2 + R.int rng 5) in
  let fresh_row payload =
    { Case.rel = "R";
      values = [ Value.Int (1 + R.int rng groups); sample_domain rng vdom ];
      payload }
  in
  let init = List.init (R.int rng 6) (fun _ -> fresh_row (1 + R.int rng 2)) in
  let live = Live.create () in
  List.iter (fun (r : Case.row) -> Live.add live (r.Case.rel, r.Case.values) r.Case.payload) init;
  (* The live extremum of a random group, by the same [Value.compare]
     order the engines use. *)
  let pick_extremum maximize =
    let pairs =
      Hashtbl.fold
        (fun (_, values) _ acc ->
          match values with [ g; v ] -> (g, v) :: acc | _ -> acc)
        live.Live.tbl []
    in
    match pairs with
    | [] -> None
    | (g0, _) :: _ ->
        let gs = List.sort_uniq Value.compare (List.map fst pairs) in
        let g = try List.nth gs (R.int rng (List.length gs)) with _ -> g0 in
        List.filter (fun (g', _) -> Value.compare g g' = 0) pairs
        |> List.map snd
        |> List.fold_left
             (fun acc v ->
               match acc with
               | None -> Some v
               | Some best ->
                   let c = Value.compare v best in
                   if (maximize && c > 0) || ((not maximize) && c < 0) then Some v
                   else acc)
             None
        |> Option.map (fun v -> ("R", [ g; v ]))
  in
  let dp = delete_share rng in
  let n = R.int rng 51 in
  let stream =
    List.init n (fun _ ->
        let delete = R.float rng 1.0 < dp in
        let target =
          if not delete then None
          else if R.int rng 100 < 60 then pick_extremum (R.bool rng)
          else Live.pick live rng
        in
        let row =
          match target with
          | Some (rel, values) -> { Case.rel; values; payload = -1 }
          | None -> fresh_row 1
        in
        Live.add live (row.Case.rel, row.Case.values) row.Case.payload;
        row)
  in
  Case.sanitize
    {
      family = Case.Minmax;
      seed;
      query = None;
      order = None;
      k = 0;
      schemas = [ ("R", [ "G"; "V" ]) ];
      init;
      stream = epochs rng ~width:6 stream;
    }

(* --- mixed multi-tenant ----------------------------------------------- *)

module Mx = Ivm_workload.Mixed

(* The fuzz-scale slice of the ivmbench Mixed tenants: 2–4
   namespaced tenants drawn from the oracle-backed kinds (join,
   triangle, minmax, economy — one economy tenant always present, so
   every case carries paired conservation updates), driven by the
   seeded Zipf generators of [lib/workload] whose hot set drifts every
   few ops. Epoch splitting may cut a debit/credit pair in half; both
   the drivers and the per-epoch oracle see the same prefix, so
   agreement is unaffected — only the final total is conserved. *)
let mixed ~rng ~seed : Case.t =
  let kinds = [| Mx.Join; Mx.Economy; Mx.Triangle; Mx.Minmax |] in
  let views = 2 + R.int rng 3 in
  let keys = 2 + R.int rng 5 in
  let tenants =
    List.init views (fun i ->
        let kind = if i = 1 then Mx.Economy else kinds.(R.int rng (Array.length kinds)) in
        Mx.tenant ~index:i kind ~keys)
  in
  let accounts = 3 + R.int rng 4 in
  let wseed = R.bits rng in
  let drift = Mx.Drift.create ~seed:wseed ~keys ~period:(2 + R.int rng 6) in
  let gens =
    Array.of_list (List.map (fun tn -> Mx.Tgen.create ~accounts tn ~drift ~seed:wseed ()) tenants)
  in
  let n = R.int rng 41 in
  let rows =
    List.concat
      (List.init n (fun op ->
           let g = gens.(R.int rng (Array.length gens)) in
           List.map Case.row_of_update (Mx.Tgen.next g ~op)))
  in
  let init =
    List.concat_map
      (fun tn -> List.map Case.row_of_update (Mx.init_updates tn ~accounts))
      tenants
  in
  Case.sanitize
    {
      family = Case.Mixed;
      seed;
      query = None;
      order = None;
      k = 0;
      schemas = List.concat_map (fun tn -> tn.Mx.tables) tenants;
      init;
      stream = epochs rng ~width:6 rows;
    }

let case ~rng ~seed : Case.t =
  match R.int rng 100 with
  | x when x < 35 -> join ~rng ~seed
  | x when x < 53 -> triangle ~rng ~seed
  | x when x < 64 -> kclique ~rng ~seed
  | x when x < 76 -> minmax ~rng ~seed
  | x when x < 88 -> static_dynamic ~rng ~seed
  | _ -> mixed ~rng ~seed

(* --- adversarial primitives for the codec properties ----------------- *)

let value rng : Value.t =
  match R.int rng 10 with
  | 0 -> Value.Int 0
  | 1 -> Value.Int min_int
  | 2 -> Value.Int max_int
  | 3 -> Value.Int (R.int rng 2_000 - 1_000)
  | 4 -> Value.Str ""
  | 5 -> Value.Str (String.init (R.int rng 300) (fun _ -> Char.chr (R.int rng 256)))
  | 6 -> Value.Str (String.make (1 + R.int rng 5) '\xff')
  | 7 ->
      Value.Real
        (match R.int rng 4 with
        | 0 -> 0.
        | 1 -> Float.neg_infinity
        | 2 -> 1e308
        | _ -> float_of_int (R.int rng 1_000 - 500) /. 7.)
  | _ -> Value.Int (R.bits rng - (1 lsl 29))

let tuple rng : Tuple.t = Tuple.init (R.int rng 6) (fun _ -> value rng)

let update rng : int Update.t =
  let rel = String.init (R.int rng 12) (fun _ -> Char.chr (32 + R.int rng 95)) in
  let payload =
    match R.int rng 5 with
    | 0 -> min_int
    | 1 -> max_int
    | 2 -> 0
    | 3 -> -1
    | _ -> R.bits rng - (1 lsl 29)
  in
  Update.make ~rel ~tuple:(tuple rng) ~payload
