(** Composable delta-propagating operator DAGs — the DBSP-style runtime
    the per-query engines cannot express.

    Every operator consumes and emits {e Z-set deltas}: coalesced
    [(tuple, multiplicity)] maps over the integer ring, positive for
    inserts and negative for deletes, exactly the update language of the
    rest of the repo (Sec. 2 batch commutativity). Linear operators
    (filter, project, aggregate-with-lift) are stateless — their
    delta rule is the operator itself. Bilinear join keeps both input
    integrals indexed on the shared columns and applies
    ΔQ = ΔR⋈S + R⋈ΔS + ΔR⋈ΔS. The non-linear operators carry exactly
    the state their delta rule needs: [distinct] the input multiset
    (its output lives in the Boolean semiring image — presence, not
    count), [extrema] one ordered value multiset per group and value
    column — MIN/MAX has no additive inverse, so a deleted served
    extremum is answered by re-reading the multiset — and [window]
    per-pane accumulators plus a watermark that retracts expired panes.

    A {!t} is a DAG of such operators. Nodes are created referencing
    existing nodes, sources are hash-consed per (relation, schema), and
    any node can feed several consumers — that is how common
    sub-operators are shared between views hanging off one graph.
    {!apply} feeds one epoch's batch into the sources' Z-set
    accumulators (one reusable {!Flat_tbl} per node), evaluates each
    node into its own in topological order, and folds each view's into
    its materialized output Z-set.

    Zero elision invariant: materialized state (join indexes, distinct
    multiset, extrema multisets, pane accumulators, view outputs) never
    stores a zero payload, so absence and zero coincide everywhere. *)

module Value = Ivm_data.Value
module Tuple = Ivm_data.Tuple
module Schema = Ivm_data.Schema
module Update = Ivm_data.Update
module Flat_tbl = Ivm_data.Flat_tbl
module Vmap = Map.Make (Value)

type delta = (Tuple.t * int) list

type dir = Asc | Desc

(* --- operator state ----------------------------------------------------- *)

(* One side of a join: the integral of everything this input has ever
   delivered, grouped by the join key (the shared columns). Nested
   tuple tables because groups are probed per delta entry. *)
type join_side = {
  key : int array; (* positions of the shared columns in this side's schema *)
  index : int Tuple.Tbl.t Tuple.Tbl.t; (* key -> (full tuple -> multiplicity) *)
}

type join_state = {
  left : join_side;
  right : join_side;
  right_rest : int array; (* right's non-shared columns, appended to the left tuple *)
}

(* Per-group state of an extrema operator: one ordered multiplicity map
   per distinct value column (MIN(v) and MAX(v) read the same one), and
   the row currently emitted. A value's count is a mutable cell, so
   re-counting a stored value allocates nothing. *)
type ext_group = {
  gkey : Tuple.t; (* the stored group key *)
  vals : int ref Vmap.t array;
  mutable row : Tuple.t; (* the emitted (group..., extremum...) row, or [no_row] *)
  mutable dirty : bool; (* already on [touched] this epoch *)
}

type ext_state = {
  egroup : int array; (* positions of the grouping columns *)
  ecols : int array; (* positions of the distinct value columns *)
  aggs : (dir * int) array; (* per output column: direction, index into [ecols] *)
  ekey : Tuple.t; (* scratch group key every input entry probes with *)
  erow : Tuple.t; (* scratch output row *)
  groups : ext_group Flat_tbl.t;
  elabel : string; (* [min(v),max(v)], for {!describe} *)
  mutable touched : ext_group list; (* groups the epoch's delta reached *)
  mutable rescans : int; (* deletions of a served extremum that forced a re-read *)
}

type win_state = {
  tcol : int; (* position of the event-time column *)
  size : int;
  lateness : int; (* grace beyond pane end before the watermark expires it *)
  wgroup : int array;
  wrow : Tuple.t; (* scratch output row (pane start, group...) *)
  wlift : Tuple.t -> int;
  panes : (int, int Flat_tbl.t) Hashtbl.t; (* pane start -> (group -> acc) *)
  mutable watermark : int; (* max event time seen on inserts; min_int before any *)
  mutable late_drops : int;
  mutable retracted_panes : int;
}

type op =
  | Source of { rel : string }
  | Filter of { pred : Tuple.t -> bool; flabel : string }
  | Aggregate of { agroup : int array; lift : Tuple.t -> int; alabel : string; akey : Tuple.t }
      (* [akey]: the scratch group key every input entry probes with *)
  | Join of join_state
  | Distinct of { mult : int Flat_tbl.t }
  | Extrema of ext_state
  | Window of win_state

type node = {
  id : int;
  schema : Schema.t;
  op : op;
  inputs : node list;
  mutable acc : int Flat_tbl.t; (* output delta of the epoch being propagated *)
}

type view = { vname : string; vnode : node; out : int Flat_tbl.t }

type t = {
  mutable nodes : node list; (* reverse creation order *)
  mutable views : view list; (* reverse registration order *)
  mutable next_id : int;
  mutable sources : node list;
      (* hash-consed on relation + schema: one source node per distinct
         subscription, so repeated atoms over one relation (self-joins
         under different column names) still get their own view of the
         stream while identical subscriptions are shared *)
  mutable order : node list option; (* memoized topological order *)
}

let create () = { nodes = []; views = []; next_id = 0; sources = []; order = None }

(* --- Z-set accumulators ------------------------------------------------- *)

let zadd acc tp m = ignore (Flat_tbl.merge acc tp m ~add:( + ) ~is_zero:(fun m -> m = 0))
let zset () = Flat_tbl.create ~size:0 0

(* After the epoch: a table well past this epoch's needs (a bulk seed)
   is dropped, not cleared, so [clear] stays O(epoch). *)
let reset n =
  let a = n.acc in
  if Flat_tbl.capacity a > 4 * max 16 (Flat_tbl.length a) then n.acc <- zset ()
  else if Flat_tbl.length a > 0 then Flat_tbl.clear a

let node_schema n = Schema.to_list n.schema

let add g schema op inputs =
  let n = { id = g.next_id; schema; op; inputs; acc = zset () } in
  g.next_id <- g.next_id + 1;
  g.nodes <- n :: g.nodes;
  g.order <- None;
  n

(* --- construction ------------------------------------------------------- *)

let source g ~rel ~schema =
  let same n =
    match n.op with Source s -> s.rel = rel && node_schema n = schema | _ -> false
  in
  match List.find_opt same g.sources with
  | Some n -> n
  | None ->
      let n = add g (Schema.of_list schema) (Source { rel }) [] in
      g.sources <- n :: g.sources;
      n

let filter g ?(label = "pred") pred input =
  add g input.schema (Filter { pred; flabel = label }) [ input ]

let positions schema cols =
  Array.of_list (List.map (fun c -> Schema.position schema c) cols)

let aggregate g ?(lift = fun (_ : Tuple.t) -> 1) ?(label = "count") ~group input =
  let agroup = positions input.schema group in
  let akey = Tuple.scratch (Array.length agroup) in
  add g (Schema.of_list group) (Aggregate { agroup; lift; alabel = label; akey }) [ input ]

(* A multiplicity-summing projection is exactly aggregation with the
   unit lift: free columns keep their values, bound ones marginalize
   into the payload. *)
let project g ~cols input = aggregate g ~label:"project" ~group:cols input

let join g l r =
  let shared = Schema.inter l.schema r.schema in
  if Schema.arity shared = 0 then
    invalid_arg "Graph.join: no shared columns (cartesian products are not supported)";
  let rest = Schema.diff r.schema shared in
  let side s = { key = Schema.projection s shared; index = Tuple.Tbl.create 64 } in
  let st =
    {
      left = side l.schema;
      right = side r.schema;
      right_rest = Schema.projection r.schema rest;
    }
  in
  add g (Schema.union l.schema rest) (Join st) [ l; r ]

let distinct g input =
  add g input.schema (Distinct { mult = Flat_tbl.create ~size:64 0 }) [ input ]

(* The empty-slot filler of [groups] and the "nothing emitted" row:
   physical sentinels, never stored as a real group or row. *)
let no_row = Tuple.of_list []
let no_group = { gkey = no_row; vals = [||]; row = no_row; dirty = false }

let agg_name (dir, col) = Printf.sprintf "%s(%s)" (match dir with Asc -> "MIN" | Desc -> "MAX") col
let agg_label (dir, col) = Printf.sprintf "%s(%s)" (match dir with Asc -> "min" | Desc -> "max") col

let extrema g ~group ~aggs input =
  if aggs = [] then invalid_arg "Graph.extrema: no aggregate";
  let cols =
    List.fold_left (fun acc (_, c) -> if List.mem c acc then acc else acc @ [ c ]) [] aggs
  in
  let index c = Option.get (List.find_index (String.equal c) cols) in
  let st =
    {
      egroup = positions input.schema group;
      ecols = positions input.schema cols;
      aggs = Array.of_list (List.map (fun (dir, c) -> (dir, index c)) aggs);
      ekey = Tuple.scratch (List.length group);
      erow = Tuple.scratch (List.length group + List.length aggs);
      groups = Flat_tbl.create ~size:64 no_group;
      elabel = String.concat "," (List.map agg_label aggs);
      touched = [];
      rescans = 0;
    }
  in
  add g (Schema.of_list (group @ List.map agg_name aggs)) (Extrema st) [ input ]

let window g ?(lateness = 0) ?(lift = fun (_ : Tuple.t) -> 1) ~time ~size ~group input =
  if size < 1 then invalid_arg "Graph.window: size must be >= 1";
  let st =
    {
      tcol = Schema.position input.schema time;
      size;
      lateness;
      wgroup = positions input.schema group;
      wrow = Tuple.scratch (1 + List.length group);
      wlift = lift;
      panes = Hashtbl.create 16;
      watermark = min_int;
      late_drops = 0;
      retracted_panes = 0;
    }
  in
  add g (Schema.of_list (("w_" ^ time) :: group)) (Window st) [ input ]

let output g ~name n =
  if List.exists (fun v -> v.vname = name) g.views then
    invalid_arg ("Graph.output: duplicate view " ^ name);
  g.views <- { vname = name; vnode = n; out = zset () } :: g.views

(* --- scheduling --------------------------------------------------------- *)

(* Kahn's algorithm over the node list. Creation order is already a
   topological order (inputs must exist before their consumers), but the
   sort keeps the invariant explicit and independent of how the graph
   was assembled. Memoized until the next node is added. *)
let schedule g =
  match g.order with
  | Some o -> o
  | None ->
      let nodes = List.rev g.nodes in
      let n = List.length nodes in
      let indegree = Hashtbl.create n in
      let consumers = Hashtbl.create n in
      List.iter
        (fun nd ->
          Hashtbl.replace indegree nd.id (List.length nd.inputs);
          List.iter
            (fun i ->
              let cs = Option.value (Hashtbl.find_opt consumers i.id) ~default:[] in
              Hashtbl.replace consumers i.id (nd :: cs))
            nd.inputs)
        nodes;
      let ready = Stdlib.Queue.create () in
      List.iter (fun nd -> if nd.inputs = [] then Stdlib.Queue.add nd ready) nodes;
      let order = ref [] in
      while not (Stdlib.Queue.is_empty ready) do
        let nd = Stdlib.Queue.pop ready in
        order := nd :: !order;
        List.iter
          (fun c ->
            let d = Hashtbl.find indegree c.id - 1 in
            Hashtbl.replace indegree c.id d;
            if d = 0 then Stdlib.Queue.add c ready)
          (Option.value (Hashtbl.find_opt consumers nd.id) ~default:[])
      done;
      if List.length !order <> n then invalid_arg "Graph.schedule: cycle";
      let o = List.rev !order in
      g.order <- Some o;
      o

(* --- delta evaluation --------------------------------------------------- *)

(* Fold one delta entry into a side's nested index, zero-eliding both
   the tuple multiplicity and emptied key groups. *)
let side_add side tp m =
  let key = Tuple.project tp side.key in
  let group =
    match Tuple.Tbl.find_opt side.index key with
    | Some tbl -> tbl
    | None ->
        let tbl = Tuple.Tbl.create 4 in
        Tuple.Tbl.add side.index key tbl;
        tbl
  in
  let s = (match Tuple.Tbl.find_opt group tp with Some q -> q | None -> 0) + m in
  if s = 0 then begin
    Tuple.Tbl.remove group tp;
    if Tuple.Tbl.length group = 0 then Tuple.Tbl.remove side.index key
  end
  else Tuple.Tbl.replace group tp s

let side_probe side key f =
  match Tuple.Tbl.find_opt side.index key with
  | Some group -> Tuple.Tbl.iter f group
  | None -> ()

(* ΔQ = ΔR⋈S + R⋈ΔS + ΔR⋈ΔS, realized as ΔR⋈S_old followed by
   (R+ΔR)⋈ΔS: the left index is advanced between the two probes, so the
   cross term ΔR⋈ΔS falls out of the second. *)
let eval_join st dl dr out =
  let combine lt rt = Tuple.append lt (Tuple.project rt st.right_rest) in
  Flat_tbl.iter
    (fun lt m ->
      side_probe st.right (Tuple.project lt st.left.key) (fun rt mr ->
          zadd out (combine lt rt) (m * mr)))
    dl;
  Flat_tbl.iter (side_add st.left) dl;
  Flat_tbl.iter
    (fun rt m ->
      side_probe st.left (Tuple.project rt st.right.key) (fun lt ml ->
          zadd out (combine lt rt) (ml * m)))
    dr;
  Flat_tbl.iter (side_add st.right) dr

(* Presence is the Boolean-semiring image of the multiplicity: the
   output flips by ±1 exactly when [mult > 0] flips, so DISTINCT's
   delta depends only on the zero-crossings of the integrated input. *)
let eval_distinct mult d out =
  Flat_tbl.reserve mult (Flat_tbl.length d);
  Flat_tbl.iter
    (fun tp m ->
      let old = Flat_tbl.find_default mult tp 0 in
      zadd mult tp m;
      match (old > 0, old + m > 0) with
      | false, true -> zadd out tp 1
      | true, false -> zadd out tp (-1)
      | _ -> ())
    d

(* Fold the delta into each touched group's value multisets, then
   re-read the extrema of those groups only. Reading the first binding
   of an ordered map is the re-scan fallback: a delete of a served value
   is answered from the multiset, which an output-only state could not
   do. A group whose multisets empty retracts its row and is dropped. *)
let eval_extrema st d out =
  let ng = Array.length st.egroup in
  Flat_tbl.iter
    (fun tp m ->
      for i = 0 to ng - 1 do
        Tuple.set st.ekey i (Tuple.get tp st.egroup.(i))
      done;
      let gs =
        match Flat_tbl.find_default st.groups st.ekey no_group with
        | gs when gs != no_group -> gs
        | _ ->
            let gkey = Tuple.freeze st.ekey in
            let vals = Array.make (Array.length st.ecols) Vmap.empty in
            let gs = { gkey; vals; row = no_row; dirty = false } in
            Flat_tbl.set st.groups gkey gs;
            gs
      in
      for c = 0 to Array.length st.ecols - 1 do
        let v = Tuple.get tp st.ecols.(c) and vs = gs.vals.(c) in
        match Vmap.find v vs with
        | r -> if !r + m <= 0 then gs.vals.(c) <- Vmap.remove v vs else r := !r + m
        | exception Not_found -> if m > 0 then gs.vals.(c) <- Vmap.add v (ref m) vs
      done;
      if not gs.dirty then begin
        gs.dirty <- true;
        st.touched <- gs :: st.touched
      end)
    d;
  List.iter
    (fun gs ->
      gs.dirty <- false;
      let old = gs.row in
      if old != no_row then
        for i = 0 to Array.length st.aggs - 1 do
          if not (Vmap.mem (Tuple.get old (ng + i)) gs.vals.(snd st.aggs.(i))) then
            st.rescans <- st.rescans + 1
        done;
      if Array.exists Vmap.is_empty gs.vals then begin
        if old != no_row then zadd out old (-1);
        Flat_tbl.remove st.groups gs.gkey
      end
      else begin
        for i = 0 to ng - 1 do
          Tuple.set st.erow i (Tuple.get gs.gkey i)
        done;
        for i = 0 to Array.length st.aggs - 1 do
          let dir, c = st.aggs.(i) in
          let v, _ =
            match dir with
            | Asc -> Vmap.min_binding gs.vals.(c)
            | Desc -> Vmap.max_binding gs.vals.(c)
          in
          Tuple.set st.erow (ng + i) v
        done;
        if old == no_row || not (Tuple.equal st.erow old) then begin
          if old != no_row then zadd out old (-1);
          let row = Tuple.freeze st.erow in
          gs.row <- row;
          zadd out row 1
        end
      end)
    st.touched;
  st.touched <- []

let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)

(* The start of the tumbling pane covering event time [v]. *)
let pane_start st v = fdiv v st.size * st.size

let expired st w p = p + st.size + st.lateness <= w

(* The (never written) rows of a pane born expired: every row skips it. *)
let born_dead = zset ()

let pane_row st p gt =
  Tuple.set st.wrow 0 (Value.Int p);
  for i = 0 to Tuple.arity gt - 1 do
    Tuple.set st.wrow (i + 1) (Tuple.get gt i)
  done;
  st.wrow

(* One epoch decides against two watermarks, so the result does not
   depend on the order the accumulator hands its rows over: lateness
   against the watermark at the epoch's start, expiry against the
   epoch's final one (the max insert time). A row whose pane is late is
   dropped; a row whose pane the final watermark expires is skipped —
   placing it and retracting the pane nets to zero — and a pane born
   that way is entered empty, so the retraction below counts it once. *)
let eval_window st d out =
  let w0 = st.watermark in
  let w1 =
    Flat_tbl.fold
      (fun tp m w -> if m > 0 then max w (Value.to_int (Tuple.get tp st.tcol)) else w)
      d w0
  in
  Flat_tbl.iter
    (fun tp m ->
      let w = m * st.wlift tp in
      let p = pane_start st (Value.to_int (Tuple.get tp st.tcol)) in
      if expired st w0 p then st.late_drops <- st.late_drops + 1
      else if expired st w1 p then begin
        if not (Hashtbl.mem st.panes p) then Hashtbl.add st.panes p born_dead
      end
      else begin
        let tbl =
          match Hashtbl.find st.panes p with
          | tbl -> tbl
          | exception Not_found ->
              let tbl = zset () in
              Hashtbl.add st.panes p tbl;
              tbl
        in
        let gt = Tuple.project tp st.wgroup in
        zadd tbl gt w;
        zadd out (pane_row st p gt) w
      end)
    d;
  st.watermark <- w1;
  (* Watermark-driven retraction: the epoch's final watermark expires
     whole panes at once — their rows leave the output and their state
     is dropped, so later arrivals for them are late drops. *)
  let dead = Hashtbl.fold (fun p _ acc -> if expired st w1 p then p :: acc else acc) st.panes [] in
  List.iter
    (fun p ->
      Flat_tbl.iter (fun gt acc -> zadd out (pane_row st p gt) (-acc)) (Hashtbl.find st.panes p);
      Hashtbl.remove st.panes p;
      st.retracted_panes <- st.retracted_panes + 1)
    dead

(* Evaluate one node into its (empty) accumulator from its inputs'. *)
let eval_node n =
  let input i = (List.nth n.inputs i).acc in
  match n.op with
  | Source _ -> () (* fed straight from the batch *)
  | Filter { pred; _ } ->
      let d = input 0 in
      Flat_tbl.reserve n.acc (Flat_tbl.length d);
      Flat_tbl.iter (fun tp m -> if pred tp then zadd n.acc tp m) d
  | Aggregate { agroup; lift; akey; _ } ->
      Flat_tbl.iter
        (fun tp m ->
          for i = 0 to Array.length agroup - 1 do
            Tuple.set akey i (Tuple.get tp agroup.(i))
          done;
          zadd n.acc akey (m * lift tp))
        (input 0)
  | Join st -> eval_join st (input 0) (input 1) n.acc
  | Distinct { mult } -> eval_distinct mult (input 0) n.acc
  | Extrema st -> eval_extrema st (input 0) n.acc
  | Window st -> eval_window st (input 0) n.acc

(* --- epoch propagation -------------------------------------------------- *)

let rec feed sources (u : int Update.t) =
  match sources with
  | [] -> ()
  | n :: rest ->
      (match n.op with
      | Source { rel } when String.equal rel u.Update.rel ->
          zadd n.acc u.Update.tuple u.Update.payload
      | _ -> ());
      feed rest u

(* Feed the batch into the source accumulators (sized for it up front),
   push it through the DAG and fold every view's accumulator into its
   materialized output. The accumulators stay filled until [reset], so
   a caller can read a view's delta first. *)
let propagate g (ups : int Update.t list) =
  let order = schedule g in
  let n = List.length ups in
  List.iter (fun s -> Flat_tbl.reserve s.acc n) g.sources;
  List.iter (feed g.sources) ups;
  List.iter eval_node order;
  List.iter
    (fun v ->
      let d = v.vnode.acc in
      Flat_tbl.reserve v.out (Flat_tbl.length d);
      Flat_tbl.iter (zadd v.out) d)
    g.views;
  order

let apply g (ups : int Update.t list) = if ups <> [] then List.iter reset (propagate g ups)

let find_view g name =
  match List.find_opt (fun v -> v.vname = name) g.views with
  | Some v -> v
  | None -> invalid_arg ("Graph: no view " ^ name)

let apply_delta g (ups : int Update.t list) ~view =
  let v = find_view g view in
  if ups = [] then []
  else begin
    let order = propagate g ups in
    let d = Flat_tbl.fold (fun tp m acc -> (tp, m) :: acc) v.vnode.acc [] in
    List.iter reset order;
    d
  end

(* --- reads -------------------------------------------------------------- *)

let entries g name =
  let v = find_view g name in
  Flat_tbl.fold (fun tp m acc -> (tp, m) :: acc) v.out []
  |> List.sort (fun (t1, p1) (t2, p2) ->
         match Tuple.compare t1 t2 with 0 -> compare p1 p2 | c -> c)

let output_count g name = Flat_tbl.length (find_view g name).out
let iter_output g name f = Flat_tbl.iter f (find_view g name).out

let view_names g = List.rev_map (fun v -> v.vname) g.views

let relations g =
  List.sort_uniq compare
    (List.filter_map (fun n -> match n.op with Source { rel } -> Some rel | _ -> None) g.sources)

let view_schema g name = (find_view g name).vnode.schema

(* --- introspection ------------------------------------------------------ *)

let node_count g = List.length g.nodes

let rescans g =
  List.fold_left
    (fun acc n -> match n.op with Extrema st -> acc + st.rescans | _ -> acc)
    0 g.nodes

let late_drops g =
  List.fold_left
    (fun acc n -> match n.op with Window st -> acc + st.late_drops | _ -> acc)
    0 g.nodes

let retracted_panes g =
  List.fold_left
    (fun acc n -> match n.op with Window st -> acc + st.retracted_panes | _ -> acc)
    0 g.nodes

let op_name = function
  | Source { rel } -> Printf.sprintf "source(%s)" rel
  | Filter { flabel; _ } -> Printf.sprintf "filter[%s]" flabel
  | Aggregate { alabel; _ } -> Printf.sprintf "aggregate[%s]" alabel
  | Join st ->
      Printf.sprintf "join[key arity %d]" (Array.length st.left.key)
  | Distinct _ -> "distinct"
  | Extrema st -> Printf.sprintf "extrema[%s]" st.elabel
  | Window st ->
      Printf.sprintf "window[size=%d%s]" st.size
        (if st.lateness = 0 then "" else Printf.sprintf " late=%d" st.lateness)

let describe g =
  let line n =
    let ins =
      match n.inputs with
      | [] -> ""
      | l -> " <- " ^ String.concat "," (List.map (fun i -> Printf.sprintf "n%d" i.id) l)
    in
    let outs =
      match List.filter_map (fun v -> if v.vnode == n then Some v.vname else None) g.views with
      | [] -> ""
      | names -> " => " ^ String.concat "," names
    in
    Printf.sprintf "n%d: %s%s -> (%s)%s" n.id (op_name n.op) ins
      (Schema.to_string n.schema) outs
  in
  List.map line (schedule g)

(* Order-independent digest of every operator's internal state plus the
   materialized view outputs — what a checkpoint/restore equivalence
   check compares. Same mixing constant as
   [Maintainable.entries_fingerprint] so digests stay in one family. *)
let state_fingerprint g =
  let mix acc h p = (acc + (h lxor (p * 0x9E3779B9))) land max_int in
  let entry_fp seed tp p acc = mix acc (Tuple.hash tp lxor seed) p in
  let tbl_fp seed tbl = Tuple.Tbl.fold (entry_fp seed) tbl 0 in
  let zset_fp seed z = Flat_tbl.fold (entry_fp seed) z 0 in
  let node_fp n =
    match n.op with
    | Source _ | Filter _ | Aggregate _ -> 0
    | Join st ->
        let side_fp seed s =
          Tuple.Tbl.fold (fun _key group acc -> (acc + tbl_fp seed group) land max_int)
            s.index 0
        in
        (side_fp 0x5bd1 st.left + side_fp 0x7f4a st.right) land max_int
    | Distinct { mult } -> zset_fp 0x632b mult
    | Extrema st ->
        Flat_tbl.fold
          (fun gt gs acc ->
            let vfp =
              Array.fold_left
                (fun a vs -> Vmap.fold (fun v m a -> mix a (Value.hash v) !m) vs a)
                (Tuple.hash gt) gs.vals
            in
            (acc + vfp) land max_int)
          st.groups 0
    | Window st ->
        let wm = if st.watermark = min_int then 0 else st.watermark + 1 in
        Hashtbl.fold
          (fun p tbl acc -> (acc + zset_fp (p * 0x9E37) tbl) land max_int)
          st.panes wm
  in
  let ops = List.fold_left (fun acc n -> (acc + node_fp n) land max_int) 0 g.nodes in
  List.fold_left (fun acc v -> (acc + zset_fp 0x11d3 v.out) land max_int) ops g.views
