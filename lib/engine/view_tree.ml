(** View trees: the factorized maintenance structure of F-IVM
    (Sec. 4.1, Fig. 3).

    A view tree follows a variable order: each variable X carries a view
    V_X keyed by dep(X) ∪ {X} — the join of the atoms anchored at X and
    of the child aggregates — and an aggregate A_X keyed by dep(X) that
    marginalizes X. A single-tuple update to a leaf relation propagates
    along the leaf-to-root path (Fig. 3, middle and right); for
    q-hierarchical queries every hop costs O(1).

    The query output is distributed over the views (factorized): it is
    enumerated with constant delay by descending from the roots when the
    free variables form a connex top fragment of the order. *)

module Rel = Ivm_data.Relation.Z
module Schema = Ivm_data.Schema
module Tuple = Ivm_data.Tuple
module Value = Ivm_data.Value
module Cq = Ivm_query.Cq
module Vo = Ivm_query.Variable_order

type node = {
  id : int;
  var : string;
  free : bool;
  dep : Schema.t;
  full : Schema.t;
  view : View.t;
  agg : View.t;
  parent : int; (* -1 for roots *)
  mutable children : int list;
  local_atoms : string list;
}

(* A lookup site: a view, the slots of its key schema in a slot-array
   environment (one slot per query variable), and a scratch key reused
   across lookups — the machinery both the compiled update hops and the
   output walk run on, so neither allocates per probe. *)
type site = { sview : View.t; sslots : int array; skey : Tuple.t }

(* One hop of a compiled single-tuple update: the sibling lookups
   multiplied in at the node, then the stores into its view and
   aggregate. *)
type hop = { factors : site array; at_view : site; at_agg : site }

(* The leaf-to-root path of one relation, compiled at [build]: where
   the update tuple's fields go in the environment, and the hops. *)
type plan = { base_of : View.t; atom_slots : int array; hops : hop array }

type t = {
  query : Cq.t;
  forest : Vo.forest;
  nodes : node array;
  roots : int list;
  base : (string, View.t) Hashtbl.t;
  anchor_of : (string, int) Hashtbl.t;
  enumerable : bool;
  mutable delta_walk : (Value.t option array * ((Tuple.t -> int -> unit) -> unit)) option;
      (* the pinned output walk of delta enumeration, built on first use:
         its pin slots and the walk over them. Only the writer runs it. *)
  mutable negatives : int;
      (* negative base entries, 0 iff the database is valid (Sec. 2);
         current only while [counted], which plain updates clear *)
  mutable counted : bool;
  plans : (string, plan) Hashtbl.t;
      (* hop plans of the relations whose single-tuple updates propagate
         by pure lookups: at every node on the leaf-to-root path all
         sibling views and atoms are keyed within the fixed variables —
         the O(1) update property of q-hierarchical queries, detected
         statically. *)
  env : Value.t array; (* the plans' slot environment; writer-only *)
}

let base_view t rel =
  match Hashtbl.find t.base rel with
  | v -> v
  | exception Not_found -> invalid_arg ("View_tree.base_view: unknown relation " ^ rel)

let slot_table (q : Cq.t) =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace tbl v i) (Cq.vars q);
  tbl

let slots slot_of schema =
  Array.of_list (List.map (Hashtbl.find slot_of) (Schema.to_list schema))

let site slot_of view schema =
  let sl = slots slot_of schema in
  { sview = view; sslots = sl; skey = Tuple.scratch (Array.length sl) }

let fill env s =
  for i = 0 to Array.length s.sslots - 1 do
    Tuple.set s.skey i env.(s.sslots.(i))
  done

let lookup env s =
  fill env s;
  View.get s.sview s.skey

let node_count t = Array.length t.nodes

(* Total size of all materialized views (excluding base relations). *)
let views_size t =
  Array.fold_left (fun acc n -> acc + View.size n.view + View.size n.agg) 0 t.nodes

(* Join the driver delta with a list of parts and reshape to [full]. *)
let join_parts (driver : Rel.t) (parts : View.t list) (full : Schema.t) : Rel.t =
  (* Prefer parts that are fully bound by the driver (pure lookups). *)
  let rec order bound acc = function
    | [] -> List.rev acc
    | parts ->
        let fully_bound p = Schema.subset (View.schema p) bound in
        let next =
          match List.find_opt fully_bound parts with
          | Some p -> p
          | None ->
              (* Pick the part overlapping the most. *)
              let score p =
                Schema.arity (Schema.inter (View.schema p) bound)
              in
              List.fold_left (fun b p -> if score p > score b then p else b) (List.hd parts)
                parts
        in
        order (Schema.union bound (View.schema next)) (next :: acc)
          (List.filter (fun p -> p != next) parts)
  in
  let parts = order (Rel.schema driver) [] parts in
  let joined = List.fold_left Eval.extend driver parts in
  Rel.project_onto joined full

let build (query : Cq.t) (forest : Vo.forest) (db : Ivm_data.Database.Z.t) : t =
  (match Vo.validate query forest with
  | Ok () -> ()
  | Error e -> invalid_arg ("View_tree.build: " ^ e));
  let anchors =
    match Vo.anchor query forest with Ok a -> a | Error e -> invalid_arg e
  in
  let deps = Vo.keys query forest in
  (* Base views, one per atom, with the atom's variables as schema. *)
  let base = Hashtbl.create 8 in
  List.iter
    (fun (a : Cq.atom) ->
      let schema = Schema.of_list a.Cq.vars in
      let stored = Ivm_data.Database.Z.find db a.Cq.rel in
      let rel =
        if Schema.to_list (Rel.schema stored) = a.Cq.vars then Rel.copy stored
        else Rel.project_onto stored schema
      in
      Hashtbl.replace base a.Cq.rel (View.of_relation rel))
    query.Cq.atoms;
  (* Flatten the forest into nodes, children before parents unresolved;
     assign ids in DFS preorder. *)
  let nodes = ref [] in
  let counter = ref 0 in
  let rec flatten parent (tr : Vo.t) =
    let id = !counter in
    incr counter;
    let dep = Schema.of_list (List.assoc tr.Vo.var deps) in
    let full = Schema.union dep (Schema.of_list [ tr.Vo.var ]) in
    let local_atoms =
      List.filteri (fun i _ -> String.equal anchors.(i) tr.Vo.var) query.Cq.atoms
      |> List.map (fun (a : Cq.atom) -> a.Cq.rel)
    in
    let node =
      {
        id;
        var = tr.Vo.var;
        free = Cq.is_free query tr.Vo.var;
        dep;
        full;
        view = View.create full;
        agg = View.create dep;
        parent;
        children = [];
        local_atoms;
      }
    in
    nodes := node :: !nodes;
    let kids = List.map (flatten id) tr.Vo.children in
    node.children <- kids;
    id
  in
  let roots = List.map (flatten (-1)) forest in
  let nodes =
    let arr = Array.make !counter (List.hd !nodes) in
    List.iter (fun n -> arr.(n.id) <- n) !nodes;
    arr
  in
  let anchor_of = Hashtbl.create 8 in
  List.iteri
    (fun i (a : Cq.atom) ->
      let var = anchors.(i) in
      let nid = (Array.to_list nodes |> List.find (fun n -> String.equal n.var var)).id in
      Hashtbl.replace anchor_of a.Cq.rel nid)
    query.Cq.atoms;
  (* Static fast-path analysis: the propagation path of [rel] is pure
     lookups iff at every node the sibling aggregates and local atoms
     are keyed within the variables fixed by the delta. This is the
     [constant_path] condition of the static/dynamic checker with every
     relation dynamic. Such a path compiles to a hop plan. *)
  let slot_of = slot_table query in
  let plans = Hashtbl.create 8 in
  List.iteri
    (fun i (a : Cq.atom) ->
      if Ivm_query.Static_dynamic.constant_path ~q:query ~anchors ~deps ~forest ~atom_idx:i
      then begin
        let rel = a.Cq.rel in
        let rec hops id came_from acc =
          if id < 0 then Array.of_list (List.rev acc)
          else
            let n = nodes.(id) in
            let locals =
              List.filter_map
                (fun r ->
                  if came_from = -1 && String.equal r rel then None
                  else
                    let bv = Hashtbl.find base r in
                    Some (site slot_of bv (View.schema bv)))
                n.local_atoms
            and kids =
              List.filter_map
                (fun c ->
                  if c = came_from then None
                  else Some (site slot_of nodes.(c).agg nodes.(c).dep))
                n.children
            in
            let hop =
              {
                factors = Array.of_list (locals @ kids);
                at_view = site slot_of n.view n.full;
                at_agg = site slot_of n.agg n.dep;
              }
            in
            hops n.parent id (hop :: acc)
        in
        Hashtbl.replace plans rel
          {
            base_of = Hashtbl.find base rel;
            atom_slots = Array.of_list (List.map (Hashtbl.find slot_of) a.Cq.vars);
            hops = hops (Hashtbl.find anchor_of rel) (-1) [];
          }
      end)
    query.Cq.atoms;
  let t =
    {
      query;
      forest;
      nodes;
      roots;
      base;
      anchor_of;
      enumerable = Vo.free_top query forest;
      delta_walk = None;
      negatives = 0;
      counted = false;
      plans;
      env = Array.make (Hashtbl.length slot_of) (Value.Int 0);
    }
  in
  (* Populate views bottom-up (preprocessing, O(N) for q-hierarchical).
     The group index used by enumeration is created here so that its
     construction is part of preprocessing and its maintenance part of
     every update. *)
  let rec populate id =
    let n = nodes.(id) in
    List.iter populate n.children;
    let parts =
      List.map (fun r -> Hashtbl.find base r) n.local_atoms
      @ List.map (fun c -> nodes.(c).agg) n.children
    in
    let v =
      match parts with
      | [] -> invalid_arg "View_tree.build: node with no parts"
      | first :: rest -> join_parts (Rel.copy (View.relation first)) rest n.full
    in
    View.apply_delta n.view v;
    View.apply_delta n.agg (Rel.project_onto v n.dep);
    if t.enumerable then ignore (View.index_on n.view n.dep)
  in
  List.iter populate roots;
  t

(** [apply_delta t rel d] propagates the delta relation [d] (keyed by the
    atom schema of [rel]) along the leaf-to-root path: the delta view
    tree of Fig. 3. The base relation is updated as well. *)
let apply_delta (t : t) (rel : string) (d : Rel.t) : unit =
  t.counted <- false;
  let bview = base_view t rel in
  View.apply_delta bview (Rel.project_onto d (View.schema bview));
  let rec up id came_from (d : Rel.t) =
    if id >= 0 then begin
      let n = t.nodes.(id) in
      let local =
        (* At the anchor node the updated relation itself is excluded:
           δ(R · rest) = δR · rest for a single changed atom. *)
        List.filter (fun r -> not (came_from = -1 && String.equal r rel)) n.local_atoms
      in
      let parts =
        List.map (fun r -> Hashtbl.find t.base r) local
        @ List.filter_map
            (fun c -> if c = came_from then None else Some t.nodes.(c).agg)
            n.children
      in
      let d_full = join_parts d parts n.full in
      View.apply_delta n.view d_full;
      let d_agg = Rel.project_onto d_full n.dep in
      View.apply_delta n.agg d_agg;
      up n.parent id d_agg
    end
  in
  let anchor = Hashtbl.find t.anchor_of rel in
  up anchor (-1) (Rel.project_onto d (Schema.of_list (Cq.find_atom t.query rel).Cq.vars))

(* Fast path for single-tuple updates on relations whose propagation is
   pure lookups: the compiled hop plan. The update tuple's fields go
   into the slot environment, and each hop fills scratch keys from it —
   no intermediate relation, environment or projection is allocated;
   only tuples that become new view entries are. The base view stores
   the update's own tuple (its schema is the atom's variables). This is
   the constant the paper's "constant update time" refers to. *)
let rec hop_factors env factors k p =
  if p = 0 || k = Array.length factors then p
  else hop_factors env factors (k + 1) (p * lookup env factors.(k))

let store env s p =
  fill env s;
  View.update s.sview s.skey p

let rec run_hops env hops k p =
  if k < Array.length hops && p <> 0 then begin
    let h = hops.(k) in
    let p = hop_factors env h.factors 0 p in
    if p <> 0 then begin
      store env h.at_view p;
      store env h.at_agg p;
      run_hops env hops (k + 1) p
    end
  end

let apply_plan t plan (tuple : Tuple.t) (payload : int) =
  for i = 0 to Array.length plan.atom_slots - 1 do
    t.env.(plan.atom_slots.(i)) <- Tuple.get tuple i
  done;
  View.update plan.base_of tuple payload;
  run_hops t.env plan.hops 0 payload

(** Single-tuple update (insert for positive payload, delete for
    negative). Uses the lookup-only fast path when the static analysis
    allows it, the generic delta propagation otherwise. *)
let apply_update (t : t) (u : int Ivm_data.Update.t) : unit =
  t.counted <- false;
  let rel = u.Ivm_data.Update.rel in
  match Hashtbl.find t.plans rel with
  | plan -> apply_plan t plan u.Ivm_data.Update.tuple u.Ivm_data.Update.payload
  | exception Not_found ->
    let schema = Schema.of_list (Cq.find_atom t.query rel).Cq.vars in
    let d = Rel.create ~size:1 schema in
    Rel.add_entry d u.Ivm_data.Update.tuple u.Ivm_data.Update.payload;
    apply_delta t rel d

(** Full aggregate of a query with no free variables (e.g. the triangle
    count): the product of the root aggregates. *)
let total_aggregate (t : t) : int =
  List.fold_left (fun acc r -> acc * View.scalar t.nodes.(r).agg) 1 t.roots

(** Constant-delay enumeration of the output, as (tuple over free
    variables, aggregate payload) pairs. Requires the free variables to
    form a connex top fragment (guaranteed for q-hierarchical queries
    with the canonical order).

    As in the paper (Sec. 2), the database must be *valid*: all base
    multiplicities non-negative. Negative multiplicities can cancel a
    marginal aggregate to zero while the underlying tuples remain, which
    breaks the top-down calibration the enumeration relies on. *)
let enumerate (t : t) : (Tuple.t * int) Seq.t =
  if not t.enumerable then
    invalid_arg "View_tree.enumerate: free variables are not a connex top fragment";
  let free_roots, bound_roots = List.partition (fun r -> t.nodes.(r).free) t.roots in
  let scalar_factor =
    List.fold_left (fun acc r -> acc * View.scalar t.nodes.(r).agg) 1 bound_roots
  in
  if scalar_factor = 0 then Seq.empty
  else begin
    let lookup env v = List.assoc v env in
    let key_of env schema = Tuple.of_list (List.map (lookup env) (Schema.to_list schema)) in
    let rec enum_nodes ids env acc () =
      match ids with
      | [] -> Seq.Cons ((env, acc), Seq.empty)
      | id :: rest ->
          let n = t.nodes.(id) in
          let ix = View.index_on n.view n.dep in
          let xpos = Schema.position n.full n.var in
          let group = Rel.Index.seq_group ix (key_of env n.dep) in
          Seq.flat_map
            (fun (full_t, _) ->
              let env' = (n.var, Tuple.get full_t xpos) :: env in
              let local =
                List.fold_left
                  (fun acc r ->
                    let bv = Hashtbl.find t.base r in
                    acc * View.get bv (key_of env' (View.schema bv)))
                  1 n.local_atoms
              in
              let free_kids, bound_kids =
                List.partition (fun c -> t.nodes.(c).free) n.children
              in
              let bfactor =
                List.fold_left
                  (fun acc c ->
                    let cn = t.nodes.(c) in
                    acc * View.get cn.agg (key_of env' cn.dep))
                  1 bound_kids
              in
              let factor = local * bfactor in
              if factor = 0 then Seq.empty
              else enum_nodes (free_kids @ rest) env' (acc * factor))
            group
            ()
    in
    let out_vars = t.query.Cq.free in
    Seq.map
      (fun (env, p) ->
        (Tuple.of_list (List.map (lookup env) out_vars), p * scalar_factor))
      (enum_nodes free_roots [] 1)
  end

(** Callback-based output enumeration: same traversal as {!enumerate}
    but with a slot-array environment and reusable key buffers, so the
    per-tuple constant is a handful of hash lookups. Only the emitted
    output tuples are freshly allocated. This is what the throughput
    benchmarks drive; {!enumerate} remains the lazy constant-delay
    iterator.

    With [pins] (one slot per node, empty for a full walk) the walk is
    restricted to the outputs whose free variables take the pinned
    values: at a free node whose slot holds a value, the group scan
    becomes one probe of the node's view, so only the matching outputs
    are visited. The walk is set up once and may be run again after the
    views change, with the pins reassigned in between. *)
let output_walker (t : t) ~(pins : Value.t option array) : (Tuple.t -> int -> unit) -> unit =
  if not t.enumerable then
    invalid_arg "View_tree.iter_output: free variables are not a connex top fragment";
  let free_roots, bound_roots = List.partition (fun r -> t.nodes.(r).free) t.roots in
  let slot_of = slot_table t.query in
  let env = Array.make (max 1 (Hashtbl.length slot_of)) (Value.Int 0) in
  (* Per-free-node enumeration state: all lookup sites as arrays so
     the per-tuple loop allocates nothing but the emitted tuple. *)
  let enodes =
    Array.map
      (fun n ->
        let sites =
          Array.of_list
            (List.map
               (fun r ->
                 let bv = Hashtbl.find t.base r in
                 site slot_of bv (View.schema bv))
               n.local_atoms
            @ List.filter_map
                (fun c ->
                  let cn = t.nodes.(c) in
                  if cn.free then None else Some (site slot_of cn.agg cn.dep))
                n.children)
        in
        ( View.index_on n.view n.dep,
          site slot_of n.view n.dep,
          Hashtbl.find slot_of n.var,
          Schema.position n.full n.var,
          sites,
          List.filter (fun c -> t.nodes.(c).free) n.children,
          (* A pinned free node probes its own view for the one
             binding instead of scanning its group. *)
          if n.free && Array.length pins > 0 then Some (site slot_of n.view n.full) else None ))
      t.nodes
  in
  let out_slots = slots slot_of (Schema.of_list t.query.Cq.free) in
  fun f ->
    let scalar_factor =
      List.fold_left (fun acc r -> acc * View.scalar t.nodes.(r).agg) 1 bound_roots
    in
    let rec visit ids acc =
      match ids with
      | [] ->
          f (Tuple.init (Array.length out_slots) (fun i -> env.(out_slots.(i)))) (acc * scalar_factor)
      | id :: rest -> (
          let ix, dep, xslot, xpos, sites, free_kids, probe = enodes.(id) in
          match (probe, if Array.length pins = 0 then None else pins.(id)) with
          | Some probe, Some v ->
              env.(xslot) <- v;
              if lookup env probe <> 0 then descend sites free_kids rest acc
          | _ ->
              fill env dep;
              Rel.Index.iter_group ix dep.skey (fun full_t _ ->
                  env.(xslot) <- Tuple.get full_t xpos;
                  descend sites free_kids rest acc))
      (* NB: iter_group iterates a hash bucket; [visit] must not mutate
         the views, which holds since enumeration is read-only. *)
    (* The variable of the node just bound: multiply in its atoms and
       bound children, then go on to its free children. *)
    and descend sites free_kids rest acc =
      let factor = hop_factors env sites 0 1 in
      if factor <> 0 then visit (free_kids @ rest) (acc * factor)
    in
    if scalar_factor <> 0 then visit free_roots 1

let iter_output t f = output_walker t ~pins:[||] f

(** Materialize the enumeration into a relation keyed by the free
    variables — used in tests and by lazy strategies. *)
let output_relation (t : t) : Rel.t =
  let out = Rel.create (Schema.of_list t.query.Cq.free) in
  iter_output t (fun tp p -> Rel.add_entry out tp p);
  out

(** The number of output tuples. *)
let output_count (t : t) : int =
  let n = ref 0 in
  iter_output t (fun _ _ -> incr n);
  !n

let compare_entry (a, _) (b, _) = Tuple.compare a b

let rec position v vars k =
  match vars with [] -> -1 | x :: rest -> if String.equal x v then k else position v rest (k + 1)

(* [after - before] of two tuple-sorted entry lists. *)
let rec diff_sorted before after =
  match (before, after) with
  | [], rest -> rest
  | rest, [] -> List.map (fun (tp, p) -> (tp, -p)) rest
  | ((tb, pb) :: bs as before), ((ta, pa) :: as_ as after) ->
      let c = Tuple.compare tb ta in
      if c < 0 then (tb, -pb) :: diff_sorted bs after
      else if c > 0 then (ta, pa) :: diff_sorted before as_
      else if pa = pb then diff_sorted bs as_
      else (ta, pa - pb) :: diff_sorted bs as_

(* [after - before] of [walk] around [apply ()]. *)
let diff_walks walk apply =
  let before = ref [] and after = ref [] in
  walk (fun tp p -> before := (tp, p) :: !before);
  apply ();
  walk (fun tp p -> after := (tp, p) :: !after);
  diff_sorted (List.sort compare_entry !before) (List.sort compare_entry !after)

(* The output walk pinned to the free variables of [u]'s atom. *)
let pinned_walk t (u : int Ivm_data.Update.t) =
  let atom = Cq.find_atom t.query u.Ivm_data.Update.rel in
  let pins, walk =
    match t.delta_walk with
    | Some w -> w
    | None ->
        let pins = Array.make (Array.length t.nodes) None in
        let w = (pins, output_walker t ~pins) in
        t.delta_walk <- Some w;
        w
  in
  Array.iteri
    (fun id n ->
      let k = if n.free then position n.var atom.Cq.vars 0 else -1 in
      pins.(id) <- (if k < 0 then None else Some (Tuple.get u.Ivm_data.Update.tuple k)))
    t.nodes;
  walk

(** Delta enumeration (the paper's footnote 2): apply a batch of
    single-tuple updates and enumerate only the change to the query
    output, as (tuple over the free variables, payload delta) pairs.

    Every output tuple an update can change agrees with it on the free
    variables of the updated atom, so its change is the difference of
    the output enumerated with those variables pinned, before and after
    the update; for q-hierarchical queries that touches only the
    affected outputs. That needs a valid database (Sec. 2): once a base
    multiplicity is negative (a delete ahead of its insert, as
    concurrent producers of a commuting stream deliver them), an
    aggregate can cancel to zero over live tuples and hide outputs the
    pins miss, so from there on the batch is diffed with two
    whole-output walks.
    @raise Invalid_argument when the output is not enumerable, as
    {!enumerate}. *)
let apply_batch_enumerating (t : t) (batch : int Ivm_data.Update.t list) : (Tuple.t * int) list =
  if not t.counted then
    t.negatives <-
      Hashtbl.fold
        (fun _ v n -> Rel.fold (fun _ p n -> if p < 0 then n + 1 else n) (View.relation v) n)
        t.base 0;
  (* A base view's schema is its atom's variables: the tuple is its key. *)
  let base (u : int Ivm_data.Update.t) = View.get (base_view t u.rel) u.tuple in
  let apply (u : int Ivm_data.Update.t) b =
    t.negatives <- t.negatives - Bool.to_int (b < 0) + Bool.to_int (b + u.payload < 0);
    apply_update t u
  in
  let rec go acc = function
    | [] -> acc
    | (u : int Ivm_data.Update.t) :: rest as batch ->
        let b = base u in
        if t.negatives > 0 || b + u.payload < 0 then
          let apply_rest () = List.iter (fun u -> apply u (base u)) batch in
          List.rev_append (diff_walks (iter_output t) apply_rest) acc
        else go (List.rev_append (diff_walks (pinned_walk t u) (fun () -> apply u b)) acc) rest
  in
  let delta = go [] batch in
  t.counted <- true;
  delta
