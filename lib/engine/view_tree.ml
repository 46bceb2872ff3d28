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

(* A hop factor: a sibling view (another atom anchored at the node, or
   the aggregate of a child off the path) multiplied in at a node on the
   update's leaf-to-root path. When the variables bound so far key the
   sibling, the factor is one lookup. Otherwise it iterates the
   sibling's group on the bound variables, writes each entry's unbound
   variables into their slots and runs the rest of the plan from there:
   the index nested-loop join of the delta with the sibling. *)
type factor = Lookup of site | Iterate of iterate

and iterate = {
  group_of : Rel.Index.t; (* the sibling's index on the bound variables *)
  gkey : site; (* the slots of that index key, and its scratch key *)
  from_pos : int array; (* positions of the unbound variables in an entry *)
  to_slot : int array; (* and the slots they bind *)
  mutable outer : int; (* the payload of the enclosing loops *)
  mutable each : Tuple.t -> int -> unit;
      (* the rest of the plan per entry, compiled at [build] so that an
         update allocates no closure *)
}

(* One hop of a compiled single-tuple update: the sibling factors
   multiplied in at the node, then the stores into its view and
   aggregate. *)
type hop = { factors : factor array; at_view : site; at_agg : site }

(* The leaf-to-root path of one relation, compiled at [build]: where
   the update tuple's fields go in the environment, and the hops. *)
type plan = { base_of : View.t; atom_slots : int array; hops : hop array }

type t = {
  query : Cq.t;
  forest : Vo.forest;
  nodes : node array;
  roots : int list;
  base : (string, View.t) Hashtbl.t;
  enumerable : bool;
  mutable delta_walk : (Value.t option array * ((Tuple.t -> int -> unit) -> unit)) option;
      (* the pinned output walk of delta enumeration, built on first use:
         its pin slots and the walk over them. Only the writer runs it. *)
  mutable negatives : int;
      (* negative base entries, 0 iff the database is valid (Sec. 2);
         current only while [counted], which plain updates clear *)
  mutable counted : bool;
  plans : (string, plan) Hashtbl.t; (* one per atom *)
  env : Value.t array; (* the plans' slot environment; writer-only *)
  mutable work : int; (* index probes plus iterated entries of the plans *)
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

(* [p] times the lookups of [sites] from the [k]-th, stopping at zero. *)
let rec product env sites k p =
  if p = 0 || k = Array.length sites then p
  else product env sites (k + 1) (p * lookup env sites.(k))

let store env s p =
  fill env s;
  View.update s.sview s.skey p

let node_count t = Array.length t.nodes

(* Total size of all materialized views (excluding base relations). *)
let views_size t =
  Array.fold_left (fun acc n -> acc + View.size n.view + View.size n.agg) 0 t.nodes

(* The order in which [parts] join a driver bound on [bound]: a part
   the bound variables key (a lookup) first, else the part overlapping
   them most. Paired with the variables bound before each part. *)
let rec join_order bound = function
  | [] -> []
  | first :: _ as parts ->
      let next =
        match List.find_opt (fun p -> Schema.subset (View.schema p) bound) parts with
        | Some p -> p
        | None ->
            let score p = Schema.arity (Schema.inter (View.schema p) bound) in
            List.fold_left (fun b p -> if score p > score b then p else b) first parts
      in
      (next, bound)
      :: join_order (Schema.union bound (View.schema next)) (List.filter (( != ) next) parts)

(* Bulk [build]'s join of a node's parts, reshaped to [full]. *)
let join_parts (driver : Rel.t) (parts : View.t list) (full : Schema.t) : Rel.t =
  let parts = List.map fst (join_order (Rel.schema driver) parts) in
  Rel.project_onto (List.fold_left Eval.extend driver parts) full

(* The single-tuple update plans. An update writes its tuple's fields
   into the environment, stores the tuple in its base view and runs the
   hops: at each node from its anchor to the root, the factors in turn,
   then the stores of the payload product into the node's view and
   aggregate. An [Iterate] factor runs the rest of the plan once per
   entry of its group, so the stores see every binding of the joined
   variables — the delta view tree of Fig. 3 as a nested loop, with no
   intermediate relation. Only entries new to a view allocate (their
   copied key); an update of stored tuples allocates nothing.

   Invariant: an iterated group belongs to a sibling, and no sibling is
   on the update's leaf-to-root path. The base view written is the
   updated atom's (queries are self-join free), the other atoms are
   only read, and off-path aggregates are not written; the hops store
   only into the path's views and aggregates. So no hop mutates an
   index it is iterating. *)
let rec run t hops h j p =
  let hop = hops.(h) in
  if j < Array.length hop.factors then begin
    t.work <- t.work + 1;
    match hop.factors.(j) with
    | Lookup s ->
        let p = p * lookup t.env s in
        if p <> 0 then run t hops h (j + 1) p
    | Iterate it ->
        fill t.env it.gkey;
        it.outer <- p;
        Rel.Index.iter_group it.group_of it.gkey.skey it.each
  end
  else begin
    store t.env hop.at_view p;
    store t.env hop.at_agg p;
    if h + 1 < Array.length hops then run t hops (h + 1) 0 p
  end

(* [Iterate it]'s continuation, the [j]-th factor of hop [h]. Nested
   loops never re-enter a factor, so [it.outer] holds for the whole
   iteration. *)
let continue_after t hops h j it entry q =
  t.work <- t.work + 1;
  for i = 0 to Array.length it.from_pos - 1 do
    t.env.(it.to_slot.(i)) <- Tuple.get entry it.from_pos.(i)
  done;
  run t hops h (j + 1) (it.outer * q)

(* The factor of [part] under the variables [bound] before it. *)
let factor slot_of part bound =
  let schema = View.schema part in
  if Schema.subset schema bound then Lookup (site slot_of part schema)
  else
    let key = Schema.inter schema bound and fresh = Schema.diff schema bound in
    Iterate
      {
        group_of = View.index_on part key;
        gkey = site slot_of part key;
        from_pos = Schema.projection schema fresh;
        to_slot = slots slot_of fresh;
        outer = 0;
        each = (fun _ _ -> ());
      }

(* The parts joined at node [n]: its atoms and its children's
   aggregates, but the atom [except] and the child [from]. *)
let parts t n ~except ~from =
  List.filter_map
    (fun r -> if Some r = except then None else Some (Hashtbl.find t.base r))
    n.local_atoms
  @ List.filter_map (fun c -> if c = from then None else Some t.nodes.(c).agg) n.children

(* Compile the plan of [atom], anchored at node [anchor]. Its siblings
   are the parts at each node of the path but the atom itself (anchored
   only at [anchor]) and the child the update comes through. *)
let compile t slot_of anchor (atom : Cq.atom) =
  let rec hops id came_from bound acc =
    if id < 0 then Array.of_list (List.rev acc)
    else
      let n = t.nodes.(id) in
      let ordered = join_order bound (parts t n ~except:(Some atom.Cq.rel) ~from:came_from) in
      let bound = List.fold_left (fun b (p, _) -> Schema.union b (View.schema p)) bound ordered in
      let hop =
        {
          factors = Array.of_list (List.map (fun (p, b) -> factor slot_of p b) ordered);
          at_view = site slot_of n.view n.full;
          at_agg = site slot_of n.agg n.dep;
        }
      in
      hops n.parent id bound (hop :: acc)
  in
  let hops = hops anchor (-1) (Schema.of_list atom.Cq.vars) [] in
  Array.iteri
    (fun h hop ->
      Array.iteri
        (fun j -> function
          | Iterate it -> it.each <- (fun entry q -> continue_after t hops h j it entry q)
          | Lookup _ -> ())
        hop.factors)
    hops;
  {
    base_of = Hashtbl.find t.base atom.Cq.rel;
    atom_slots = slots slot_of (Schema.of_list atom.Cq.vars);
    hops;
  }

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
  let slot_of = slot_table query in
  let t =
    {
      query;
      forest;
      nodes;
      roots;
      base;
      enumerable = Vo.free_top query forest;
      delta_walk = None;
      negatives = 0;
      counted = false;
      plans = Hashtbl.create 8;
      env = Array.make (Hashtbl.length slot_of) (Value.Int 0);
      work = 0;
    }
  in
  (* Populate views bottom-up (preprocessing, O(N) for q-hierarchical).
     The group index used by enumeration is created here so that its
     construction is part of preprocessing and its maintenance part of
     every update. *)
  let rec populate id =
    let n = nodes.(id) in
    List.iter populate n.children;
    let v =
      match parts t n ~except:None ~from:(-1) with
      | [] -> invalid_arg "View_tree.build: node with no parts"
      | first :: rest -> join_parts (Rel.copy (View.relation first)) rest n.full
    in
    View.apply_delta n.view v;
    View.apply_delta n.agg (Rel.project_onto v n.dep);
    if t.enumerable then ignore (View.index_on n.view n.dep)
  in
  List.iter populate roots;
  List.iteri
    (fun i (a : Cq.atom) ->
      let anchor = List.find (fun n -> String.equal n.var anchors.(i)) (Array.to_list nodes) in
      Hashtbl.replace t.plans a.Cq.rel (compile t slot_of anchor.id a))
    query.Cq.atoms;
  t

let work t = t.work

(** Single-tuple update (insert for positive payload, delete for
    negative) through the relation's compiled plan. *)
let apply_update (t : t) (u : int Ivm_data.Update.t) : unit =
  t.counted <- false;
  let rel = u.Ivm_data.Update.rel and tuple = u.Ivm_data.Update.tuple in
  let plan =
    match Hashtbl.find t.plans rel with
    | plan -> plan
    | exception Not_found -> invalid_arg ("View_tree.apply_update: no atom for relation " ^ rel)
  in
  for i = 0 to Array.length plan.atom_slots - 1 do
    t.env.(plan.atom_slots.(i)) <- Tuple.get tuple i
  done;
  let p = u.Ivm_data.Update.payload in
  View.update plan.base_of tuple p;
  if p <> 0 then run t plan.hops 0 0 p

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
      let factor = product env sites 0 1 in
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
