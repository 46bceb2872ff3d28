(** Queries over static and dynamic relations (Sec. 4.5).

    Relations updated rarely can be declared static for a maintenance
    window; then non-q-hierarchical queries may still enjoy constant
    update time and constant enumeration delay. Following the paper's
    intuition, a variable order witnesses tractability in the mixed
    setting when (i) updates to every dynamic relation propagate to the
    root with constant-time steps — at every node on the propagation
    path, the keys of sibling views and the schemas of sibling atoms are
    already fixed by the delta — and (ii) the free variables form a
    connex top fragment of the order.

    The full syntactic characterization is in the cited technical report
    [17]; our checker searches all variable orders for queries with at
    most [max_search_vars] variables and is exact on them (every paper
    example has ≤ 5 variables). *)

module SSet = Set.Make (String)

type kind = Static | Dynamic
type adornment = (string * kind) list

let kind_of (ad : adornment) rel =
  match List.assoc_opt rel ad with Some k -> k | None -> Dynamic

let max_search_vars = 7

(* Constant-propagation check for one dynamic atom anchored at [anchor]:
   walk the path anchor -> root; at each node the other anchored atoms
   and the sibling subtrees must be retrievable by constant-time lookups
   on the currently fixed variables. *)
let constant_path ~(q : Cq.t) ~(anchors : string array) ~(deps : (string * string list) list)
    ~(forest : Variable_order.forest) ~(atom_idx : int) =
  let atoms = Array.of_list q.Cq.atoms in
  let pathmap = Variable_order.paths forest in
  let anchor_var = anchors.(atom_idx) in
  let path = List.assoc anchor_var pathmap @ [ anchor_var ] in
  (* children map: var -> children vars *)
  let children = Hashtbl.create 16 in
  let rec collect (t : Variable_order.t) =
    Hashtbl.replace children t.var (List.map (fun c -> c.Variable_order.var) t.children);
    List.iter collect t.children
  in
  List.iter collect forest;
  let dep v = SSet.of_list (List.assoc v deps) in
  let rec walk fixed = function
    | [] -> true
    | node :: above ->
        (* Other atoms anchored at [node]. *)
        let other_atoms_ok =
          Array.to_list atoms
          |> List.mapi (fun i a -> (i, a))
          |> List.for_all (fun (i, (a : Cq.atom)) ->
                 i = atom_idx
                 || (not (String.equal anchors.(i) node))
                 || SSet.subset (SSet.of_list a.Cq.vars) fixed)
        in
        (* Subtrees hanging below [node]: their aggregate views are keyed
           by dep. The child the delta came through passes trivially,
           since at that point [fixed] is exactly its dep. *)
        let kids = Option.value (Hashtbl.find_opt children node) ~default:[] in
        let kids_ok = List.for_all (fun c -> SSet.subset (dep c) fixed) kids in
        other_atoms_ok && kids_ok
        &&
        (* After marginalizing [node], the delta is keyed by dep(node). *)
        walk (dep node) above
  in
  (* Walk leaf-to-root: reverse the root-first path. The initial fixed
     set is the schema of the updated atom. *)
  let fixed0 = SSet.of_list atoms.(atom_idx).Cq.vars in
  walk fixed0 (List.rev path)

(** [is_witness q ad forest]: [forest] is a valid order for [q] with a
    connex free top, under which an update to every dynamic atom
    propagates to the root with constant-time steps. *)
let is_witness (q : Cq.t) (ad : adornment) (forest : Variable_order.forest) =
  Variable_order.validate q forest = Ok ()
  && Variable_order.free_top q forest
  &&
  match Variable_order.anchor q forest with
  | Error _ -> false
  | Ok anchors ->
      let deps = Variable_order.keys q forest in
      List.mapi (fun i (a : Cq.atom) -> (i, a)) q.Cq.atoms
      |> List.for_all (fun (i, (a : Cq.atom)) ->
             kind_of ad a.Cq.rel = Static
             || constant_path ~q ~anchors ~deps ~forest ~atom_idx:i)

(* Enumerate all rooted forests over [vs] via acyclic parent functions.
   Feasible for |vs| <= 7 (8^7 = 2M candidate functions). *)
let all_forests (vs : string list) : Variable_order.forest list =
  let n = List.length vs in
  let vars = Array.of_list vs in
  let results = ref [] in
  let parent = Array.make n (-1) in
  (* -1 encodes "root". *)
  let acyclic () =
    let rec depth i seen =
      if i = -1 then true
      else if List.mem i seen then false
      else depth parent.(i) (i :: seen)
    in
    let rec all i = i >= n || (depth i [] && all (i + 1)) in
    all 0
  in
  let build () =
    let rec tree i =
      let children =
        List.filter_map
          (fun j -> if parent.(j) = i then Some (tree j) else None)
          (List.init n (fun j -> j))
      in
      { Variable_order.var = vars.(i); children }
    in
    List.filter_map (fun i -> if parent.(i) = -1 then Some (tree i) else None)
      (List.init n (fun i -> i))
  in
  let rec assign i =
    if i = n then begin
      if acyclic () then results := build () :: !results
    end
    else
      for p = -1 to n - 1 do
        if p <> i then begin
          parent.(i) <- p;
          assign (i + 1)
        end
      done
  in
  assign 0;
  !results

(** [witness q ad] searches for a witness order (see {!is_witness}):
    the canonical order if it is one, else the first witness among all
    orders — exhaustive, hence exact, for queries with at most
    {!max_search_vars} variables. *)
let witness (q : Cq.t) (ad : adornment) : Variable_order.forest option =
  let vs = Cq.vars q in
  let all () =
    if List.length vs <= max_search_vars then List.to_seq (all_forests vs) () else Seq.Nil
  in
  Seq.append (Option.to_seq (Variable_order.canonical q)) all |> Seq.find (is_witness q ad)

(** In the all-dynamic setting the witness search degenerates to the
    q-hierarchical dichotomy; this cross-check is used in tests. *)
let all_dynamic (q : Cq.t) : adornment =
  List.map (fun r -> (r, Dynamic)) (Cq.relation_names q)
