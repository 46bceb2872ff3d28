(** Relations over a ring (Sec. 2): finite maps from tuples over a
    schema to non-zero ring payloads, implemented on {!Flat_tbl} — flat
    open-addressing robin-hood tables with the tuples' memoized hashes
    stored inline — with amortized constant-time lookup, insert and
    delete, and constant-delay enumeration of entries.

    The functor is over {!Ivm_ring.Sigs.SEMIRING}: the relation structure
    itself never needs additive inverses — a delete is an update whose
    payload the caller has already negated (possible whenever the payload
    domain is a ring). The ring zero doubles as the table's empty-slot
    dummy: by zero elision a stored payload is never zero, so the
    allocation-free {!Flat_tbl.find_default} with default zero reads
    "absent" without boxing an option. *)

module type S = Relation_intf.S

module Make (R : Ivm_ring.Sigs.SEMIRING) = struct
  type payload = R.t
  type t = { schema : Schema.t; data : payload Flat_tbl.t }

  let create ?(size = 16) schema = { schema; data = Flat_tbl.create ~size R.zero }
  let schema r = r.schema
  let size r = Flat_tbl.length r.data
  let get r t = Flat_tbl.find_default r.data t R.zero
  let mem r t = Flat_tbl.mem r.data t

  (* [merge r t p] merges payload [p] into the entry for [t], evicting
     the entry if the merged payload is zero — the single-tuple update
     of the paper: insert for positive [p], delete for negative [p]. One
     probe; a scratch [t] is copied only when it becomes a new entry. *)
  let merge r t p = Flat_tbl.merge r.data t p ~add:R.add ~is_zero:R.is_zero

  (* A plain store refuses a scratch key, as [Flat_tbl.set] does:
     [merge] is the entry point for probe keys. *)
  let add_entry r t p =
    if Tuple.is_scratch t then
      invalid_arg "Flat_tbl.set: scratch tuples must not be stored as table keys";
    ignore (merge r t p)

  let set_entry r t p =
    if R.is_zero p then Flat_tbl.remove r.data t else Flat_tbl.set r.data t p

  let clear r = Flat_tbl.clear r.data
  let iter f r = Flat_tbl.iter f r.data
  let fold f r acc = Flat_tbl.fold f r.data acc
  let to_seq r = Flat_tbl.to_seq r.data

  let of_list schema entries =
    let r = create ~size:(2 * List.length entries + 1) schema in
    List.iter (fun (t, p) -> add_entry r t p) entries;
    r

  let of_tuples schema tuples = of_list schema (List.map (fun t -> (t, R.one)) tuples)
  let copy r = { schema = r.schema; data = Flat_tbl.copy r.data }

  (* Extensional equality: same schema as sets is not required, only same
     variable order, since tuples are positional. The size guard is the
     cheap short-circuit (it also makes the one-sided scan sound: equal
     supports + equal payloads on [a]'s support = equal maps); the
     traversal stops at the first mismatch (exception-based: the table
     has no short-circuiting fold). *)
  let equal a b =
    a.schema = b.schema && size a = size b
    &&
    match
      Flat_tbl.iter (fun t p -> if not (R.equal (get b t) p) then raise_notrace Exit) a.data
    with
    | () -> true
    | exception Exit -> false

  (** [union a b] is the paper's [⊎]: payload-wise addition. *)
  let union a b =
    let r = copy a in
    iter (fun t p -> add_entry r t p) b;
    r

  (** [join a b] is the paper's [·] over the union schema: the payload of
      an output tuple is the product of the payloads of its projections.
      Implemented by hashing [b] on the shared variables into an
      arena-chained index: entries live in three parallel growable
      arrays and groups are singly linked through an [next] int array,
      so building the index allocates no per-entry chain cells and
      probing a group is an int-indexed walk. *)
  let join a b =
    let shared = Schema.inter a.schema b.schema in
    let out_schema = Schema.union a.schema b.schema in
    let a_shared = Schema.projection a.schema shared in
    let b_shared = Schema.projection b.schema shared in
    let b_rest_schema = Schema.diff b.schema a.schema in
    let b_rest = Schema.projection b.schema b_rest_schema in
    (* Arena: entry [e] is (rest tuple, payload, index of next entry in
       its group, or -1). [heads] maps a shared-key projection to its
       group's first entry. Pre-sized to [b] so the build never grows. *)
    let n = max 16 (size b) in
    let ent_rest = ref (Array.make n Tuple.unit) in
    let ent_pay = ref (Array.make n R.zero) in
    let ent_next = ref (Array.make n (-1)) in
    let count = ref 0 in
    let heads : int Flat_tbl.t = Flat_tbl.create ~size:n (-1) in
    iter
      (fun t p ->
        let e = !count in
        if e = Array.length !ent_rest then begin
          let grow ar fill =
            let ar' = Array.make (2 * e) fill in
            Array.blit !ar 0 ar' 0 e;
            ar := ar'
          in
          grow ent_rest Tuple.unit;
          grow ent_pay R.zero;
          grow ent_next (-1)
        end;
        let k = Tuple.project t b_shared in
        !ent_rest.(e) <- Tuple.project t b_rest;
        !ent_pay.(e) <- p;
        !ent_next.(e) <- Flat_tbl.find_default heads k (-1);
        Flat_tbl.set heads k e;
        incr count)
      b;
    let ent_rest = !ent_rest and ent_pay = !ent_pay and ent_next = !ent_next in
    let out = create ~size:(size a) out_schema in
    iter
      (fun t p ->
        let k = Tuple.project t a_shared in
        let e = ref (Flat_tbl.find_default heads k (-1)) in
        while !e >= 0 do
          add_entry out (Tuple.append t ent_rest.(!e)) (R.mul p ent_pay.(!e));
          e := ent_next.(!e)
        done)
      a;
    out

  (** [aggregate ?lift r x] is the paper's [Σ_X]: marginalizes variable
      [x], multiplying each payload by the lifting [g_X] of the
      marginalized value (default: the constant [one], i.e. counting). *)
  let aggregate ?(lift = fun (_ : Value.t) -> R.one) r x =
    let out_schema = Schema.diff r.schema (Schema.of_list [ x ]) in
    let keep = Schema.projection r.schema out_schema in
    let xpos = Schema.position r.schema x in
    let out = create ~size:(size r) out_schema in
    iter (fun t p -> add_entry out (Tuple.project t keep) (R.mul p (lift (Tuple.get t xpos)))) r;
    out

  (** [project_onto r s] marginalizes all variables of [r] not in [s]
      (with trivial lifting), reordering the result to schema [s]. *)
  let project_onto r s =
    let keep = Schema.projection r.schema s in
    let out = create ~size:(size r) s in
    iter (fun t p -> add_entry out (Tuple.project t keep) p) r;
    out

  (** [map_payloads f r] applies [f] to every payload (zero results are
      dropped). *)
  let map_payloads f r =
    let out = create ~size:(size r) r.schema in
    iter (fun t p -> add_entry out t (f p)) r;
    out

  (* The total payload of a relation over the empty schema; used to read
     off scalar aggregates such as the triangle count. *)
  let scalar r = get r Tuple.unit

  let sum_payloads r = fold (fun _ p acc -> R.add acc p) r R.zero

  let pp ppf r =
    let entries = fold (fun t p acc -> (t, p) :: acc) r [] in
    let entries = List.sort (fun (a, _) (b, _) -> Tuple.compare a b) entries in
    Format.fprintf ppf "@[<v>%a %d entries@,%a@]" Schema.pp r.schema (size r)
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (t, p) ->
           Format.fprintf ppf "%a -> %a" Tuple.pp t R.pp p))
      entries

  (** Secondary group index (Sec. 2): for a sub-schema [key] of the
      relation schema, enumerate with constant delay all tuples that
      agree on a given key projection, with amortized constant-time
      entry insertion and deletion. Both levels are flat tables: the
      outer maps key projections to per-group tables, the inner holds
      the group's full tuples with their payloads. *)
  module Index = struct
    type nonrec t = {
      rel_schema : Schema.t;
      key : Schema.t;
      proj : int array;
      groups : payload Flat_tbl.t Flat_tbl.t;
      empty : payload Flat_tbl.t;
          (* shared read-only dummy for vacated outer slots *)
      probe : Tuple.t;
          (* owned scratch key for [update]'s group lookup: mutation is
             single-writer by the table's contract, so one buffer per
             index suffices and the hot existing-group path allocates
             no projection *)
    }

    let create ~rel_schema ~key =
      if not (Schema.subset key rel_schema) then invalid_arg "Index.create: key not in schema";
      let empty = Flat_tbl.create ~size:0 R.zero in
      let proj = Schema.projection rel_schema key in
      {
        rel_schema;
        key;
        proj;
        groups = Flat_tbl.create ~size:64 empty;
        empty;
        probe = Tuple.scratch (Array.length proj);
      }

    let key_schema ix = ix.key

    (* [update ix t p] merges delta payload [p] for tuple [t]. The
       outer probe fills the owned scratch key and reads through the
       shared [empty] dummy: since a stored group is never empty (it is
       removed with its last entry), physical equality with [empty]
       means "no group yet" — only that cold path pays a real
       projection, because the scratch buffer must never be stored. *)
    let update ix t p =
      if not (R.is_zero p) then begin
        let k = ix.probe in
        for i = 0 to Array.length ix.proj - 1 do
          Tuple.set k i (Tuple.get t ix.proj.(i))
        done;
        let group =
          let g = Flat_tbl.find_default ix.groups k ix.empty in
          if g != ix.empty then g
          else begin
            let g = Flat_tbl.create ~size:8 R.zero in
            Flat_tbl.set ix.groups (Tuple.project t ix.proj) g;
            g
          end
        in
        ignore (Flat_tbl.merge group t p ~add:R.add ~is_zero:R.is_zero);
        if Flat_tbl.length group = 0 then Flat_tbl.remove ix.groups k
      end

    let of_relation ~key r =
      let ix = create ~rel_schema:r.schema ~key in
      iter (fun t p -> update ix t p) r;
      ix

    let clear ix = Flat_tbl.clear ix.groups
    let group_count ix = Flat_tbl.length ix.groups

    (* Reads go through the shared [empty] dummy: an absent group reads
       as the empty table, with no [Some] to box. *)
    let group ix k = Flat_tbl.find_default ix.groups k ix.empty
    let group_size ix k = Flat_tbl.length (group ix k)
    let iter_group ix k f = Flat_tbl.iter f (group ix k)
    let seq_group ix k = Flat_tbl.to_seq (group ix k)
    let fold_group ix k f acc = Flat_tbl.fold f (group ix k) acc
    let iter_keys ix f = Flat_tbl.iter (fun k _ -> f k) ix.groups
    let seq_keys ix = Seq.map fst (Flat_tbl.to_seq ix.groups)
    let mem_key ix k = Flat_tbl.mem ix.groups k
  end
end

(** Relations over the default ring of integer multiplicities. *)
module Z = Make (Ivm_ring.Int_ring)
