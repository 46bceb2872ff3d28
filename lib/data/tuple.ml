(** Tuples are immutable arrays of values, positionally aligned with a
    {!Schema}, carrying a memoized structural hash. The empty tuple
    [unit] is the tuple over the empty schema, the key of scalar (fully
    aggregated) views.

    The hash cache is what makes hash-table-heavy maintenance cheap: a
    tuple is typically probed several times (relation + group indexes,
    find then replace) and rehashed wholesale on every table resize;
    with the cache each of those costs one int read instead of a
    traversal of the value array. The cache is filled lazily on first
    {!hash} so tuples that are only ever enumerated never pay for it.

    {!scratch} buffers are the one mutable exception: probe keys filled
    in place between lookups. The [is_scratch] flag marks them so the
    storage layer ({!Flat_tbl}, and through it {!Relation}) can refuse
    to store one as a table key — a stored scratch tuple would keep
    mutating under the table's feet and silently corrupt it. *)

type t = {
  vals : Value.t array;
  mutable h : int; (* memoized hash; negative = not yet computed *)
  is_scratch : bool; (* mutable probe buffer: must never be stored *)
}

let wrap vals = { vals; h = -1; is_scratch = false }
let unit : t = wrap [||]
let of_list vs = wrap (Array.of_list vs)
let of_array vs = wrap vs
let to_list t = Array.to_list t.vals
let of_ints is = wrap (Array.of_list (List.map Value.of_int is))
let init n f = wrap (Array.init n f)
let arity t = Array.length t.vals
let get t i = t.vals.(i)
let is_scratch t = t.is_scratch

let hash t =
  if t.h >= 0 then t.h
  else begin
    let h = Hashtbl.hash t.vals land max_int in
    t.h <- h;
    h
  end

(* Top-level, not inner [let rec]s over the arrays: the non-flambda
   compiler would allocate those closures on every call. *)
let rec equal_from va vb i =
  i < 0 || (Value.equal va.(i) vb.(i) && equal_from va vb (i - 1))

let equal a b =
  a == b
  || (Array.length a.vals = Array.length b.vals
     && (a.h < 0 || b.h < 0 || Int.equal a.h b.h)
     && equal_from a.vals b.vals (Array.length a.vals - 1))

let rec compare_from va vb i =
  if i >= Array.length va then 0
  else
    let c = Value.compare va.(i) vb.(i) in
    if c <> 0 then c else compare_from va vb (i + 1)

let compare a b =
  let c = Int.compare (Array.length a.vals) (Array.length b.vals) in
  if c <> 0 then c else compare_from a.vals b.vals 0

(* [project t idxs] picks the fields of [t] at positions [idxs]. Always
   a fresh immutable tuple, even when [t] is a scratch buffer — so
   projections of probe keys are safe to store. *)
let project t (idxs : int array) : t =
  wrap (Array.map (fun i -> t.vals.(i)) idxs)

let append a b : t = wrap (Array.append a.vals b.vals)

(* Reusable probe buffers: a scratch tuple is mutated in place between
   lookups, so the hot enumeration loops allocate nothing per probe.
   [set] invalidates the memoized hash; the [is_scratch] flag lets the
   storage layer reject any attempt to *store* one as a table key. *)
let scratch n : t = { vals = Array.make n (Value.Int 0); h = -1; is_scratch = true }

let set t i v =
  t.vals.(i) <- v;
  t.h <- -1

(* The copy keeps the memoized hash: a probe has usually computed it. *)
let freeze t =
  if t.is_scratch then { t with vals = Array.copy t.vals; is_scratch = false } else t

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Value.pp)
    (to_list t)

let to_string t = Format.asprintf "%a" pp t

(** Hashtables keyed by tuples. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
