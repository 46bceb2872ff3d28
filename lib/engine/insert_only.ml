(** Insert-only maintenance (Sec. 4.6).

    Every α-acyclic join can be maintained with amortized O(1) time per
    single-tuple insert and O(1) enumeration delay — even when, like the
    path join

    Q(A,B,C,D) = R(A,B) · S(B,C) · T(C,D)

    it is not q-hierarchical and hence OuMv-hard under insert-delete
    streams (Thm. 4.1).

    The engine exploits monotonicity: a tuple becomes "active" when it
    has join partners downstream, and under inserts it never deactivates,
    so each tuple is activated at most once — the activation work is
    amortized O(1). Active tuples are kept in calibrated indexes that
    support constant-delay enumeration:

    - an S-tuple (b,c) is alive once T has a tuple with C = c;
    - an R-tuple (a,b) is active once some alive S-tuple has B = b.

    [work] counts elementary operations so benchmarks can report the
    amortized cost. *)

module Rel = Ivm_data.Relation.Z
module Schema = Ivm_data.Schema
module Tuple = Ivm_data.Tuple
module Value = Ivm_data.Value

type t = {
  r_active : Edges.t; (* R-tuples with an alive S partner, by_fst = A? indexed both *)
  r_pending : Edges.t; (* R-tuples waiting for b to come alive; by_snd = B *)
  s_alive : Edges.t; (* alive S-tuples, indexed by B *)
  s_dead : Edges.t; (* S-tuples waiting for their c in T; by_snd = C *)
  tt : Edges.t; (* T(C,D), by_fst = C *)
  mutable work : int;
}

let create () =
  {
    r_active = Edges.create "A" "B";
    r_pending = Edges.create "A" "B";
    s_alive = Edges.create "B" "C";
    s_dead = Edges.create "B" "C";
    tt = Edges.create "C" "D";
    work = 0;
  }

let work t = t.work
let b_alive t b = Edges.deg_fst t.s_alive b > 0
let c_present t c = Edges.deg_fst t.tt c > 0

(* Activate every pending R-tuple whose B-value just came alive. Each
   R-tuple moves at most once, ever. *)
let activate_r t b =
  let moved = ref [] in
  Edges.iter_snd t.r_pending b (fun a p -> moved := (a, p) :: !moved);
  List.iter
    (fun (a, p) ->
      t.work <- t.work + 1;
      Edges.update t.r_pending a b (-p);
      Edges.update t.r_active a b p)
    !moved

(* Revive every dead S-tuple whose C-value just appeared in T; reviving
   an S-tuple may in turn bring its B-value alive. *)
let revive_s t c =
  let moved = ref [] in
  Edges.iter_snd t.s_dead c (fun b p -> moved := (b, p) :: !moved);
  List.iter
    (fun (b, p) ->
      t.work <- t.work + 1;
      let was_alive = b_alive t b in
      Edges.update t.s_dead b c (-p);
      Edges.update t.s_alive b c p;
      if not was_alive then activate_r t b)
    !moved

let insert_r t ~a ~b m =
  if m < 0 then invalid_arg "Insert_only.insert_r: inserts only";
  t.work <- t.work + 1;
  if b_alive t b then Edges.update t.r_active a b m else Edges.update t.r_pending a b m

let insert_s t ~b ~c m =
  if m < 0 then invalid_arg "Insert_only.insert_s: inserts only";
  t.work <- t.work + 1;
  if c_present t c then begin
    let was_alive = b_alive t b in
    Edges.update t.s_alive b c m;
    if not was_alive then activate_r t b
  end
  else Edges.update t.s_dead b c m

let insert_t t ~c ~d m =
  if m < 0 then invalid_arg "Insert_only.insert_t: inserts only";
  t.work <- t.work + 1;
  let first = not (c_present t c) in
  Edges.update t.tt c d m;
  if first then revive_s t c

(* Insert (x, y) into slot R, S or T and, given [emit], report the
   output tuples the insert added: the new tuple joined with its
   partners — the walk of {!With_deletes.update}, run after activation,
   when every partner sits in the calibrated indexes (an S-tuple whose
   C is in T is alive, an R-tuple whose B is alive is active). *)
let insert ?emit t slot ~x ~y m =
  (match slot with
  | `R -> insert_r t ~a:x ~b:y m
  | `S -> insert_s t ~b:x ~c:y m
  | `T -> insert_t t ~c:x ~d:y m);
  match emit with
  | None -> ()
  | Some emit -> (
      let out a b c d p = emit (Tuple.of_ints [ a; b; c; d ]) p in
      match slot with
      | `R ->
          Edges.iter_fst t.s_alive y (fun c q ->
              Edges.iter_fst t.tt c (fun d s -> out x y c d (m * q * s)))
      | `S ->
          if c_present t y then
            Edges.iter_snd t.r_active x (fun a p ->
                Edges.iter_fst t.tt y (fun d s -> out a x y d (p * m * s)))
      | `T ->
          Edges.iter_snd t.s_alive x (fun b q ->
              Edges.iter_snd t.r_active b (fun a p -> out a b x y (p * q * m))))

(** Constant-delay enumeration of Q(A,B,C,D): every visited entry emits
    at least one output tuple, by the calibration invariants. *)
let enumerate (t : t) : (Tuple.t * int) Seq.t =
  Seq.concat_map
    (fun ((rt : Tuple.t), p) ->
      let b = Tuple.get rt 1 in
      Seq.concat_map
        (fun ((st : Tuple.t), q) ->
          let c = Tuple.get st 1 in
          Seq.map
            (fun ((ttup : Tuple.t), s) ->
              (Tuple.of_list [ Tuple.get rt 0; b; c; Tuple.get ttup 1 ], p * q * s))
            (Rel.Index.seq_group t.tt.Edges.by_fst (Tuple.of_list [ c ])))
        (Rel.Index.seq_group t.s_alive.Edges.by_fst (Tuple.of_list [ b ])))
    (View.to_seq t.r_active.Edges.view)

let output_size t = Seq.fold_left (fun n _ -> n + 1) 0 (enumerate t)

(** Insert-delete baseline on the same path join: first-order delta
    maintenance of the listed output; the per-update cost is the size of
    the output delta, which OuMv-hardness says cannot be beaten down to
    O(N^{1/2-γ}) together with fast enumeration. *)
module With_deletes = struct
  type nonrec t = { r : Edges.t; s : Edges.t; tt : Edges.t; out : View.t; mutable work : int }

  let create () =
    {
      r = Edges.create "A" "B";
      s = Edges.create "B" "C";
      tt = Edges.create "C" "D";
      out = View.create (Schema.of_list [ "A"; "B"; "C"; "D" ]);
      work = 0;
    }

  let work t = t.work

  let update t rel ~x ~y m =
    let emit a b c d p =
      t.work <- t.work + 1;
      View.update t.out (Tuple.of_ints [ a; b; c; d ]) p
    in
    (match rel with
    | `R ->
        Edges.iter_fst t.s y (fun c p ->
            Edges.iter_fst t.tt c (fun d q -> emit x y c d (m * p * q)))
    | `S ->
        Edges.iter_snd t.r x (fun a p ->
            Edges.iter_fst t.tt y (fun d q -> emit a x y d (p * m * q)))
    | `T ->
        Edges.iter_snd t.s x (fun b p ->
            Edges.iter_snd t.r b (fun a q -> emit a b x y (q * p * m))));
    (match rel with
    | `R -> Edges.update t.r x y m
    | `S -> Edges.update t.s x y m
    | `T -> Edges.update t.tt x y m);
    t.work <- t.work + 1

  let enumerate t = View.to_seq t.out
end
