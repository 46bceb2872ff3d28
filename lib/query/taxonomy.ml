(** The query taxonomy: the paper's concluding observation (Sec. 6)
    made executable. Given a query together with optional functional
    dependencies, an access pattern, and static/dynamic adornments, it
    classifies the query along the paper's taxonomy and recommends the
    best maintenance strategy with its complexity guarantees — or
    reports the conditional lower bound that forbids doing better
    (Thm. 4.1, Thm. 4.8). *)

module H = Hierarchical
module Hg = Hypergraph
module Sd = Static_dynamic
module Vo = Variable_order

type complexity = {
  preprocessing : string;
  update : string;
  delay : string;
}

type verdict =
  | Best_possible of { reason : string; order : Vo.forest option }
      (** O(1) update and O(1) delay after linear preprocessing. *)
  | Amortized_best of { reason : string }
      (** Amortized O(1) update / O(1) delay under stated conditions. *)
  | Worst_case_optimal of { reason : string; complexity : complexity }
      (** Sublinear updates meeting the OuMv-conditional lower bound. *)
  | Delta_only of { reason : string; complexity : complexity }
      (** No known sublinear technique applies; classical delta IVM. *)

type analysis = {
  query : Cq.t;
  hierarchical : bool;
  q_hierarchical : bool;
  non_hierarchical_witness : (string * string) option;
  alpha_acyclic : bool;
  free_connex : bool;
  hierarchical_under_fds : bool;
  q_hierarchical_under_fds : bool;
  cqap_tractable : bool option; (* None: no access pattern given *)
  sd_tractable : bool option; (* None: no adornment given *)
  verdict : verdict;
}

let triangle_like q =
  (* A cyclic join of binary atoms — the IVM^ε territory of Sec. 3.3. *)
  (not (Hg.is_alpha_acyclic q))
  && List.for_all (fun (a : Cq.atom) -> List.length a.Cq.vars = 2) q.Cq.atoms

let analyze ?(fds : Fd.t list = []) ?(access : string list option)
    ?(adornment : Sd.adornment option) (q : Cq.t) : analysis =
  let hierarchical = H.is_hierarchical q in
  let q_hierarchical = H.is_q_hierarchical q in
  let alpha_acyclic = Hg.is_alpha_acyclic q in
  let free_connex = Hg.is_free_connex q in
  let reduct = if fds = [] then q else Fd.sigma_reduct fds q in
  let hierarchical_under_fds = H.is_hierarchical reduct in
  let q_hierarchical_under_fds = H.is_q_hierarchical reduct in
  let cqap_tractable =
    Option.map (fun input -> Cqap.is_tractable (Cqap.make ~input q)) access
  in
  let sd_witness = Option.map (Sd.witness q) adornment in
  let sd_tractable = Option.map Option.is_some sd_witness in
  let verdict =
    if q_hierarchical then
      Best_possible
        { reason = "q-hierarchical (Thm. 4.1)"; order = Vo.canonical q }
    else if q_hierarchical_under_fds then
      Best_possible
        {
          reason = "Σ-reduct is q-hierarchical under the FDs (Thm. 4.11)";
          (* The reduct's order must also suit the query as written:
             the engine joins the original relations and enumerates the
             original free variables. *)
          order =
            Option.bind (Vo.canonical reduct) (fun f ->
                if Vo.validate q f = Ok () && Vo.free_top q f then Some f else None);
        }
    else if cqap_tractable = Some true then
      Best_possible { reason = "tractable CQAP (Thm. 4.8)"; order = None }
    else if sd_tractable = Some true then
      Best_possible
        {
          reason = "tractable in the static/dynamic setting (Sec. 4.5)";
          order = Option.join sd_witness;
        }
    else if alpha_acyclic then
      Amortized_best
        {
          reason =
            "α-acyclic: amortized O(1) inserts and O(1) delay under \
             insert-only streams (Sec. 4.6); under insert-delete, \
             OuMv-hard (Thm. 4.1)";
        }
    else if triangle_like q then
      Worst_case_optimal
        {
          reason = "cyclic binary join: IVM^ε applies (Sec. 3.3)";
          complexity =
            { preprocessing = "O(N^{3/2})"; update = "O(N^{1/2})"; delay = "O(1)" };
        }
    else
      Delta_only
        {
          reason = "no structural property applies; classical delta IVM (Sec. 3.1)";
          complexity = { preprocessing = "O(1)"; update = "O(N^{k})"; delay = "O(1)" };
        }
  in
  {
    query = q;
    hierarchical;
    q_hierarchical;
    non_hierarchical_witness = H.non_hierarchical_witness q;
    alpha_acyclic;
    free_connex;
    hierarchical_under_fds;
    q_hierarchical_under_fds;
    cqap_tractable;
    sd_tractable;
    verdict;
  }

let pp_verdict ppf = function
  | Best_possible { reason; _ } ->
      Format.fprintf ppf "best possible: O(N) preprocessing, O(1) update, O(1) delay — %s"
        reason
  | Amortized_best { reason } -> Format.fprintf ppf "amortized best possible — %s" reason
  | Worst_case_optimal { reason; complexity } ->
      Format.fprintf ppf "worst-case optimal: %s update, %s delay — %s" complexity.update
        complexity.delay reason
  | Delta_only { reason; _ } -> Format.fprintf ppf "delta queries only — %s" reason

let pp_analysis ppf a =
  Format.fprintf ppf
    "@[<v>query: %a@,hierarchical: %b    q-hierarchical: %b@,\
     α-acyclic: %b    free-connex: %b@,\
     under FDs: hierarchical %b, q-hierarchical %b@,%a%averdict: %a@]"
    Cq.pp a.query a.hierarchical a.q_hierarchical a.alpha_acyclic a.free_connex
    a.hierarchical_under_fds a.q_hierarchical_under_fds
    (fun ppf -> function
      | Some b -> Format.fprintf ppf "CQAP-tractable: %b@," b
      | None -> ())
    a.cqap_tractable
    (fun ppf -> function
      | Some b -> Format.fprintf ppf "static/dynamic-tractable: %b@," b
      | None -> ())
    a.sd_tractable pp_verdict a.verdict
