(** The query taxonomy — the paper's Sec. 6 conclusion made executable:
    classify a query along the taxonomy (query structure, FDs, access
    patterns, static/dynamic adornments) and recommend the best
    maintenance strategy with its complexity guarantee, or report the
    conditional lower bound that applies. The one classifier every
    front end builds on: the SQL planner maps the analysis to an
    engine. *)

type complexity = { preprocessing : string; update : string; delay : string }

type verdict =
  | Best_possible of { reason : string; order : Variable_order.forest option }
      (** O(N) preprocessing, O(1) updates, O(1) delay. [order], when
          present, is a valid variable order for the analyzed query
          with its free variables on top, over which the guarantee
          holds: the canonical order (q-hierarchical), the Σ-reduct's
          canonical order (Thm. 4.11), or the static/dynamic witness
          (Sec. 4.5). *)
  | Amortized_best of { reason : string }
      (** Amortized O(1) under stated conditions (valid batches,
          insert-only streams). *)
  | Worst_case_optimal of { reason : string; complexity : complexity }
      (** Sublinear updates meeting the OuMv-conditional bound. *)
  | Delta_only of { reason : string; complexity : complexity }

type analysis = {
  query : Cq.t;
  hierarchical : bool;
  q_hierarchical : bool;
  non_hierarchical_witness : (string * string) option;
      (** Two variables with properly overlapping atom sets. *)
  alpha_acyclic : bool;
  free_connex : bool;
  hierarchical_under_fds : bool;
  q_hierarchical_under_fds : bool;
  cqap_tractable : bool option; (** [None] when no access pattern given. *)
  sd_tractable : bool option; (** [None] when no adornment given. *)
  verdict : verdict;
}

val analyze :
  ?fds:Fd.t list ->
  ?access:string list ->
  ?adornment:Static_dynamic.adornment ->
  Cq.t ->
  analysis

val pp_analysis : Format.formatter -> analysis -> unit
