(** Conjoin-and-quantify with early quantification scheduling — the core of
    partitioned image computation (paper §1, §3.2; Ranjan et al. IWLS'95,
    Chauhan et al. ICCAD'01 style heuristics).

    The problem solved here: compute [∃ Q. r₁ ∧ r₂ ∧ … ∧ rₖ] without ever
    building the monolithic conjunction. Variables of [Q] are quantified as
    soon as no remaining conjunct mentions them, which keeps intermediate
    BDDs small. *)

type order =
  | Given  (** conjoin in the order supplied *)
  | Greedy
      (** at each step pick the conjunct that kills the most quantifiable
          variables while introducing the fewest new ones *)

val and_exists_list :
  Bdd.Manager.t -> ?order:order -> int list -> quantify:int list -> int
(** [and_exists_list m rels ~quantify] is [∃ quantify. ∧ rels] ([Greedy] by
    default). *)

val monolithic_and_exists :
  Bdd.Manager.t -> int list -> quantify:int list -> int
(** The contrast case: conjoin everything first, then quantify. *)
