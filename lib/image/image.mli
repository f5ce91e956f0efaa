(** Image computation — [Img(ns) = ∃ i,cs. T(i,cs,ns) ∧ ξ(cs)] from the
    paper's introduction — and the single entry point every image in the
    code base goes through: both solver oracles, the §4 verification
    fixpoints, reachability and equivalence checking.

    An image is planned once over the fixed relation parts ({!plan}) and
    applied once per care set ({!apply}); each application counts one
    [image.calls]. *)

type strategy =
  | Monolithic      (** build the full relation first, then quantify *)
  | Partitioned of Quantify.order
      (** and-exists sweep with early quantification *)

val default : strategy
(** [Partitioned Greedy] — the schedule the solver's first attempt and
    every fixpoint oracle run. *)

type plan = Quantify.plan

val plan :
  strategy ->
  Bdd.Manager.t ->
  roots:Bdd.Manager.Roots.set ->
  int list ->
  care_support:int list ->
  quantify:int list ->
  plan
(** [plan strategy m ~roots parts ~care_support ~quantify] prepares
    [fun care -> ∃ quantify. care ∧ ∧ parts] (see {!Quantify.plan}).
    [Partitioned Given] conjoins [parts] in list order, [Partitioned
    Greedy] in the order its score picks; [Monolithic] conjoins [parts]
    into one product now. For a forward image, [parts] are the relation
    parts, [care_support] the current-state variables and [quantify] the
    inputs plus current-state variables; the result ranges over
    next-state variables. Everything the plan holds is pinned in
    [roots]. *)

val apply : plan -> int -> int
(** [apply plan care]: the planned image of [care]. Counts one
    [image.calls]. *)

val apply_union : Bdd.Manager.t -> plan list -> int -> int
(** [apply_union m plans care] is [∨ (apply plan care)] over [plans]
    (⊥ for none): the image of [care] under a relation kept as a
    disjunction of planned parts, one {!apply} (and one [image.calls]) per
    plan. [care] must be kept alive by the caller. *)

val fused_image : Bdd.Manager.t -> cube:int -> int -> int -> int
(** [fused_image m ~cube rel care] is [∃ cube. rel ∧ care] in one fused
    [Bdd.Ops.and_exists] — the image over a relation that is already
    monolithic (the monolithic solver flow). *)

val forward_image :
  plan -> Bdd.Manager.t -> ns_to_cs:(int * int) list -> care:int -> int
(** {!apply} followed by the [ns → cs] renaming: the successor state set
    of [care], expressed over current-state variables. *)

val preimage :
  plan -> Bdd.Manager.t -> cs_to_ns:(int * int) list -> care:int -> int
(** Predecessor state set of [care] (given over current-state variables)
    under a plan that quantifies the inputs and next-state variables,
    expressed over current-state variables. *)
