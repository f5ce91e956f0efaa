(** Image computation — [Img(ns) = ∃ i,cs. T(i,cs,ns) ∧ ξ(cs)] from the
    paper's introduction — and the single entry point every image in the
    code base goes through: both solver oracles, the §4 verification
    fixpoints, reachability and equivalence checking. Each call counts
    one [image.calls]. *)

type strategy =
  | Monolithic      (** build the full relation first, then quantify *)
  | Partitioned of Quantify.order
      (** and-exists sweep with early quantification *)

val default : strategy
(** [Partitioned Greedy] — the schedule the solver's first attempt and
    every fixpoint oracle run. *)

val image :
  strategy -> Bdd.Manager.t -> int list -> quantify:int list -> int
(** [image strategy m rels ~quantify] is [∃ quantify. ∧ rels]. The order
    of [rels] is the [Given] schedule's conjunction order and the
    [Greedy] schedule's tie-break order. For a forward image, [rels] is
    the care set followed by the relation parts, [quantify] the inputs
    plus current-state variables, and the result ranges over next-state
    variables. *)

val fused_image : Bdd.Manager.t -> cube:int -> int -> int -> int
(** [fused_image m ~cube rel care] is [∃ cube. rel ∧ care] in one fused
    [Bdd.Ops.and_exists] — the image over a relation that is already
    monolithic (the monolithic solver flow). *)

val forward_image :
  strategy ->
  Partition.t ->
  inputs:int list ->
  state_vars:int list ->
  ns_to_cs:(int * int) list ->
  care:int ->
  int
(** Image of [care] followed by the [ns → cs] renaming: the successor
    state set, expressed over current-state variables. *)

val preimage :
  strategy ->
  Partition.t ->
  inputs:int list ->
  next_state_vars:int list ->
  cs_to_ns:(int * int) list ->
  care:int ->
  int
(** Predecessor state set of [care] (given over current-state variables),
    expressed over current-state variables. *)
