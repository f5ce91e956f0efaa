(** Conjoin-and-quantify with early quantification scheduling — the core of
    partitioned image computation (paper §1, §3.2; Ranjan et al. IWLS'95,
    Chauhan et al. ICCAD'01 style heuristics).

    The problem solved here: compute [∃ Q. care ∧ r₁ ∧ r₂ ∧ … ∧ rₖ] without
    ever building the monolithic conjunction. Variables of [Q] are
    quantified as soon as no remaining conjunct mentions them, which keeps
    intermediate BDDs small.

    The work splits in two. A {!plan} fixes the conjunction order of the
    parts [rᵢ] and the cube quantified at each step; it depends only on the
    parts, so a solve builds it once. {!apply} then runs the plan on one
    care set: the care set is conjoined with the first planned part, and
    the rest is a chain of fused [and_exists] calls. *)

type order =
  | Given  (** conjoin in the order supplied *)
  | Greedy
      (** at each step pick the part that kills the most quantifiable
          variables while adding the fewest new ones to the
          accumulator's estimated support; scored once, at planning *)

type plan
(** A quantification schedule over fixed parts. Its parts and cubes are
    pinned in the root set it was planned with, so it stays valid for
    that set's lifetime. *)

val plan :
  Bdd.Manager.t ->
  ?order:order ->
  roots:Bdd.Manager.Roots.set ->
  int list ->
  care_support:int list ->
  quantify:int list ->
  plan
(** [plan m ~roots parts ~care_support ~quantify] schedules
    [∃ quantify. care ∧ ∧ parts] for any care set ([Greedy] by default).
    A variable is quantified right after the last planned part that
    mentions it; variables no part mentions are quantified at step 0,
    where the care set is conjoined. [care_support] (typically the
    current-state variables) seeds the [Greedy] score with the care set's
    expected support; it never affects the result. [parts] and the step
    cubes are added to [roots]. *)

val apply : plan -> int -> int
(** [apply plan care] is [∃ quantify. care ∧ ∧ parts]: one fused
    [and_exists] per part (or one [exists] with no parts), each counted
    under [image.conjunctions]. *)

val monolithic_and_exists :
  Bdd.Manager.t -> int list -> quantify:int list -> int
(** The contrast case and the reference the schedules are tested against:
    conjoin everything first, then quantify. *)
