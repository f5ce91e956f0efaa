(** The paper's two validation checks for a computed CSF [X] (§4):

    (1) [X_P ⊆ X] — the particular solution (the split-out latch bank) is
        contained in the flexibility;
    (2) [F × X_P ≡ S] — plugging the latch bank back into [F] reproduces the
        specification exactly.

    Both checks are symbolic: the latch bank is never enumerated.

    Each check accepts an optional {!Runtime.t}: it then runs in the
    [Verify] phase under the runtime's time/node budget (one tick per
    explored state or reachability iteration), raising
    {!Runtime.Deadline_exceeded} or {!Bdd.Manager.Node_limit_exceeded}
    instead of running unbounded after the deadline has expired. Each
    reachability fixpoint plans its image once under {!Img.Image.default}
    and runs every step as one {!Img.Image.apply} of that plan. *)

val particular_contained :
  ?runtime:Runtime.t -> Problem.t -> Split.t -> Fsa.Automaton.t -> bool
(** Check (1). [X] must be deterministic (the solvers' outputs are); the
    latch-bank state set is tracked as a BDD over the [v] variables paired
    with each explicit state of [X]. *)

val composition_equals_spec :
  ?runtime:Runtime.t ->
  Problem.t ->
  Split.t ->
  bool
(** Check (2): product-machine reachability of [F × X_P] against [S] with an
    output-equality invariant. The [u] variables double as the next-state
    variables of the latch bank, so the check reuses the problem's
    partitions unchanged. *)

val composition_with_machine :
  ?runtime:Runtime.t ->
  Problem.t ->
  Machine.t ->
  bool
(** The same product-machine check with an arbitrary Moore machine in place
    of [X] — used to certify a sub-solution extracted from the CSF
    ({!Extract}): the composition [F × X'] must still implement [S]
    exactly. Fresh state variables for [X'] are allocated at the bottom of
    the order. *)
