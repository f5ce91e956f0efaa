(** The contrast implementation measured in the paper's Table 1: Algorithm 1
    executed on monolithic transition-output relations.

    [TO_F(i,v,u,o,cs1,ns1)] and [TO_S(i,o,cs2,ns2)] are built as single
    BDDs (the external outputs [o] get BDD variables here); [S] is completed
    with an explicit don't-care state bit, complemented by flipping
    acceptance to that bit, conjoined with [TO_F], and the external
    variables [i,o] are hidden by monolithic existential quantification.
    A traditional subset construction (no early trimming) follows, then
    completion and complementation as separate passes.

    Blow-ups surface as {!Runtime.Deadline_exceeded} (CPU deadline) or
    {!Bdd.Manager.Node_limit_exceeded} (node budget) — the "CNC" entries.
    With [runtime], the relation building runs in the [Build] phase and the
    subset construction in the [Subset] phase, with partial progress
    recorded on the runtime. *)

type stats = {
  subset_states : int;
  hidden_relation_nodes : int;  (** size of [∃i,o. TO_F ∧ TO'_S] *)
  peak_nodes : int;
}

val solve : ?runtime:Runtime.t -> Problem.t -> Fsa.Automaton.t * stats

val solve_arena : ?runtime:Runtime.t -> Problem.t -> Engine.arena * stats
(** Same construction as {!solve}, returning the engine's arc arena
    instead of a materialized automaton (see {!Partitioned.solve_arena}). *)
