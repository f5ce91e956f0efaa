(** From the most general prefix-closed solution to the Complete Sequential
    Flexibility: the largest prefix-closed, input-progressive sub-automaton
    (paper §2).

    The extraction runs directly on the engine's arc arena as a worklist
    algorithm: the reverse-arc index is built once, every state is examined
    once, and a deletion re-examines only the deleted state's predecessors.
    This replaces the iterated full sweeps of the automaton-level
    [Fsa.Ops.prefix_close]/[Fsa.Ops.progressive] composition
    (O(passes × states × arcs)), which the test suite keeps as the
    reference the worklist is checked against; the result is converted to a validated
    [Fsa.Automaton] only after the final trim. Deletions are counted on the
    [csf.worklist_deletions] observability counter. *)

val of_arena :
  ?runtime:Runtime.t -> Problem.t -> Engine.arena -> Fsa.Automaton.t * int
(** [of_arena p arena] extracts the CSF from a subset-construction arena
    and returns it with the number of state deletions the worklist
    performed. The surviving states keep the arena's relative order and
    per-state arc order, so the result is state-for-state identical to the
    old sweep-based composition. With [runtime], the extraction runs in
    the [Csf] phase and honours the time/node budget (one tick per
    worklist examination). *)

val csf : ?runtime:Runtime.t -> Problem.t -> Fsa.Automaton.t -> Fsa.Automaton.t
(** [csf p x] applies PrefixClose (delete non-accepting states) and
    Progressive (deletion of states that are not input-progressive with
    respect to the [u] variables), then trims — {!of_arena} over
    {!Engine.arena_of_automaton}, for automata built outside the
    engine. *)

val num_states : Fsa.Automaton.t -> int
(** The "States(X)" column of Table 1. *)
