(** The shared symbolic subset-construction engine.

    Both determinization flows — the paper's partitioned flow and the
    monolithic contrast implementation — are instances of one modified
    subset construction: explore subset states from a start state,
    intern each state by its canonical BDD, split the successor relation
    into (guard, successor) arcs, and route the uncovered symbols to
    completion sinks. The engine owns everything the two flows used to
    duplicate: the frontier queue, the interning table, the arc arena,
    the root-set/pinning discipline, the {!Subset.memo} wiring and the
    Runtime/Obs accounting. A flow reduces to a {!oracle} — its start
    state, its sinks, and a successor function — so a third flow is a
    one-file addition and the {!Solve} ladder swaps oracles instead of
    calling divergent entry points.

    The construction's result is an {!arena}: flat int-indexed arrays of
    states and arcs, cheaper to traverse than the [Fsa.Automaton] record
    and the substrate of the worklist CSF extraction ({!Csf.of_arena}).
    Conversion to a validated automaton happens only at the edges
    ({!to_automaton}). *)

(** Where an arc leads: another subset state (by its canonical BDD) or
    one of the oracle's completion sinks (by position in
    [oracle.sinks]). *)
type target = State of int | Sink of int

type sink = {
  sink_name : string;
  sink_accepting : bool;
}

type oracle = {
  start : int;  (** canonical BDD of the initial subset state *)
  ns_cube : int;  (** next-state cube handed to {!Subset.split_successors} *)
  rename : (int * int) list;
      (** next-state → current-state variable renaming applied by the
          engine's [split] to every successor class *)
  sinks : sink list;
      (** completion sinks, materialized (in this order, after the core
          states) only when some arc reaches them; each used sink gets a
          guard-[one] self-loop *)
  successors : split:(int -> (int * target) list) -> int -> (int * target) list;
      (** [successors ~split zeta] — the (guard, target) arcs out of one
          subset state, in emission order. [split] is the engine's memoized
          {!Subset.split_successors} over [ns_cube] composed with [rename]:
          the oracle computes the successor relation (its image
          computations), the engine splits, renames and interns.

          Pinning contract: every {e State} BDD in the returned list must
          already be registered in the root set the oracle was built with
          ([split]'s results are; compose extra ones with
          [Bdd.Manager.Roots.add]), because while the engine allocates
          nothing between the oracle's return and interning, the oracle
          itself may, and an unpinned successor could be swept by a
          collection triggered inside its own later work. Guards are pinned
          by the engine as soon as the call returns. *)
  is_accepting : int -> bool;
      (** acceptance of a core subset state (queried by its BDD, with the
          construction roots still held) *)
}

(** The engine's result: core subset states [0 .. n_core-1] in discovery
    order, then the used sinks in declaration order. Arcs are flat
    parallel arrays in emission order (core arcs first, then the sink
    self-loops); every guard is protected for the manager's lifetime, so
    the arena survives the inter-phase collections of the solve ladder. *)
type arena = {
  man : Bdd.Manager.t;
  alphabet : int list;
  initial : int;
  accepting : bool array;
  names : string array;
  arc_src : int array;
  arc_guard : int array;
  arc_dst : int array;
}

val num_states : arena -> int
val num_arcs : arena -> int

val run :
  ?runtime:Runtime.t ->
  ?on_state:(int -> unit) ->
  Bdd.Manager.t ->
  alphabet:int list ->
  (Bdd.Manager.Roots.set -> oracle) ->
  arena * int
(** [run man ~alphabet make_oracle] builds the oracle inside a fresh root
    set (the [Build] phase: the oracle pins its long-lived relations
    there), then drives the subset construction (the [Subset] phase:
    tick, progress notes, [subset.states_expanded]) to exhaustion and
    returns the arena together with the number of core subset states
    (the sinks excluded). The root set is released on return; everything
    the arena needs has been protected permanently by then. *)

val to_automaton : arena -> Fsa.Automaton.t
(** Validated [Fsa.Automaton] with the arena's states in order and each
    state's arcs in emission order. *)

val arena_of_automaton : Fsa.Automaton.t -> arena
(** View an existing automaton as an arena (states and edge order
    preserved), so arena-based passes like {!Csf.of_arena} also accept
    automata built outside the engine. Guards are already pinned by the
    automaton. *)
