(** Symbolic reachability: the least fixpoint of the image operator from the
    initial state (Touati et al., ICCAD'90 — "implicit state enumeration").
    The reachable set is the accepting-state set of the automaton of a
    network (paper §2). *)

val reachable : ?strategy:Image.strategy -> Network.Symbolic.t -> int
(** Set of reachable states, as a BDD over the network's current-state
    variables, over the unclustered transition partition. Default
    strategy: {!Image.default}. *)

val count_states : Network.Symbolic.t -> int -> float
(** Number of states in a set over the network's state variables. *)

val frontier_reachable : Network.Symbolic.t -> int * int
(** [(reachable, iterations)] using frontier (new-states-only) iteration
    under {!Image.default}. *)
