(** Static variable reordering by migration.

    The manager's order is fixed at variable-creation time (variable index =
    level), so reordering is done by rebuilding functions in a *fresh*
    manager whose variables were created in the new order. This is the
    rebuild-based analog of dynamic reordering: run it between phases when
    the current order has degraded. *)

val migrate :
  src:Manager.t -> dst:Manager.t -> var_map:(int -> int) -> int list -> int list
(** Rebuild roots from [src] inside [dst], sending source variable [v] to
    destination variable [var_map v] (which must exist in [dst]). Works for
    any permutation. *)

val force_order :
  Manager.t -> ?hyperedges:int list list -> int list -> int list
(** A FORCE-style ordering heuristic: iteratively place each variable at the
    centre of gravity of the hyperedges containing it. The hyperedges
    default to the supports of the given roots, but callers with structural
    knowledge (e.g. the per-part supports of a partitioned relation) should
    pass them explicitly — a single conjoined function carries no locality
    information. Returns all the manager's variables, best order first. *)

val reorder :
  Manager.t ->
  ?hyperedges:int list list ->
  int list ->
  Manager.t * int list * (int -> int)
(** [reorder man roots] creates a fresh manager ordered by {!force_order},
    migrates the roots, and returns [(new_manager, new_roots, var_map)].
    Variable names are preserved. *)
