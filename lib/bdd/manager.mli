(** BDD manager: node store, unique table, operation caches and an
    in-place mark-and-sweep garbage collector.

    Nodes are identified by non-negative integers. The constants [zero] and
    [one] are nodes 0 and 1. All other nodes are decision nodes with a
    variable (identified by its level: smaller level = closer to the root),
    a low child (the [var = false] cofactor) and a high child. The manager
    guarantees canonicity: structurally equal BDDs have equal node ids, so
    semantic equality of functions is integer equality of their roots.

    {2 Garbage collection}

    Dead nodes are reclaimed in place: a sweep threads them onto a free
    list that {!mk} consumes before growing the store. Live ids never move
    (no compaction), so id-keyed client tables stay valid across
    collections. Reachability is defined by explicit roots only — the
    manager cannot see ids held in OCaml data structures:

    - {!protect}/{!release} pin long-lived roots (reference counted);
    - {!Roots} sets and {!with_roots} pin scoped groups of roots;
    - an internal operand stack ({!stack_push}/{!stack_drop}) pins
      intermediates inside recursive operations;
    - {!with_frozen} defers collection entirely for code that holds
      unpinned ids (private memo tables, bulk constructions) — the store
      grows instead.

    Collections are triggered deterministically from {!mk}: only when the
    store is full, the free list is empty, and the estimated dead ratio
    (allocations since the last sweep / live count) reaches
    {!gc_threshold}. No wall-clock or OCaml-heap state is consulted, so a
    run is reproducible allocation by allocation.

    Automatic collection is {e opt-in} ({!set_auto_gc}, default off): it
    is only sound once every node id the client still needs is pinned or
    reachable from a pinned root. The solver pins its roots throughout
    and enables GC on the managers it creates; code using this API
    directly keeps the historical grow-only behavior unless it opts
    in. Explicit {!collect} is available either way. *)

type t
(** A BDD manager. All nodes and operations are relative to one manager;
    mixing node ids across managers is unchecked and meaningless. *)

exception Node_limit_exceeded
(** Raised by node creation when the {e live} node count passes the
    configured limit. Used to convert blow-ups into "could not complete"
    results. A collection lowers the live count, so budgets bound resident
    nodes, not cumulative allocations. *)

val create : ?initial_capacity:int -> unit -> t
(** [create ()] makes a manager with no variables. *)

val zero : int
(** The constant-false node (id 0). *)

val one : int
(** The constant-true node (id 1). *)

val new_var : ?name:string -> t -> int
(** [new_var m] registers a fresh variable at the next level and returns its
    variable index (= its level). Optionally give it a [name] for printing. *)

val new_vars : ?prefix:string -> t -> int -> int list
(** [new_vars m n] registers [n] fresh variables named [prefix0..]. *)

val num_vars : t -> int
(** Number of registered variables. *)

val var_name : t -> int -> string
(** [var_name m v] is the printable name of variable [v]. *)

val set_var_name : t -> int -> string -> unit

val mk : t -> int -> int -> int -> int
(** [mk m v lo hi] is the canonical node for [if v then hi else lo].
    Requires that [v] is strictly above the levels of [lo] and [hi].
    Reduced: returns [lo] when [lo = hi]. May trigger a garbage
    collection (see module docs); [lo] and [hi] are pinned by [mk]
    itself for the duration. *)

val var : t -> int -> int
(** [var m id] is the variable (level) of node [id]; a large sentinel
    ([terminal_level]) for constants. *)

val terminal_level : int
(** Sentinel level of the two constant nodes; strictly greater than any
    variable level. *)

val low : t -> int -> int
(** Low (else) child. Meaningless on constants. *)

val high : t -> int -> int
(** High (then) child. Meaningless on constants. *)

val is_const : int -> bool
(** True on [zero] and [one]. *)

val num_nodes : t -> int
(** Live nodes currently resident in the manager (constants included).
    Before the first collection this equals the historical "total nodes
    ever created". *)

val live_nodes : t -> int
(** Synonym of {!num_nodes}, for symmetry with {!peak_live_nodes}. *)

val peak_live_nodes : t -> int
(** High-water mark of the live node count — the memory figure reported
    by the solver and the benchmarks. *)

val store_size : t -> int
(** One past the highest node id ever allocated (free slots included);
    the size of the id space, an upper bound on {!live_nodes}. *)

val free_nodes : t -> int
(** Slots currently on the free list, waiting for reuse by {!mk}. *)

val set_node_limit : t -> int option -> unit
(** Set or clear the live-node limit ([Node_limit_exceeded]). *)

val set_alloc_hook : t -> (unit -> unit) option -> unit
(** Install (or clear) a callback invoked on every {e fresh} node
    allocation, after the node-limit check and before the node is
    committed, so raising from the hook leaves the manager unchanged.
    Used for deterministic fault injection: a hook that raises
    {!Node_limit_exceeded} at its Nth invocation makes a blow-up
    reproducible at an exact allocation. *)

(** {2 Garbage collection API} *)

val protect : t -> int -> unit
(** [protect m id] pins [id] (and thereby everything reachable from it)
    against collection. Reference counted: [n] protects need [n]
    releases. Constants need no pinning and are accepted as no-ops. *)

val release : t -> int -> unit
(** Undo one {!protect}. Raises [Invalid_argument] if [id] is not
    currently protected (catching unbalanced pin bugs early). *)

val protected : t -> int -> bool
(** Whether [id] is directly pinned (constants always are). Reachability
    from other roots is not consulted. *)

(** Scoped root sets: a set groups pinned ids so a whole construction can
    be released at once (or automatically via {!with_roots}). *)
module Roots : sig
  type set

  val create : t -> set
  (** Register an empty root set with the manager. *)

  val add : set -> int -> int
  (** [add s id] pins [id] for the lifetime of the set and returns [id]
      (so calls compose: [Roots.add s (O.band m f g)]). *)

  val release : t -> set -> unit
  (** Unregister the set, unpinning every id it holds. *)
end

val with_roots : t -> (Roots.set -> 'a) -> 'a
(** [with_roots m f] runs [f] with a fresh root set, releasing it when
    [f] returns or raises. *)

val stack_push : t -> int -> unit
(** Pin an intermediate on the internal operand stack. Used by the
    recursive operations (below and in {!Ops}) to protect already-computed
    partial results across their remaining recursive calls; strictly LIFO
    with {!stack_drop}. *)

val stack_drop : t -> int -> unit
(** Pop the [n] most recent operand pins. *)

val stack_depth : t -> int
(** Operand pins currently held (the number {!stack_drop} could pop). *)

val reset_op_stack : t -> unit
(** Drop every operand pin. Only sound at a safe point — no BDD operation
    of this manager on the OCaml call stack. The solver runtime calls
    this when (re)attaching to a manager, clearing pins leaked by an
    exception that unwound through an operation. *)

val with_frozen : t -> (unit -> 'a) -> 'a
(** [with_frozen m f] runs [f] with automatic collection disabled (the
    store grows instead; explicit {!collect} raises). Nests. Use around
    code that holds node ids where the collector cannot see them —
    private memo tables, bulk constructions of unpinned collections. *)

val collect : t -> int
(** Run a mark-and-sweep collection now and return the number of nodes
    swept. All unpinned, unreachable nodes are freed; the unique table is
    rebuilt over the live nodes; the computed cache is invalidated;
    support-memo entries for dead ids are dropped. Live ids are never
    moved. Raises [Invalid_argument] inside {!with_frozen}. *)

val collect_at_safe_point : t -> int
(** Offer a collection before a section that will run {!with_frozen}:
    collects (and returns the nodes swept) only when automatic
    collection is on, the manager is not frozen, the store is at least
    three quarters full and the estimated dead ratio reaches
    {!gc_threshold}; otherwise does nothing and returns 0. Without it a
    store that fills inside the frozen section doubles even when most of
    it is dead. The same rooting rules as {!collect} apply. *)

val set_auto_gc : t -> bool -> unit
(** Enable or disable {!mk}-triggered collection (default: disabled —
    see the module docs on why collection is opt-in). Explicit
    {!collect} works either way. *)

val auto_gc : t -> bool

val set_gc_threshold : t -> float -> unit
(** Estimated dead ratio (in [0,1]) that a full store must reach before
    {!mk} collects rather than grows. Default 0.25. Raises
    [Invalid_argument] outside [0,1]. *)

val gc_threshold : t -> float

val gc_runs : t -> int
(** Collections performed over the manager's lifetime. *)

val gc_nodes_swept : t -> int
(** Total nodes reclaimed over the manager's lifetime. *)

val clear_caches : t -> unit
(** Drop all memoized operation results (never required for correctness). *)

val check : t -> unit
(** Verify the store's invariants and raise [Failure] naming the first
    violation: every live node is reduced ([low <> high]) and ordered (its
    variable is strictly above its children's), with no child on a
    free-list slot; the unique table holds each live id exactly once, at
    the slot its key probes to, and nothing else; the free list holds
    exactly the free slots; the live count matches; every pin count is
    positive and every pinned, root-set, operand-stack, cached and
    support-memo id is live; the traversal mark buffer is all zero and no
    {!band_capped} cap is in force. Costs a pass over the store and both tables
    — a test and debugging aid. *)

(** {2 Cached recursive operations}

    The computed-cache operations live with the node store so that their
    recursion reads it directly; {!Ops} re-exports each under the same
    name and is where they are documented. Operands must be kept alive by
    the caller (pinned, or reachable from a pinned root). *)

val bnot : t -> int -> int
val ite : t -> int -> int -> int -> int
val exists : t -> int -> int -> int
val and_exists : t -> int -> int -> int -> int
val cofactor : t -> int -> int -> bool -> int
val cofactor_cube : t -> int -> int -> int
val compose : t -> int -> int -> int -> int

val band_capped : t -> int -> int -> max_new:int -> int
(** [band_capped m f g ~max_new] is [f ∧ g], or [-1] as soon as computing
    it would create more than [max_new] fresh nodes. Every node the
    conjunction creates is reachable from its result, so [-1] implies
    [size (f ∧ g) > max_new]. On abort the operand stack and any enclosing
    cap are restored; the nodes created so far are left as garbage (their
    cache entries stay valid, so a later uncapped [f ∧ g] reuses them). *)

val leq : t -> int -> int -> bool
(** [leq m f g] is [f → g], i.e. [f ∧ ¬g = 0], decided without building
    either BDD: it creates no node (so it never collects or allocates on
    the OCaml heap) and caches its verdicts under their own tag. *)

(** {2 Traversals}

    Walks over the node graph that mark visited nodes in one buffer owned
    by the manager (the collector's mark), all zero between calls; {!Ops}
    re-exports them. *)

val size : t -> int -> int
val size_shared : t -> int list -> int

val support : t -> int -> int list
(** Memoized per node id; the collector drops the entries of swept ids
    and {!clear_caches} drops them all. *)
