(** The paper's core algorithm (§3.2): solving [F • X ⊆ S] directly on the
    partitioned representation. Completion, complementation, product and
    hiding are all folded into one modified subset construction whose inner
    step is an image computation:

    - conformance [C(i,v,cs) = ∧_j (O^F_j ↔ O^S_j)] is kept one output at a
      time; [o] never becomes a BDD variable;
    - for each subset state [ζ(cs)], the non-conformance condition
      [Q_ζ(u,v) = ∃i,cs (Urel ∧ ¬C ∧ ζ)] redirects symbols to the
      non-accepting sink [DCN] (the early trimming justified by the paper's
      prefix-closedness argument). [¬C] is never built: the conformance
      parts are clustered like the relations, and [Q_ζ] is the union of
      one image per cluster [G_g], [∨_g ∃i,cs (Urel ∧ ¬G_g ∧ ζ)] — one
      image per output without clustering, as in the paper;
    - the successor relation
      [P_ζ(u,v,ns) = ∃i,cs (Urel ∧ Trel ∧ ζ) ∧ ¬Q_ζ] is computed by the
      partitioned image engine with early quantification and split into
      distinct successors;
    - symbols in neither [P_ζ] nor [Q_ζ] go to the accepting completion sink
      [DCA].

    The returned automaton is already the complemented (most general
    prefix-closed) solution: subset states and [DCA] accepting, [DCN] not.
    Apply {!Csf.csf} to obtain the CSF. *)

type stats = {
  subset_states : int;  (** subset states explored (excluding the sinks) *)
  image_computations : int;
      (** planned images applied: per subset state, one per conformance
          cluster plus the successor image *)
  q_clusters : int;
      (** conformance clusters that can fail, each with its own [Q_ζ]
          image; 0 when [S] conforms for every input *)
  peak_nodes : int;     (** manager node count after solving *)
}

val default_clustering : Img.Partition.clustering
(** [Affinity 500] — affinity-based clustering under a 500-node threshold,
    the bench-ablated sweet spot (see EXPERIMENTS.md). *)

val solve :
  ?runtime:Runtime.t ->
  ?strategy:Img.Image.strategy ->
  ?clustering:Img.Partition.clustering ->
  ?on_state:(int -> unit) ->
  Problem.t ->
  Fsa.Automaton.t * stats
(** [strategy] (default {!Img.Image.default}) is the image schedule of
    every subset state's images; all are planned once per solve, in the
    [Build] phase, and applied to each subset state. With [runtime],
    the solver ticks the runtime through the [Build] (relation clustering
    and image planning) and [Subset] phases:
    {!Runtime.Deadline_exceeded} is raised past the deadline and
    {!Bdd.Manager.Node_limit_exceeded} past the node budget (or at an
    injected fault), with partial progress recorded on the runtime.
    [clustering] (default {!default_clustering}) pre-clusters the relation
    and conformance parts before the subset construction;
    [Img.Partition.No_clustering] keeps one conjunct per latch/output.
    The runtime ticks once per [Q_ζ] and once per successor image, however
    many clusters [Q_ζ] unites.
    [on_state] is a progress callback invoked with each subset state index
    as it is expanded. *)

val solve_arena :
  ?runtime:Runtime.t ->
  ?strategy:Img.Image.strategy ->
  ?clustering:Img.Partition.clustering ->
  ?on_state:(int -> unit) ->
  Problem.t ->
  Engine.arena * stats
(** Same construction as {!solve}, returning the engine's arc arena
    instead of a materialized automaton — the input of the worklist CSF
    extraction ({!Csf.of_arena}). [solve p] is
    [Engine.to_automaton (fst (solve_arena p))]. *)
