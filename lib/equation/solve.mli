(** Top-level driver: split a circuit, build the equation instance, compute
    the most general prefix-closed solution with the chosen method, extract
    the CSF, and optionally verify it — all under a {!Runtime.t} resource
    budget that converts blow-ups into structured CNC outcomes (Table 1's
    "CNC") and recovers from node-limit blow-ups with a graceful-degradation
    ladder:

    + collect garbage on the failed attempt's manager
      ({!Bdd.Manager.collect}) and retry the same configuration in place —
      the cheapest rung, skipped when [gc:false];
    + clear the operation caches, migrate the instance to a FORCE-reordered
      fresh manager ({!Problem.reorder}) and retry the partitioned strategy
      (up to [retries] times, default 1);
    + fall back to the alternative kernel: the other early-quantification
      schedule on the other clustering (greedy on the affinity clusters
      ↔ given on the unclustered partition; label ["partitioned/given"]
      from the default);
    + fall back to the [Monolithic] method;
    + report {!Could_not_complete} with the full attempt history.

    Deadline exhaustion stops the ladder immediately — with no time left, a
    cheaper method cannot help. A [Monolithic] request is already the bottom
    rung and is attempted once. *)

type method_ =
  | Partitioned of Img.Image.strategy
      (** the paper's flow; the strategy selects how the inner image
          computations are performed *)
  | Monolithic  (** the traditional flow on monolithic relations *)

val default_partitioned : method_
(** [Partitioned (Partitioned Greedy)] — the configuration the paper
    advocates. *)

(** One failed solve attempt, oldest first in the histories below. *)
type attempt = {
  label : string;
      (** which rung: ["partitioned/greedy"], ["partitioned/given"],
          ["partitioned/mono-image"], ["monolithic"], ["gc-retry"] or
          ["reorder-retry"] *)
  kernel : string;
      (** image-kernel configuration of the rung — clustering and
          quantification schedule, e.g. ["affinity:500/greedy"],
          ["unclustered/given"] or ["monolithic-relation"] *)
  phase : Runtime.phase;  (** phase reached when the attempt failed *)
  subset_states : int;  (** subset states explored before the failure *)
  peak_nodes : int;  (** the attempt's manager node count at failure *)
  cpu_seconds : float;  (** CPU time spent in this attempt *)
  failure : string;  (** ["node limit exceeded"] or ["time limit exceeded"] *)
}

(** Structured partial progress carried by a CNC outcome (the top-level
    fields summarize the final attempt). *)
type progress = {
  phase_reached : Runtime.phase;
  subset_states_explored : int;
  peak_nodes_seen : int;
  attempts : attempt list;
}

type report = {
  method_ : method_;  (** the method that was requested *)
  solved_by : string;
      (** label of the attempt that succeeded (the requested method's
          label, e.g. ["partitioned/greedy"], when no fallback was
          needed) *)
  problem : Problem.t;
  split : Split.t;
  solution : Fsa.Automaton.t;  (** most general prefix-closed solution *)
  csf : Fsa.Automaton.t;
  csf_states : int;
  csf_deletions : int;
      (** state deletions the worklist CSF extraction performed
          ({!Csf.of_arena}) *)
  subset_states : int;
  cpu_seconds : float;  (** total, including failed attempts *)
  peak_nodes : int;
  attempts : attempt list;  (** failed attempts preceding the success *)
}

type outcome =
  | Completed of report
  | Could_not_complete of {
      cpu_seconds : float;
      reason : string;
      progress : progress;
    }

val solve_split :
  ?node_limit:int ->
  ?time_limit:float ->
  ?retries:int ->
  ?fallback:bool ->
  ?clustering:Img.Partition.clustering ->
  ?fault:Runtime.Fault.t ->
  ?gc:bool ->
  method_:method_ ->
  Network.Netlist.t ->
  x_latches:string list ->
  outcome
(** A fresh BDD manager per attempt, so methods can be timed independently.
    [time_limit] is CPU seconds for the whole computation, across all
    attempts. [retries] (default 1) bounds the reorder-and-retry rung;
    [fallback:false] disables the method-degradation rungs (alternative
    schedule, monolithic). [clustering] (default
    {!Partitioned.default_clustering}) selects the partition clustering of
    the first rungs; the alternative-schedule rung flips it between
    clustered and unclustered, so a clustering that blows up is retried
    fully partitioned (and vice versa). [fault] injects a deterministic
    fault for testing; when omitted, the [LESOLVE_FAULT] environment
    variable is consulted ({!Runtime.Fault.from_env}). [gc] (default
    [true]) enables mark-and-sweep collection on every manager the solve
    creates, an explicit collection between the subset-construction and
    CSF phases, and the gc-retry rung of the ladder; [gc:false] restores
    the grow-only allocation behaviour. *)

val verify : ?runtime:Runtime.t -> report -> bool * bool
(** [(particular_contained, composition_equals_spec)] for a completed run,
    checked in that order.
    With [runtime], verification runs in the [Verify] phase under the
    runtime's budget instead of unbounded; without it, the checks run
    inside a ["phase.verify"] span of their own. *)
