(** The Table-1 reproduction harness, shared by the benchmark executable and
    the CLI: runs each suite row with both methods under a resource budget
    and formats the table with the paper's columns, plus the attempt/
    fallback history recorded by the solver's degradation ladder. *)

type method_stats = {
  time_s : float;  (** CPU seconds of the solve (budget time on CNC) *)
  peak_nodes : int;
  image_calls : int;  (** delta of the global [image.calls] obs counter *)
  cache_hit_rate : float;
      (** op-cache hit rate over the solve; [0.] when observability was
          disabled for the run *)
  and_exists_lookups : int;
      (** fused-kernel computed-cache lookups over the solve *)
  and_exists_hits : int;
  and_exists_hit_rate : float;
      (** [and_exists_hits / and_exists_lookups]; [0.] when observability
          was disabled *)
  split_memo_hits : int;
      (** successor-splitting memo hits ([Subset.split_memo_hits] delta) *)
  subset_states : int;
  csf_time_s : float;
      (** CPU seconds spent in the [Csf] phase ([phase.csf] timer delta);
          [0.] when observability was disabled *)
  csf_worklist_deletions : int;
      (** state deletions the worklist CSF extraction performed
          ([csf.worklist_deletions] delta) *)
  gc_runs : int;  (** mark-and-sweep collections over the solve *)
  gc_nodes_swept : int;  (** nodes reclaimed by those collections *)
  gc_dead_ratio : float;
      (** [gc_nodes_swept / nodes allocated during the solve]; [0.] when
          observability was disabled or the collector never ran *)
  completed : bool;  (** [false] when the outcome was CNC *)
}

type row_result = {
  row : Circuits.Suite.row;
  part : Equation.Solve.outcome;
  mono : Equation.Solve.outcome;
  part_stats : method_stats;
  mono_stats : method_stats;
}

val default_time_limit : float
(** CPU seconds per (row, method) before declaring CNC. *)

val default_node_limit : int
(** BDD nodes per run before declaring CNC (the memory budget). *)

val run_row :
  ?time_limit:float ->
  ?node_limit:int ->
  ?retries:int ->
  ?fallback:bool ->
  Circuits.Suite.row ->
  row_result

val run_table1 :
  ?time_limit:float ->
  ?node_limit:int ->
  ?retries:int ->
  ?fallback:bool ->
  ?progress:(string -> unit) ->
  unit ->
  row_result list

val print_table1 : Format.formatter -> row_result list -> unit
(** The paper's Table 1 layout: Name, i/o/cs, Fcs/Xcs, States(X), Part,s,
    Mono,s, Ratio (with CNC entries where a run exhausted its budget). *)

val fallbacks_of : Equation.Solve.outcome -> int
(** Number of failed attempts behind an outcome (0 for a first-try
    success). *)

val describe_attempt : Equation.Solve.attempt -> string
(** One-line human-readable description of a failed attempt. *)

val print_attempts : Format.formatter -> row_result list -> unit
(** Per-row attempt history: every failed attempt, and how (or whether) the
    run eventually completed. Prints nothing for rows that completed on the
    first try. *)

val bench_json :
  ?time_limit:float -> ?node_limit:int -> row_result list -> Obs.Json.t
(** The machine-readable baseline: [{"suite":"table1", "time_limit_s":...,
    "node_limit":..., "circuits":[{"name":..., "time_s":..., "peak_nodes":...,
    "image_calls":..., "cache_hit_rate":..., "and_exists_lookups":...,
    "and_exists_hits":..., "and_exists_hit_rate":..., "split_memo_hits":...,
    "subset_states":..., "csf_time_s":..., "csf_worklist_deletions":...,
    "gc_runs":..., "gc_nodes_swept":...,
    "gc_dead_ratio":..., "completed":..., "monolithic":{...}}]}]. Per-circuit
    fields describe the partitioned flow; the nested ["monolithic"] object
    carries the same fields for the monolithic flow. Image-call counts and
    cache rates are populated only when observability was enabled during the
    run. *)

val write_bench_json :
  ?time_limit:float -> ?node_limit:int -> string -> row_result list -> unit
(** Write {!bench_json} (plus a trailing newline) to a file. *)

val verify_row : ?time_limit:float -> row_result -> (bool * bool) option
(** Run the §4 checks on the partitioned result, when it completed — under
    a fresh time budget (default {!default_time_limit}), so verification
    can no longer run unbounded; [None] also when the budget is
    exhausted. *)
