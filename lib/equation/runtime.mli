(** Solver runtime: phase-scoped resource governance and deterministic
    fault injection.

    A {!t} owns the whole resource story of one [solve_split] call: the
    CPU deadline, the BDD node budget, the phase the solver is currently
    in, and an optional injected fault. Every long-running loop in the
    solver calls {!tick}; image computations additionally call
    {!tick_image}. Blow-ups surface as {!Deadline_exceeded} (deadline) or
    {!Bdd.Manager.Node_limit_exceeded} (node budget / injected fault),
    which {!Solve.solve_split} converts into its graceful-degradation
    ladder and, ultimately, a structured "could not complete" outcome. *)

exception Deadline_exceeded
(** The CPU deadline has passed (or a [Deadline_at] fault fired): the
    solve becomes a "could not complete" (CNC) outcome, as in the paper's
    Table 1. *)

type phase =
  | Build  (** problem construction and relation building *)
  | Subset  (** the (modified) subset construction *)
  | Csf  (** CSF extraction: prefix closure + progressive *)
  | Verify  (** the §4 verification checks *)

val phase_name : phase -> string
(** ["build"], ["subset"], ["csf"], ["verify"]. *)

(** Deterministic fault injection: make every failure path reachable in
    tests and from the CLI without relying on real blow-ups. *)
module Fault : sig
  type kind =
    | Mk_fail of int
        (** fail the Nth fresh node allocation after {!attach} with
            {!Bdd.Manager.Node_limit_exceeded} *)
    | Image_fail of int
        (** raise {!Bdd.Manager.Node_limit_exceeded} at the Kth image
            computation after {!attach} *)
    | Deadline_at of phase
        (** simulate deadline expiry ({!Deadline_exceeded}) on the first
            tick inside the given phase *)

  type t

  val make : ?times:int -> kind -> t
  (** A fault that fires [times] times (default 1) and is inert
      afterwards — so a retry after an injected failure can succeed
      deterministically. Raises [Invalid_argument] on [times < 1] or a
      non-positive allocation/image index. *)

  val kind : t -> kind

  val remaining : t -> int
  (** Firings left; [0] once the fault is spent. *)

  val of_string : string -> (t, string) result
  (** Parse the [LESOLVE_FAULT] syntax: [KIND:ARG[:TIMES]] where the
      forms are [mk:N], [image:K] and [deadline:PHASE] with [PHASE] one
      of [build|subset|csf|verify]; the optional [TIMES] field is the
      firing count. Examples: ["mk:5000"], ["image:3:2"],
      ["deadline:csf"]. *)

  val to_string : t -> string

  val env_var : string
  (** ["LESOLVE_FAULT"]. *)

  val from_env : unit -> t option
  (** Read and parse {!env_var}; [None] when unset or empty. Raises
      [Invalid_argument] on a malformed value. *)
end

type t

val create :
  ?deadline:float -> ?node_limit:int -> ?fault:Fault.t -> unit -> t
(** [deadline] is an absolute [Sys.time] value; [node_limit] bounds each
    attached manager's total node count. *)

val attach : t -> Bdd.Manager.t -> unit
(** Point the runtime at the manager of the current solve attempt: sets
    the manager's node limit, installs the [Mk_fail] allocation hook when
    such a fault is still live, and resets the per-attempt image and
    subset-state counters. Call once per attempt (the fallback ladder
    attaches each fresh or reordered manager in turn). *)

val detach : t -> Bdd.Manager.t -> unit
(** Lift the node limit and allocation hook from a manager that is being
    abandoned — required before migrating its contents to a reordered
    manager, since reading a full manager is fine but rebuilding its
    relation parts may allocate a few more nodes. *)

val enter_phase : t -> phase -> unit
(** Record the phase and immediately check the deadline (and any
    [Deadline_at] fault targeting the new phase). *)

val phase : t -> phase

val tick : t -> unit
(** The cheap strided check placed in every solver loop: fires a pending
    [Deadline_at] fault for the current phase, and every 32nd call
    compares [Sys.time ()] against the deadline, raising
    {!Deadline_exceeded} past it. *)

val tick_image : t -> unit
(** {!tick} plus the per-attempt image counter; fires a pending
    [Image_fail] fault. Call once per image computation. *)

val note_subset_states : t -> int -> unit
(** Record the number of subset states explored so far, so a failed
    attempt can report its partial progress. *)

val subset_states : t -> int
(** Subset states recorded since the last {!attach}. *)

val note_kernel : t -> string -> unit
(** Record which image-kernel configuration (clustering + quantification
    schedule) the current attempt runs with — e.g. ["affinity:500/greedy"];
    emitted as a trace point and reported with failed attempts. *)

val kernel : t -> string
(** The last {!note_kernel} value ([""] before the first attempt). *)

val images : t -> int
(** Image computations since the last {!attach}. *)

val deadline : t -> float option
val node_limit : t -> int option

val ticker : t option -> unit -> unit
(** [ticker (Some rt)] is [fun () -> tick rt]; [ticker None] is a no-op.
    Convenience for code paths with an optional runtime. *)
