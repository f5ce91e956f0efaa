(** Multi-level sequential networks (the paper's Figure 2 object).

    A network is a DAG of logic nodes over primary inputs and latch outputs,
    with designated primary outputs and per-latch next-state drivers. Nets
    are integer handles; each net is driven by exactly one element. *)

type net = int

type element =
  | Input
  | Node of { fanins : net array; fn : Expr.t }
      (** combinational node; [fn]'s [Var k] refers to [fanins.(k)] *)
  | Latch of { mutable input : net; init : bool }

type t = private {
  name : string;
  drivers : element array;  (** driver of each net, indexed by net id *)
  net_names : string array;
  inputs : net list;        (** primary inputs, in declaration order *)
  outputs : (string * net) list;  (** primary outputs *)
  latches : net list;       (** latch output nets, in declaration order *)
}

(** {1 Construction} *)

type builder

val create : string -> builder
val add_input : builder -> string -> net

val add_node : builder -> ?name:string -> Expr.t -> net array -> net
(** [add_node b fn fanins]: a combinational node computing [fn] over
    [fanins]. *)

val add_latch : builder -> ?name:string -> init:bool -> unit -> net
(** Create a latch whose data input is connected later with
    {!set_latch_input}; reading it before freezing is allowed (its value is
    the latch's current state). *)

val set_latch_input : builder -> net -> net -> unit
(** [set_latch_input b latch data]. Raises if [latch] is not a latch net. *)

val add_output : builder -> string -> net -> unit

val const_net : builder -> bool -> net
(** A net driven by a constant. *)

val freeze : builder -> t
(** Validate (every latch connected, combinational part acyclic) and seal.
    Raises [Invalid_argument] on malformed networks. *)

(** {1 Queries} *)

val net_name : t -> net -> string
val num_inputs : t -> int
val num_outputs : t -> int
val num_latches : t -> int
val num_nodes : t -> int

val topo_order : t -> net list
(** Combinational nodes in topological order (inputs and latches first). *)

val latch_init : t -> net -> bool
val latch_input : t -> net -> net

(** {1 Simulation} *)

type state = bool array
(** One boolean per latch, in [latches] order. *)

val initial_state : t -> state

val step : t -> state -> bool array -> bool array * state
(** [step n st inputs] is [(outputs, next_state)]; [inputs] in PI order,
    [outputs] in PO order. *)

val reachable_states : ?limit:int -> t -> state list
(** Explicit breadth-first reachable-state enumeration over all input
    vectors. Exponential; intended for tests on small networks. Stops with
    [Invalid_argument] past [limit] states (default 1 lsl 20). *)

val pp_stats : Format.formatter -> t -> unit
(** One line: name, #PI/#PO/#latches/#nodes. *)
