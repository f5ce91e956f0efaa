(** And-Inverter Graphs with structural hashing, and the AIGER ASCII
    (".aag") interchange format — the standard exchange representation of
    modern sequential synthesis and model-checking tools.

    Literal convention (AIGER): variable [v] has positive literal [2v] and
    negative literal [2v+1]; variable 0 is constant false. Variables are
    numbered inputs first, then latches, then AND gates. *)

type lit = int

val lit_true : lit
val lit_false : lit
val lit_not : lit -> lit

type t = private {
  num_inputs : int;
  num_latches : int;
  ands : (lit * lit) array;    (** gate [k] defines variable [I + L + 1 + k] *)
  latch_next : lit array;
  latch_init : bool array;
  outputs : lit array;
  input_names : string array;
  latch_names : string array;
  output_names : string array;
}

(** {1 Construction} *)

type builder

val create : inputs:string list -> latches:(string * bool) list -> builder
val input_lit : builder -> int -> lit
val latch_lit : builder -> int -> lit

val mk_and : builder -> lit -> lit -> lit
(** Structurally hashed; applies the constant/idempotence/complement
    simplifications ([x∧0], [x∧1], [x∧x], [x∧¬x]). *)

val add_output : builder -> string -> lit -> unit
val freeze : builder -> t

(** {1 Conversion} *)

val of_netlist : Netlist.t -> t
(** Combinational logic is decomposed into 2-input AND gates with
    structural hashing (a light synthesis pass in itself). *)

val to_netlist : t -> Netlist.t
(** One netlist node per AND gate. *)

(** {1 Simulation and stats} *)

val eval : t -> bool array -> bool array -> bool array * bool array
(** [eval aig inputs state] = [(outputs, next_state)]. *)

val num_ands : t -> int

(** {1 AIGER ASCII} *)

exception Parse_error of int * string

val to_aag : t -> string
val of_aag : string -> t
val write_file : string -> t -> unit
val parse_file : string -> t
