(** Sequential equivalence checking of two networks with identical
    interfaces: symbolic product-machine reachability with an
    output-equality invariant, producing a shortest distinguishing input
    sequence on failure. A random co-simulation front end is provided for
    cheap bug hunting. *)

type result =
  | Equivalent
  | Different of bool array list
      (** a distinguishing input sequence, one input vector per cycle in
          the first network's PI order; feeding it to both networks makes
          their outputs differ at the last cycle *)

val check : Network.Netlist.t -> Network.Netlist.t -> result
(** Exact check. The networks must have the same input and output names
    (matching is by name, order-independent); raises [Invalid_argument]
    otherwise. Each reachability step is one {!Image.forward_image}. *)

val random_search :
  ?rounds:int ->
  ?seed:int ->
  Network.Netlist.t ->
  Network.Netlist.t ->
  bool array list option
(** Random co-simulation; [Some trace] witnesses a difference, [None]
    proves nothing. *)
