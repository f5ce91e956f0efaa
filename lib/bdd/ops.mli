(** Boolean operations on BDD nodes.

    All functions take the manager first; node arguments and results are node
    ids in that manager. Semantic equality of results is id equality. *)

val var_bdd : Manager.t -> int -> int
(** [var_bdd m v] is the BDD of the single positive literal [v]. *)

val nvar_bdd : Manager.t -> int -> int
(** [nvar_bdd m v] is the BDD of the single negative literal [¬v]. *)

val bnot : Manager.t -> int -> int
val band : Manager.t -> int -> int -> int
val bor : Manager.t -> int -> int -> int
val bxor : Manager.t -> int -> int -> int
val bxnor : Manager.t -> int -> int -> int

val bdiff : Manager.t -> int -> int -> int
(** [bdiff m f g] is [f ∧ ¬g]. *)

val ite : Manager.t -> int -> int -> int -> int
(** [ite m f g h] is [if f then g else h]. *)

val conj : Manager.t -> int list -> int
(** Balanced conjunction of a list ([one] on empty). *)

val disj : Manager.t -> int list -> int
(** Balanced disjunction of a list ([zero] on empty). *)

val cube_of_vars : Manager.t -> int list -> int
(** Positive cube [∧ v] used to name a set of variables to quantify. *)

val cube_of_literals : Manager.t -> (int * bool) list -> int
(** Cube of literals [(var, polarity)]; [true] is the positive literal. *)

val exists : Manager.t -> int -> int -> int
(** [exists m cube f] is [∃ vars(cube). f]; [cube] must be a positive cube. *)

val forall : Manager.t -> int -> int -> int
(** [forall m cube f] is [∀ vars(cube). f]. *)

val and_exists : Manager.t -> int -> int -> int -> int
(** [and_exists m cube f g] is [∃ vars(cube). f ∧ g] without building
    [f ∧ g] (the relational-product primitive of image computation). *)

val cofactor : Manager.t -> int -> int -> bool -> int
(** [cofactor m f v b] is f with variable [v] fixed to [b]. *)

val cofactor_cube : Manager.t -> int -> int -> int
(** [cofactor_cube m f cube] fixes every literal of [cube] in [f]. *)

val compose : Manager.t -> int -> int -> int -> int
(** [compose m f v g] substitutes function [g] for variable [v] in [f]. *)

val subst : Manager.t -> int -> (int -> int option) -> int
(** [subst m f lookup] simultaneously substitutes [lookup v] (a node) for
    every variable [v] of [f] where [lookup v] is [Some _]. *)

val rename : Manager.t -> int -> (int * int) list -> int
(** [rename m f pairs] renames variables [fst] to [snd] simultaneously. Uses
    a fast structural rebuild when the mapping preserves variable order on
    the support of [f], and falls back to [subst] otherwise. *)

val support : Manager.t -> int -> int list
(** Variables occurring in [f], sorted by level. *)

val support_union : Manager.t -> int list -> int list
(** Sorted union of the supports of a list of nodes. *)

val size : Manager.t -> int -> int
(** Number of distinct decision nodes reachable from [f] (constants not
    counted). *)

val size_shared : Manager.t -> int list -> int
(** Node count of a list of BDDs with sharing counted once. *)

val sat_count : Manager.t -> int -> int -> float
(** [sat_count m f nvars] is the number of satisfying assignments of [f] over
    a space of [nvars] variables. *)

val eval : Manager.t -> int -> (int -> bool) -> bool
(** Evaluate [f] under a total assignment. *)

val pick_minterm : Manager.t -> int -> int list -> (int * bool) list option
(** [pick_minterm m f vars] is a satisfying assignment of [f] extended to a
    total assignment of [vars] ([None] if [f] = zero). [vars] must be sorted
    by level and must cover the support of [f]. *)
