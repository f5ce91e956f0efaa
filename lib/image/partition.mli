(** Partitioned transition relations [{T_k(i, cs, ns_k) = ns_k ↔ T_k(i,cs)}]
    and affinity clustering (conjoining parts up to a size threshold, the
    usual middle ground between fully-partitioned and monolithic). *)

type t = {
  man : Bdd.Manager.t;
  parts : int list;  (** relation conjuncts *)
}

val of_functions : Bdd.Manager.t -> (int * int) list -> t
(** [(var, fn)] pairs become parts [var ↔ fn]. Used both for next-state
    functions (var = a next-state variable) and output/communication
    functions (var = an output variable, as in the paper's [u_j ↔ U_j]). *)

val of_relations : Bdd.Manager.t -> int list -> t

(** How to pre-cluster a partition before image computations. *)
type clustering =
  | No_clustering  (** fully partitioned, one conjunct per latch/output *)
  | Affinity of int
      (** repeatedly conjoin the pair of parts with the highest
          support-overlap (Jaccard) affinity, accepting a merge only while
          the cluster BDD stays under the given node threshold; rejected
          pairs are never retried, and parts that track the same variables
          merge whatever their position in the list. A threshold [<= 1]
          keeps the partition as is. *)

val apply : t -> clustering -> t

val describe_clustering : clustering -> string
(** ["unclustered"] or ["affinity:N"] — used in traces and attempt
    reports. *)

val monolithic : t -> int
(** The full conjunction (the representation the paper avoids). *)
