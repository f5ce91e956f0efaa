module M = Bdd.Manager
module O = Bdd.Ops

(* The engine is the single registration point of the subset-state
   counter both flows bump; the CI guards that the name is not
   re-registered elsewhere in lib/. *)
let c_expanded = Obs.Counter.make "subset.states_expanded"

type target = State of int | Sink of int

type sink = {
  sink_name : string;
  sink_accepting : bool;
}

type oracle = {
  start : int;
  ns_cube : int;
  rename : (int * int) list;
  sinks : sink list;
  successors : split:(int -> (int * target) list) -> int -> (int * target) list;
  is_accepting : int -> bool;
}

type arena = {
  man : Bdd.Manager.t;
  alphabet : int list;
  initial : int;
  accepting : bool array;
  names : string array;
  arc_src : int array;
  arc_guard : int array;
  arc_dst : int array;
}

let num_states a = Array.length a.accepting
let num_arcs a = Array.length a.arc_src

let run ?runtime ?on_state man ~alphabet make_oracle =
  let enter ph = Option.iter (fun rt -> Runtime.enter_phase rt ph) runtime in
  let tick = Runtime.ticker runtime in
  let notify k = match on_state with Some f -> f k | None -> () in
  (* Everything the construction keeps across image computations — the
     oracle's relations, the interned subset states, the arc guards and
     the split-memo arcs — lives in one root set scoped to the run, so
     the manager is free to collect dead image intermediates at any
     allocation point in between. *)
  M.with_roots man @@ fun rs ->
  let pin id = ignore (M.Roots.add rs id : int) in
  enter Runtime.Build;
  let oracle = make_oracle rs in
  pin oracle.ns_cube;
  (* Subset states are interned by their (canonical) BDD. *)
  let index = Hashtbl.create 64 in
  let rev_states = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let intern zeta =
    match Hashtbl.find_opt index zeta with
    | Some k -> k
    | None ->
      pin zeta;
      let k = !count in
      incr count;
      Hashtbl.replace index zeta k;
      rev_states := zeta :: !rev_states;
      Queue.add (zeta, k) queue;
      k
  in
  ignore (intern oracle.start : int);
  let split_memo = Subset.memo_table () in
  (* split into (guard, successor) classes, rename each successor back to
     current-state space and pin it before any further allocation. The
     enumeration runs frozen; both oracles hold [p] and its domain pinned
     when they call [split], so this is the last safe point to reclaim an
     image's dead intermediates before a store that fills while frozen
     doubles instead. *)
  let split p =
    ignore (M.collect_at_safe_point man : int);
    List.map
      (fun (g, s) -> (g, State (M.Roots.add rs (O.rename man s oracle.rename))))
      (Subset.split_successors ?runtime ~memo:split_memo ~roots:rs man ~p
         ~alphabet ~ns_cube:oracle.ns_cube)
  in
  let sinks = Array.of_list oracle.sinks in
  let sink_used = Array.map (fun _ -> false) sinks in
  (* arcs accumulate newest-first; sink destinations keep negative
     placeholders until the number of core states is known *)
  let rev_arcs = ref [] in
  let n_core_arcs = ref 0 in
  enter Runtime.Subset;
  while not (Queue.is_empty queue) do
    tick ();
    Option.iter (fun rt -> Runtime.note_subset_states rt !count) runtime;
    let zeta, k = Queue.pop queue in
    if !Obs.on then Obs.Counter.bump c_expanded;
    notify k;
    List.iter
      (fun (guard, tgt) ->
        pin guard;
        let dst =
          match tgt with
          | State z -> intern z
          | Sink j ->
            sink_used.(j) <- true;
            -1 - j
        in
        rev_arcs := (k, guard, dst) :: !rev_arcs;
        incr n_core_arcs)
      (oracle.successors ~split zeta)
  done;
  let n_core = !count in
  let states = Array.of_list (List.rev !rev_states) in
  (* materialize the sinks that were reached, in declaration order *)
  let sink_id = Array.make (Array.length sinks) (-1) in
  let n = ref n_core in
  Array.iteri
    (fun j used ->
      if used then begin
        sink_id.(j) <- !n;
        incr n
      end)
    sink_used;
  let n = !n in
  let accepting = Array.make n true in
  let names = Array.make n "" in
  for s = 0 to n_core - 1 do
    (* queried while the roots are still held, so the state BDDs are live *)
    accepting.(s) <- oracle.is_accepting states.(s);
    names.(s) <- Printf.sprintf "Z%d" s
  done;
  Array.iteri
    (fun j id ->
      if id >= 0 then begin
        accepting.(id) <- sinks.(j).sink_accepting;
        names.(id) <- sinks.(j).sink_name
      end)
    sink_id;
  let n_sink_arcs = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 sink_used in
  let total = !n_core_arcs + n_sink_arcs in
  let arc_src = Array.make total 0 in
  let arc_guard = Array.make total 0 in
  let arc_dst = Array.make total 0 in
  let i = ref !n_core_arcs in
  List.iter
    (fun (s, g, d) ->
      decr i;
      arc_src.(!i) <- s;
      arc_guard.(!i) <- g;
      arc_dst.(!i) <- (if d >= 0 then d else sink_id.(-1 - d)))
    !rev_arcs;
  let i = ref !n_core_arcs in
  Array.iter
    (fun id ->
      if id >= 0 then begin
        arc_src.(!i) <- id;
        arc_guard.(!i) <- M.one;
        arc_dst.(!i) <- id;
        incr i
      end)
    sink_id;
  (* the arena outlives this root set: protect its guards for the
     manager's lifetime (mirrors Automaton.pin; constants are no-ops) *)
  Array.iter (fun g -> M.protect man g) arc_guard;
  ( { man; alphabet; initial = 0; accepting; names; arc_src; arc_guard;
      arc_dst },
    n_core )

let to_automaton a =
  Fsa.Automaton.of_arcs a.man ~alphabet:a.alphabet ~initial:a.initial
    ~accepting:(Array.copy a.accepting) ~names:(Array.copy a.names)
    ~src:a.arc_src ~guard:a.arc_guard ~dst:a.arc_dst

let arena_of_automaton (x : Fsa.Automaton.t) =
  let n = Fsa.Automaton.num_states x in
  let total =
    Array.fold_left (fun acc l -> acc + List.length l) 0 x.Fsa.Automaton.edges
  in
  let arc_src = Array.make total 0 in
  let arc_guard = Array.make total 0 in
  let arc_dst = Array.make total 0 in
  let i = ref 0 in
  for s = 0 to n - 1 do
    List.iter
      (fun (g, d) ->
        arc_src.(!i) <- s;
        arc_guard.(!i) <- g;
        arc_dst.(!i) <- d;
        incr i)
      x.Fsa.Automaton.edges.(s)
  done;
  { man = x.Fsa.Automaton.man;
    alphabet = x.Fsa.Automaton.alphabet;
    initial = x.Fsa.Automaton.initial;
    accepting = Array.copy x.Fsa.Automaton.accepting;
    names = Array.copy x.Fsa.Automaton.names;
    arc_src;
    arc_guard;
    arc_dst }
