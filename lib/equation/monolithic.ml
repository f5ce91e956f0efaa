module M = Bdd.Manager
module O = Bdd.Ops
module S = Network.Symbolic

type stats = { subset_states : int; hidden_relation_nodes : int; peak_nodes : int }

let relation_of_functions man pairs =
  O.conj man
    (List.map (fun (v, fn) -> O.bxnor man (O.var_bdd man v) fn) pairs)

(* sink position in the oracle's sink table *)
let dca = 0

let oracle ?runtime ~hidden_size (p : Problem.t) rs =
  let tick = Runtime.ticker runtime in
  let man = p.Problem.man in
  let f = p.Problem.f_sym and s = p.Problem.s_sym in
  let pin id = ignore (M.Roots.add rs id : int) in
  (* The relation build chains many top-level operations whose operands
     live only in OCaml locals; it runs frozen (growing the store instead
     of collecting), and only the survivors are pinned for the subset
     phase. This is the paper's strawman flow: the monolithic relation is
     the peak anyway, so there is little for a collector to reclaim here. *)
  let d, hidden, cs_cube, ns_cube =
    M.with_frozen man @@ fun () ->
    (* monolithic transition-output relations *)
    let to_f =
      relation_of_functions man
        (List.combine f.S.next_state_vars f.S.next_fns
        @ List.combine p.Problem.u_vars p.Problem.f_out_u
        @ List.combine p.Problem.o_vars p.Problem.f_out_o)
    in
    tick ();
    let to_s =
      relation_of_functions man
        (List.combine s.S.next_state_vars s.S.next_fns
        @ List.combine p.Problem.o_vars p.Problem.s_out_o)
    in
    tick ();
    (* completion of S with the explicit DC state bit (paper §2): undefined
       input/output combinations transition to the unique non-accepting
       state [d = 1], which self-loops. The DC state's next-state code is
       fixed to all-zeros to keep the relation deterministic. *)
    let d = O.var_bdd man p.Problem.dc_var in
    let d' = O.var_bdd man p.Problem.dc_next_var in
    let ns2_cube = O.cube_of_vars man s.S.next_state_vars in
    let undefined = O.bnot man (O.exists man ns2_cube to_s) in
    let zero_ns2 =
      O.conj man (List.map (O.nvar_bdd man) s.S.next_state_vars)
    in
    let nd = O.bnot man d and nd' = O.bnot man d' in
    let to_s_complete =
      O.disj man
        [ O.conj man [ nd; nd'; to_s ];
          O.conj man [ nd; undefined; d'; zero_ns2 ];
          O.conj man [ d; d'; zero_ns2 ] ]
    in
    tick ();
    (* complement(S) flips acceptance to the DC bit; form the product with
       the (incomplete, all-accepting) F and hide the external variables.
       This monolithic quantification is the expensive step the paper
       avoids. *)
    let product = O.band man to_f to_s_complete in
    tick ();
    let io_cube =
      O.cube_of_vars man (Problem.hidden_inputs p @ p.Problem.o_vars)
    in
    let hidden = O.exists man io_cube product in
    tick ();
    let cs_vars = Problem.state_vars p @ [ p.Problem.dc_var ] in
    let ns_vars = Problem.next_state_vars p @ [ p.Problem.dc_next_var ] in
    (d, hidden, O.cube_of_vars man cs_vars, O.cube_of_vars man ns_vars)
  in
  List.iter pin [ d; hidden; cs_cube; ns_cube ];
  hidden_size := O.size man hidden;
  let start =
    M.Roots.add rs
      (M.with_frozen man @@ fun () ->
       O.band man (Problem.initial_cube p) (O.bnot man d))
  in
  (* traditional subset construction: one image per expanded state, no
     early trimming of bad subsets *)
  let successors ~split zeta =
    Option.iter Runtime.tick_image runtime;
    let p_rel = Img.Image.fused_image man ~cube:cs_cube hidden zeta in
    M.stack_push man p_rel;
    let domain = O.exists man ns_cube p_rel in
    M.stack_push man domain;
    let arcs = split p_rel in
    let to_dca = O.bnot man domain in
    M.stack_drop man 2;
    if to_dca <> M.zero then arcs @ [ (to_dca, Engine.Sink dca) ] else arcs
  in
  { Engine.start;
    ns_cube;
    rename = Problem.ns_to_cs p @ [ (p.Problem.dc_next_var, p.Problem.dc_var) ];
    sinks = [ { Engine.sink_name = "DCA"; sink_accepting = true } ];
    successors;
    (* acceptance after the final complementation: a subset is accepting
       iff it contains no state of the complemented specification's DC
       (= no product state with d = 1); the completion sink is accepting *)
    is_accepting = (fun zeta -> O.band man zeta d = M.zero) }

let solve_arena ?runtime (p : Problem.t) =
  let hidden_size = ref 0 in
  let arena, subset_states =
    Engine.run ?runtime p.Problem.man ~alphabet:(Problem.alphabet p)
      (oracle ?runtime ~hidden_size p)
  in
  ( arena,
    { subset_states; hidden_relation_nodes = !hidden_size;
      peak_nodes = M.peak_live_nodes p.Problem.man } )

let solve ?runtime p =
  let arena, stats = solve_arena ?runtime p in
  (Engine.to_automaton arena, stats)
