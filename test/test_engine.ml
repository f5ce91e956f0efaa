(* Unit tests of the shared subset-construction engine on hand-built
   oracles: exact interning, arc emission order, sink materialization and
   guard protection — independent of the partitioned/monolithic flows that
   normally drive it. *)

module M = Bdd.Manager
module O = Bdd.Ops
module E = Equation

(* a two-state fixture: alphabet variable a, current-state variable c,
   next-state variable c'; states are the two c-literals *)
let fixture () =
  let man, a, _b = Helpers.alphabet_man () in
  let c = M.new_var ~name:"c" man in
  let n = M.new_var ~name:"c'" man in
  (man, a, c, n)

let sinks =
  [ { E.Engine.sink_name = "DCN"; sink_accepting = false };
    { E.Engine.sink_name = "DCA"; sink_accepting = true } ]

(* Z0 --a--> Z1, Z0 --!a--> DCA, Z1 --a--> Z0, Z1 --!a--> Z1;
   DCN declared but never reached *)
let two_state_oracle man a c n rs =
  let s0 = O.nvar_bdd man c and s1 = O.var_bdd man c in
  let av = O.var_bdd man a and na = O.nvar_bdd man a in
  List.iter (fun id -> ignore (M.Roots.add rs id : int)) [ s0; s1; av; na ];
  { E.Engine.start = s0;
    ns_cube = O.cube_of_vars man [ n ];
    rename = [ (n, c) ];
    sinks;
    successors =
      (fun ~split:_ zeta ->
        if zeta = s0 then [ (av, E.Engine.State s1); (na, E.Engine.Sink 1) ]
        else [ (av, E.Engine.State s0); (na, E.Engine.State s1) ]);
    is_accepting = (fun zeta -> zeta = s0) }

let test_hand_oracle () =
  let man, a, c, n = fixture () in
  let arena, n_core =
    E.Engine.run man ~alphabet:[ a ] (two_state_oracle man a c n)
  in
  Alcotest.(check int) "core states" 2 n_core;
  (* the unreached DCN sink is omitted; the reached DCA follows the core *)
  Alcotest.(check int) "total states" 3 (E.Engine.num_states arena);
  Alcotest.(check (array string)) "names"
    [| "Z0"; "Z1"; "DCA" |] arena.E.Engine.names;
  Alcotest.(check (array bool)) "accepting"
    [| true; false; true |] arena.E.Engine.accepting;
  Alcotest.(check int) "initial" 0 arena.E.Engine.initial;
  (* arcs in emission order: Z0's arcs, Z1's arcs, the sink self-loop *)
  Alcotest.(check int) "arc count" 5 (E.Engine.num_arcs arena);
  Alcotest.(check (array int)) "arc sources"
    [| 0; 0; 1; 1; 2 |] arena.E.Engine.arc_src;
  Alcotest.(check (array int)) "arc destinations"
    [| 1; 2; 0; 1; 2 |] arena.E.Engine.arc_dst;
  let av = O.var_bdd man a and na = O.nvar_bdd man a in
  Alcotest.(check (array int)) "arc guards"
    [| av; na; av; na; M.one |] arena.E.Engine.arc_guard

(* successors returning the same state twice intern it once; the guard of
   each arc is kept separately *)
let test_duplicate_target_interned_once () =
  let man, a, c, n = fixture () in
  let oracle rs =
    let s0 = O.nvar_bdd man c and s1 = O.var_bdd man c in
    let av = O.var_bdd man a and na = O.nvar_bdd man a in
    List.iter (fun id -> ignore (M.Roots.add rs id : int)) [ s0; s1; av; na ];
    { (two_state_oracle man a c n rs) with
      E.Engine.successors =
        (fun ~split:_ _ ->
          [ (av, E.Engine.State s1); (na, E.Engine.State s1) ]) }
  in
  let arena, n_core = E.Engine.run man ~alphabet:[ a ] oracle in
  Alcotest.(check int) "two core states only" 2 n_core;
  Alcotest.(check int) "no sink used" 2 (E.Engine.num_states arena);
  Alcotest.(check (array int)) "both arcs hit the interned state"
    [| 1; 1; 1; 1 |] arena.E.Engine.arc_dst

(* arena guards survive a collection after the construction's root set is
   released: to_automaton still validates and the guards still evaluate *)
let test_guards_protected () =
  let man, a, c, n = fixture () in
  let arena, _ = E.Engine.run man ~alphabet:[ a ] (two_state_oracle man a c n) in
  ignore (M.collect man : int);
  let x = E.Engine.to_automaton arena in
  Alcotest.(check int) "guard of Z0 under a=1 is true" M.one
    (O.cofactor man (fst (List.hd x.Fsa.Automaton.edges.(0))) a true)

let test_to_automaton_roundtrip () =
  let man, a, c, n = fixture () in
  let arena, _ = E.Engine.run man ~alphabet:[ a ] (two_state_oracle man a c n) in
  let x = E.Engine.to_automaton arena in
  Alcotest.(check int) "state count preserved"
    (E.Engine.num_states arena) (Fsa.Automaton.num_states x);
  let back = E.Engine.arena_of_automaton x in
  Alcotest.(check (array int)) "sources roundtrip"
    arena.E.Engine.arc_src back.E.Engine.arc_src;
  Alcotest.(check (array int)) "guards roundtrip"
    arena.E.Engine.arc_guard back.E.Engine.arc_guard;
  Alcotest.(check (array int)) "destinations roundtrip"
    arena.E.Engine.arc_dst back.E.Engine.arc_dst;
  Alcotest.(check (array bool)) "accepting roundtrip"
    arena.E.Engine.accepting back.E.Engine.accepting;
  Alcotest.(check (array string)) "names roundtrip"
    arena.E.Engine.names back.E.Engine.names

(* the worklist CSF on an engine-built arena agrees with the sweep
   reference on the converted automaton, and reports its deletions *)
let test_worklist_csf_on_arena () =
  let net =
    Circuits.Generators.random_logic ~seed:7 ~inputs:2 ~outputs:1 ~latches:3
      ~levels:2 ()
  in
  let _, p = E.Split.problem net ~x_latches:[ "x1"; "x2" ] in
  let arena, _ = E.Partitioned.solve_arena p in
  let worklist, deletions = E.Csf.of_arena p arena in
  let sweep = Helpers.csf_sweep p (E.Engine.to_automaton arena) in
  Alcotest.(check bool) "deletions non-negative" true (deletions >= 0);
  Alcotest.(check int) "same state count"
    (E.Csf.num_states sweep) (E.Csf.num_states worklist);
  Alcotest.(check bool) "same language" true
    (Fsa.Language.equivalent worklist sweep)

let () =
  Alcotest.run "engine"
    [ ( "oracle",
        [ Alcotest.test_case "hand-built two-state oracle" `Quick
            test_hand_oracle;
          Alcotest.test_case "duplicate targets interned once" `Quick
            test_duplicate_target_interned_once;
          Alcotest.test_case "guards protected across collection" `Quick
            test_guards_protected;
          Alcotest.test_case "to_automaton roundtrip" `Quick
            test_to_automaton_roundtrip ] );
      ( "csf",
        [ Alcotest.test_case "worklist matches sweep on an arena" `Quick
            test_worklist_csf_on_arena ] ) ]
