(* Tests for the img library: early-quantification scheduling agrees with
   the monolithic computation, images agree across strategies, clustering
   preserves semantics, and symbolic reachability matches explicit state
   enumeration. *)

module M = Bdd.Manager
module O = Bdd.Ops
module Q = Img.Quantify
module P = Img.Partition
module I = Img.Image
module R = Img.Reach
module S = Network.Symbolic

let random_bdd = Helpers.random_bdd ~depth:3

(* [∃ quantify. care ∧ ∧ parts] through a plan built in a scoped root set *)
let planned ?order man parts ~quantify care =
  M.with_roots man @@ fun rs ->
  Q.apply (Q.plan man ?order ~roots:rs parts ~care_support:[] ~quantify) care

let test_and_exists_agrees () =
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 50 do
    let man = M.create () in
    let nvars = 8 in
    ignore (M.new_vars man nvars : int list);
    let rels = List.init 5 (fun _ -> random_bdd man nvars rng) in
    let quantify = [ 1; 3; 5 ] in
    let mono = Q.monolithic_and_exists man rels ~quantify in
    let care = List.hd rels and parts = List.tl rels in
    Alcotest.(check int) "greedy = monolithic" mono
      (planned man ~order:Q.Greedy parts ~quantify care);
    Alcotest.(check int) "given = monolithic" mono
      (planned man ~order:Q.Given parts ~quantify care)
  done

let test_and_exists_empty_quantify () =
  let man = M.create () in
  ignore (M.new_vars man 4 : int list);
  let a = O.var_bdd man 0 and b = O.var_bdd man 2 in
  Alcotest.(check int) "plain conjunction" (O.band man a b)
    (planned man [ b ] ~quantify:[] a)

let test_and_exists_all_quantified () =
  let man = M.create () in
  ignore (M.new_vars man 2 : int list);
  let a = O.var_bdd man 0 in
  let na = O.nvar_bdd man 0 in
  Alcotest.(check int) "unsat product" M.zero
    (planned man [ na ] ~quantify:[ 0; 1 ] a);
  Alcotest.(check int) "sat product" M.one
    (planned man [ a ] ~quantify:[ 0; 1 ] a)

(* One random instance of [apply (plan parts) care] against the monolithic
   reference, in a 16-slot store with auto-GC on, so collections run in
   the middle of planning and applying. Parts may be constants, and they
   never mention the last two variables, which only the care set does.
   Returns (planned, reference, collections). *)
let plan_instance order (seed, nparts) =
  let nvars = 8 in
  let man = M.create ~initial_capacity:16 () in
  ignore (M.new_vars man nvars : int list);
  M.set_auto_gc man true;
  let rng = Random.State.make [| seed |] in
  M.with_roots man @@ fun rs ->
  let random nvars =
    M.Roots.add rs (M.with_frozen man (fun () -> random_bdd man nvars rng))
  in
  let part () =
    match Random.State.int rng 10 with
    | 0 -> M.one
    | 1 -> M.zero
    | _ -> random (nvars - 2)
  in
  let parts = List.init nparts (fun _ -> part ()) in
  let care = random nvars in
  let subset () =
    List.filter (fun _ -> Random.State.bool rng) (List.init nvars Fun.id)
  in
  let quantify = subset () and care_support = subset () in
  let got =
    M.Roots.add rs
      (Q.apply (Q.plan man ~order ~roots:rs parts ~care_support ~quantify) care)
  in
  (got, Q.monolithic_and_exists man (care :: parts) ~quantify, M.gc_runs man)

let plan_arb =
  QCheck.(
    make
      ~print:(fun (seed, n) -> Printf.sprintf "seed=%d parts=%d" seed n)
      Gen.(pair (int_bound 1_000_000) (int_range 0 4)))

let prop_plan_apply (name, order) =
  QCheck.Test.make ~count:200 ~name:(name ^ ": apply (plan parts) = monolithic")
    plan_arb (fun instance ->
      let got, reference, _ = plan_instance order instance in
      got = reference)

(* the property is only meaningful if collections do happen under it *)
let test_plan_apply_collects () =
  let runs = ref 0 in
  for seed = 1 to 20 do
    let _, _, n = plan_instance Q.Greedy (seed, 4) in
    runs := !runs + n
  done;
  Alcotest.(check bool) "the 16-slot store collects" true (!runs > 0)

(* One random instance of a relation kept as a disjunction of parts: the
   union of one image per part [g :: urel] ([Image.apply_union], the
   partitioned oracle's grouped [Q_ζ]) against one image over the part
   [O.disj groups] (the single combined image it replaces). 1–6 groups,
   ⊥ and ⊤ among them, in a 16-slot store with auto-GC on. Returns
   (grouped, single, collections). *)
let union_instance (seed, ngroups) =
  let nvars = 8 in
  let man = M.create ~initial_capacity:16 () in
  ignore (M.new_vars man nvars : int list);
  M.set_auto_gc man true;
  let rng = Random.State.make [| seed |] in
  M.with_roots man @@ fun rs ->
  let random () =
    M.Roots.add rs (M.with_frozen man (fun () -> random_bdd man nvars rng))
  in
  let group () =
    match Random.State.int rng 6 with
    | 0 -> M.zero
    | 1 -> M.one
    | _ -> random ()
  in
  let groups = List.init ngroups (fun _ -> group ()) in
  let urel = List.init 2 (fun _ -> random ()) in
  let care = random () in
  let quantify =
    List.filter (fun _ -> Random.State.bool rng) (List.init nvars Fun.id)
  in
  let plan parts =
    I.plan I.default man ~roots:rs parts ~care_support:[ 0; 1 ] ~quantify
  in
  let grouped =
    M.Roots.add rs
      (I.apply_union man (List.map (fun g -> plan (g :: urel)) groups) care)
  in
  let whole = M.Roots.add rs (M.with_frozen man (fun () -> O.disj man groups)) in
  (grouped, I.apply (plan (whole :: urel)) care, M.gc_runs man)

let prop_apply_union =
  QCheck.Test.make ~count:200
    ~name:"grouped images = one image over the disjunction"
    QCheck.(
      make
        ~print:(fun (seed, n) -> Printf.sprintf "seed=%d groups=%d" seed n)
        Gen.(pair (int_bound 1_000_000) (int_range 1 6)))
    (fun instance ->
      let grouped, single, _ = union_instance instance in
      grouped = single)

(* the union counts one image per plan, is ⊥ over no plans, and its
   property runs collections *)
let test_apply_union_counts () =
  let runs = ref 0 in
  for seed = 1 to 20 do
    let _, _, n = union_instance (seed, 6) in
    runs := !runs + n
  done;
  Alcotest.(check bool) "the 16-slot store collects" true (!runs > 0);
  let man = M.create () in
  ignore (M.new_vars man 4 : int list);
  M.with_roots man @@ fun rs ->
  let a = O.var_bdd man 0 and b = O.var_bdd man 1 in
  let plan parts =
    I.plan I.default man ~roots:rs parts ~care_support:[] ~quantify:[ 0 ]
  in
  let plans = [ plan [ a ]; plan [ b ] ] in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  Alcotest.(check int) "no plans: ⊥" M.zero (I.apply_union man [] M.one);
  Alcotest.(check int) "no plans: no image" 0 (Obs.Counter.find "image.calls");
  Alcotest.(check int) "∃x0. x0 ∨ ∃x0. x1 = ⊤" M.one (I.apply_union man plans M.one);
  Alcotest.(check int) "one image per plan" 2 (Obs.Counter.find "image.calls")

let strategies =
  [ ("monolithic", I.Monolithic);
    ("partitioned-given", I.Partitioned Q.Given);
    ("partitioned-greedy", I.Partitioned Q.Greedy) ]

let clusterings =
  [ ("unclustered", P.No_clustering);
    ("affinity-25", P.Affinity 25);
    ("affinity-200", P.Affinity 200) ]

let test_cluster_preserves_product () =
  let rng = Random.State.make [| 23 |] in
  for _ = 1 to 20 do
    let man = M.create () in
    ignore (M.new_vars man 8 : int list);
    let parts = List.init 6 (fun _ -> random_bdd man 8 rng) in
    let p = P.of_relations man parts in
    List.iter
      (fun (name, clustering) ->
        let clustered = P.apply p clustering in
        Alcotest.(check int)
          (Printf.sprintf "%s: same product" name)
          (P.monolithic p) (P.monolithic clustered);
        Alcotest.(check bool)
          (Printf.sprintf "%s: no more parts than before" name)
          true
          (List.length clustered.P.parts <= List.length p.P.parts))
      clusterings
  done

(* The oracle the whole fused-kernel rewrite is checked against: for 50
   seeded random partitions, the clustered image under every quantification
   schedule must equal the naive unclustered computation (conjoin all parts,
   then quantify). *)
let test_clustered_image_oracle () =
  let rng = Random.State.make [| 0xc105 |] in
  for _ = 1 to 50 do
    let man = M.create () in
    let nvars = 10 in
    ignore (M.new_vars man nvars : int list);
    let parts = List.init 7 (fun _ -> random_bdd man nvars rng) in
    let care = random_bdd man nvars rng in
    let quantify = [ 0; 2; 4; 6; 8 ] in
    let p = P.of_relations man parts in
    let naive =
      O.exists man
        (O.cube_of_vars man quantify)
        (O.band man care (P.monolithic p))
    in
    List.iter
      (fun (cname, clustering) ->
        let clustered = P.apply p clustering in
        List.iter
          (fun (sname, strategy) ->
            Alcotest.(check int)
              (Printf.sprintf "%s/%s = naive" cname sname)
              naive
              (M.with_roots man @@ fun rs ->
               I.apply
                 (I.plan strategy man ~roots:rs clustered.P.parts
                    ~care_support:[] ~quantify)
                 care))
          strategies)
      clusterings
  done

(* a forward image of [care] through a plan built in a scoped root set *)
let forward strategy (sym : S.t) parts care =
  let man = sym.S.man in
  M.with_roots man @@ fun rs ->
  let plan =
    I.plan strategy man ~roots:rs parts.P.parts ~care_support:sym.S.state_vars
      ~quantify:(sym.S.input_vars @ sym.S.state_vars)
  in
  I.forward_image plan man ~ns_to_cs:(S.ns_to_cs sym) ~care

let test_image_strategies_agree () =
  let nets =
    [ Circuits.Generators.counter 4; Circuits.Generators.lfsr 5;
      Circuits.Generators.traffic_light () ]
  in
  List.iter
    (fun net ->
      let man = M.create () in
      let sym = S.of_netlist man net in
      let parts = P.of_functions man (S.transition_parts sym) in
      let care = sym.S.init_cube in
      let reference = forward I.Monolithic sym parts care in
      List.iter
        (fun (name, strat) ->
          Alcotest.(check int)
            (Printf.sprintf "%s image" name)
            reference
            (forward strat sym parts care))
        strategies)
    nets

let test_preimage_inverts () =
  (* for a deterministic machine, preimage(image(init)) must contain init *)
  let man = M.create () in
  let sym = S.of_netlist man (Circuits.Generators.counter 3) in
  let parts = P.of_functions man (S.transition_parts sym) in
  let img = forward (I.Partitioned Q.Greedy) sym parts sym.S.init_cube in
  let pre =
    M.with_roots man @@ fun rs ->
    let plan =
      I.plan (I.Partitioned Q.Greedy) man ~roots:rs parts.P.parts
        ~care_support:sym.S.next_state_vars
        ~quantify:(sym.S.input_vars @ sym.S.next_state_vars)
    in
    I.preimage plan man ~cs_to_ns:(S.cs_to_ns sym) ~care:img
  in
  Alcotest.(check int) "init ⊆ preimage of its image" sym.S.init_cube
    (O.band man sym.S.init_cube pre)

let test_reachable_counts () =
  let cases =
    [ (Circuits.Generators.counter 3, 8.0);
      (Circuits.Generators.counter 5, 32.0);
      (Circuits.Generators.johnson 4, 8.0);
      (Circuits.Generators.traffic_light (), 4.0);
      (Circuits.Generators.shift_register 4, 16.0) ]
  in
  List.iter
    (fun (net, expected) ->
      let man = M.create () in
      let sym = S.of_netlist man net in
      let r = R.reachable sym in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "reach %s" net.Network.Netlist.name)
        expected (R.count_states sym r))
    cases

let test_reachable_matches_explicit () =
  let nets =
    [ Circuits.Generators.lfsr 5; Circuits.Generators.arbiter 3;
      Circuits.Generators.gray_counter 4 ]
  in
  List.iter
    (fun net ->
      let man = M.create () in
      let sym = S.of_netlist man net in
      let symbolic = R.count_states sym (R.reachable sym) in
      let explicit =
        float_of_int (List.length (Network.Netlist.reachable_states net))
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "reach %s" net.Network.Netlist.name)
        explicit symbolic)
    nets

let test_reachable_strategies_agree () =
  let net = Circuits.Generators.lfsr 6 in
  let man = M.create () in
  let sym = S.of_netlist man net in
  let a = R.reachable ~strategy:I.Monolithic sym in
  let b = R.reachable ~strategy:(I.Partitioned Q.Greedy) sym in
  let c = R.reachable ~strategy:(I.Partitioned Q.Given) sym in
  Alcotest.(check int) "mono = greedy" a b;
  Alcotest.(check int) "mono = given" a c

let test_frontier_reachable () =
  let man = M.create () in
  let sym = S.of_netlist man (Circuits.Generators.counter 4) in
  let full = R.reachable sym in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let frontier, iters = R.frontier_reachable sym in
  Alcotest.(check int) "same fixpoint" full frontier;
  (* a 4-bit counter has diameter 15: the frontier loop needs 16 images *)
  Alcotest.(check int) "iterations = diameter + 1" 16 iters;
  Alcotest.(check int) "one image.calls per image" iters
    (Obs.Counter.find "image.calls")

(* --- Equiv ---------------------------------------------------------------- *)

let run_trace net trace =
  (* outputs observed at the last step of the input sequence *)
  let st = ref (Network.Netlist.initial_state net) in
  let last = ref [||] in
  List.iter
    (fun inputs ->
      let out, st' = Network.Netlist.step net !st inputs in
      last := out;
      st := st')
    trace;
  !last

let test_equiv_identical () =
  let a = Circuits.Generators.counter 4 in
  let b = Circuits.Generators.counter 4 in
  Alcotest.(check bool) "identical counters" true
    (Img.Equiv.check a b = Img.Equiv.Equivalent)

let test_equiv_optimized () =
  List.iter
    (fun net ->
      let opt = Network.Transform.optimize net in
      Alcotest.(check bool)
        (net.Network.Netlist.name ^ " ~ optimized")
        true
        (Img.Equiv.check net opt = Img.Equiv.Equivalent))
    [ Circuits.Generators.traffic_light ();
      Circuits.Generators.vending ();
      Circuits.Generators.random_logic ~seed:6 ~inputs:3 ~outputs:2
        ~latches:5 ~levels:3 () ]

let test_equiv_detects_difference () =
  (* counters with different widths have the same interface but diverge at
     the carry *)
  let a = Circuits.Generators.counter 3 in
  let b = Circuits.Generators.counter 4 in
  match Img.Equiv.check a b with
  | Img.Equiv.Equivalent -> Alcotest.fail "expected difference"
  | Img.Equiv.Different trace ->
    Alcotest.(check bool) "trace non-empty" true (trace <> []);
    (* replaying the trace must expose the mismatch on the final cycle *)
    let oa = run_trace a trace and ob = run_trace b trace in
    Alcotest.(check bool) "trace distinguishes" true (oa <> ob);
    (* the counters first differ at the 3-bit carry: cycle 8 *)
    Alcotest.(check int) "shortest trace" 8 (List.length trace)

let test_equiv_initial_difference () =
  let mk init =
    let b = Network.Netlist.create "one" in
    let l = Network.Netlist.add_latch b ~name:"q" ~init () in
    let inp = Network.Netlist.add_input b "i" in
    Network.Netlist.set_latch_input b l inp;
    Network.Netlist.add_output b "o" l;
    Network.Netlist.freeze b
  in
  match Img.Equiv.check (mk false) (mk true) with
  | Img.Equiv.Different [ _ ] -> ()
  | Img.Equiv.Different t ->
    Alcotest.fail
      (Printf.sprintf "expected length-1 trace, got %d" (List.length t))
  | Img.Equiv.Equivalent -> Alcotest.fail "expected difference"

let test_equiv_interface_mismatch () =
  Alcotest.(check bool) "interface mismatch rejected" true
    (match
       Img.Equiv.check (Circuits.Generators.counter 2)
         (Circuits.Generators.traffic_light ())
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_equiv_random_search () =
  let a = Circuits.Generators.counter 3 in
  let b = Circuits.Generators.counter 4 in
  (match Img.Equiv.random_search ~rounds:5000 a b with
   | Some trace ->
     Alcotest.(check bool) "witness distinguishes" true
       (run_trace a trace <> run_trace b trace)
   | None -> Alcotest.fail "random search should find the carry divergence");
  Alcotest.(check bool) "no witness on equal machines" true
    (Img.Equiv.random_search (Circuits.Generators.counter 3)
       (Circuits.Generators.counter 3)
     = None)

let () =
  Alcotest.run "image"
    [ ( "quantify",
        [ Alcotest.test_case "agrees with monolithic" `Quick
            test_and_exists_agrees;
          Alcotest.test_case "empty quantifier" `Quick
            test_and_exists_empty_quantify;
          Alcotest.test_case "full quantification" `Quick
            test_and_exists_all_quantified;
          Alcotest.test_case "plan/apply under gc collects" `Quick
            test_plan_apply_collects;
          Alcotest.test_case "apply_union counts and collects" `Quick
            test_apply_union_counts;
          QCheck_alcotest.to_alcotest prop_apply_union ]
        @ List.map
            (fun o -> QCheck_alcotest.to_alcotest (prop_plan_apply o))
            [ ("greedy", Q.Greedy); ("given", Q.Given) ] );
      ( "partition",
        [ Alcotest.test_case "clustering" `Quick test_cluster_preserves_product;
          Alcotest.test_case "clustered image oracle" `Quick
            test_clustered_image_oracle ] );
      ( "image",
        [ Alcotest.test_case "strategies agree" `Quick
            test_image_strategies_agree;
          Alcotest.test_case "preimage" `Quick test_preimage_inverts ] );
      ( "reach",
        [ Alcotest.test_case "known counts" `Quick test_reachable_counts;
          Alcotest.test_case "matches explicit" `Quick
            test_reachable_matches_explicit;
          Alcotest.test_case "strategies agree" `Quick
            test_reachable_strategies_agree;
          Alcotest.test_case "frontier" `Quick test_frontier_reachable ] );
      ( "equiv",
        [ Alcotest.test_case "identical" `Quick test_equiv_identical;
          Alcotest.test_case "vs optimized" `Quick test_equiv_optimized;
          Alcotest.test_case "detects difference" `Quick
            test_equiv_detects_difference;
          Alcotest.test_case "initial state difference" `Quick
            test_equiv_initial_difference;
          Alcotest.test_case "interface mismatch" `Quick
            test_equiv_interface_mismatch;
          Alcotest.test_case "random search" `Quick test_equiv_random_search ] ) ]
