(* Benchmark harness.

   Regenerates the paper's experimental content:

   - TABLE 1 (the paper's only results table): the latch-split suite run
     with both the partitioned and the monolithic flow under a resource
     budget, printed with the paper's columns (Name, i/o/cs, Fcs/Xcs,
     States(X), Part,s, Mono,s, Ratio; CNC on budget exhaustion). These are
     single wall-clock runs, as in the paper.

   - FIGURE 3 (the worked example): a Bechamel micro-benchmark of deriving
     and completing the example automaton (the printable reproduction
     itself lives in examples/quickstart.ml).

   - Ablations for the design choices the paper calls out (DESIGN.md §5):
     early-quantification scheduling, partition clustering, deferred
     completion (Theorem 1), the u/v-to-latch variable affinity, the GC
     threshold and the cs/ns variable interleaving.

   Usage:  dune exec bench/main.exe [-- --quick | --table-only]
     --quick       skip the full Table 1 (run micro-benchmarks only)
     --table-only  run only Table 1 *)

open Bechamel

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]

let instance = Toolkit.Instance.monotonic_clock

let run_group ?(quota = 2.0) name tests =
  let cfg =
    Benchmark.cfg ~limit:30 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun case ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> e
          | Some _ | None -> nan
        in
        (case, est) :: acc)
      results []
  in
  Printf.printf "\n== %s ==\n" name;
  List.iter
    (fun (case, ns) ->
      if ns < 1_000.0 then Printf.printf "  %-52s %10.0f ns/run\n" case ns
      else if ns < 1_000_000.0 then
        Printf.printf "  %-52s %10.2f us/run\n" case (ns /. 1e3)
      else if ns < 1_000_000_000.0 then
        Printf.printf "  %-52s %10.2f ms/run\n" case (ns /. 1e6)
      else Printf.printf "  %-52s %10.2f s/run\n" case (ns /. 1e9))
    (List.sort compare rows);
  flush stdout

(* --- Table 1 ---------------------------------------------------------------- *)

let table1 () =
  Printf.printf
    "== TABLE 1: partitioned vs monolithic computation of the CSF ==\n\
     (budget per run: %.0f CPU s, %d BDD nodes; CNC = could not complete)\n\n"
    Harness.Experiments.default_time_limit
    Harness.Experiments.default_node_limit;
  flush stdout;
  (* observability on: the machine-readable baseline needs the image-call
     and cache-hit counters *)
  Obs.set_enabled true;
  Obs.reset ();
  let results =
    Harness.Experiments.run_table1
      ~progress:(fun name -> Printf.eprintf "  running %s...\n%!" name)
      ()
  in
  Obs.set_enabled false;
  Harness.Experiments.write_bench_json "BENCH_table1.json" results;
  Printf.printf "wrote BENCH_table1.json\n";
  Harness.Experiments.print_table1 Format.std_formatter results;
  (* degradation-ladder activity: which runs needed retries or fallbacks *)
  let fallbacks =
    List.fold_left
      (fun acc (r : Harness.Experiments.row_result) ->
        acc
        + Harness.Experiments.fallbacks_of r.part
        + Harness.Experiments.fallbacks_of r.mono)
      0 results
  in
  if fallbacks = 0 then
    Printf.printf "\nno run needed the degradation ladder\n"
  else begin
    Printf.printf "\ndegradation-ladder activity (%d failed attempt(s)):\n"
      fallbacks;
    Harness.Experiments.print_attempts Format.std_formatter results
  end;
  Printf.printf "\npaper analogs (original rows this suite stands in for):\n";
  List.iter
    (fun (r : Harness.Experiments.row_result) ->
      Printf.printf "  %-8s ~ %s\n" r.row.Circuits.Suite.name
        r.row.Circuits.Suite.paper_analog)
    results;
  (* the paper formally verified each CSF; do the same for completed rows *)
  Printf.printf "\nverification of completed partitioned runs (paper S4):\n";
  List.iter
    (fun (r : Harness.Experiments.row_result) ->
      match Harness.Experiments.verify_row r with
      | Some (contained, equal) ->
        Printf.printf "  %-8s X_P in X: %b   F x X_P = S: %b\n"
          r.row.Circuits.Suite.name contained equal
      | None -> ())
    results;
  flush stdout

(* --- Figure 3 micro-benchmark ------------------------------------------------ *)

let fig3_circuit () =
  let module N = Network.Netlist in
  let module E = Network.Expr in
  let b = N.create "fig3" in
  let i = N.add_input b "i" in
  let cs1 = N.add_latch b ~name:"cs1" ~init:false () in
  let cs2 = N.add_latch b ~name:"cs2" ~init:false () in
  let t1 = N.add_node b ~name:"T1" (E.And (E.Var 0, E.Var 1)) [| i; cs2 |] in
  let t2 =
    N.add_node b ~name:"T2" (E.Or (E.Not (E.Var 0), E.Var 1)) [| i; cs1 |]
  in
  N.set_latch_input b cs1 t1;
  N.set_latch_input b cs2 t2;
  let o = N.add_node b ~name:"o" (E.Xor (E.Var 0, E.Var 1)) [| cs1; cs2 |] in
  N.add_output b "o" o;
  N.freeze b

let fig3_bench () =
  let net = fig3_circuit () in
  run_group "figure 3: example automaton derivation"
    [ Test.make ~name:"derive + complete automaton"
        (Staged.stage (fun () ->
             let man = Bdd.Manager.create () in
             let iv = [ Bdd.Manager.new_var ~name:"i" man ] in
             let ov = [ Bdd.Manager.new_var ~name:"o" man ] in
             Fsa.Ops.complete
               (Fsa.From_network.of_netlist man ~input_vars:iv ~output_vars:ov
                  net)));
      Test.make ~name:"partitioned {T_k},{O_j} extraction"
        (Staged.stage (fun () ->
             Network.Symbolic.of_netlist (Bdd.Manager.create ()) net)) ]

(* --- Table 1 micro rows (Bechamel timing of the small instances) ------------- *)

let solve_bench () =
  let mk row_name method_ () =
    let row = Circuits.Suite.find row_name in
    match
      Equation.Solve.solve_split ~time_limit:60.0 ~method_
        row.Circuits.Suite.net ~x_latches:row.Circuits.Suite.x_latches
    with
    | Equation.Solve.Completed _ -> ()
    | Equation.Solve.Could_not_complete _ -> failwith "unexpected CNC"
  in
  run_group "table 1 (small rows, statistical timing)"
    [ Test.make ~name:"t510 partitioned"
        (Staged.stage (mk "t510" Equation.Solve.default_partitioned));
      Test.make ~name:"t510 monolithic"
        (Staged.stage (mk "t510" Equation.Solve.Monolithic));
      Test.make ~name:"t208 partitioned"
        (Staged.stage (mk "t208" Equation.Solve.default_partitioned));
      Test.make ~name:"t208 monolithic"
        (Staged.stage (mk "t208" Equation.Solve.Monolithic));
      Test.make ~name:"t298 partitioned"
        (Staged.stage (mk "t298" Equation.Solve.default_partitioned));
      Test.make ~name:"t298 monolithic"
        (Staged.stage (mk "t298" Equation.Solve.Monolithic)) ]

(* --- ablations ---------------------------------------------------------------- *)

let ablation_quantification () =
  (* early quantification on reachability images (paper §1: the machinery
     language-equation solving inherits) *)
  let net =
    Circuits.Generators.random_logic ~seed:4 ~inputs:8 ~outputs:4 ~latches:18
      ~levels:4 ()
  in
  let bench strategy () =
    let man = Bdd.Manager.create () in
    let sym = Network.Symbolic.of_netlist man net in
    ignore (Img.Reach.reachable ~strategy sym : int)
  in
  run_group ~quota:15.0 "ablation: quantification scheduling (reachability)"
    [ Test.make ~name:"monolithic relation"
        (Staged.stage (bench Img.Image.Monolithic));
      Test.make ~name:"partitioned, declaration order"
        (Staged.stage (bench (Img.Image.Partitioned Img.Quantify.Given)));
      Test.make ~name:"partitioned, greedy schedule"
        (Staged.stage (bench (Img.Image.Partitioned Img.Quantify.Greedy))) ]

let ablation_clustering () =
  let row = Circuits.Suite.find "t298" in
  let bench clustering () =
    let _, p =
      Equation.Split.problem row.Circuits.Suite.net
        ~x_latches:row.Circuits.Suite.x_latches
    in
    ignore (Equation.Partitioned.solve ~clustering p)
  in
  let aff t = Img.Partition.Affinity t in
  run_group "ablation: partition clustering (t298)"
    [ Test.make ~name:"fully partitioned"
        (Staged.stage (bench Img.Partition.No_clustering));
      Test.make ~name:"affinity, 100 nodes" (Staged.stage (bench (aff 100)));
      Test.make ~name:"affinity, 500 nodes (default)"
        (Staged.stage (bench (aff 500)));
      Test.make ~name:"affinity, 1000 nodes" (Staged.stage (bench (aff 1000))) ]

let ablation_completion () =
  (* Theorem 1 / Corollary 1: deferring the completion of F *)
  let net = Circuits.Generators.counter 3 in
  let bench complete_f () =
    let _, p = Equation.Split.problem net ~x_latches:[ "c1"; "c2" ] in
    ignore (Equation.Generic.solve ~complete_f p : Fsa.Automaton.t)
  in
  run_group "ablation: eager vs deferred completion of F (Theorem 1)"
    [ Test.make ~name:"eager (Complete(F) before product)"
        (Staged.stage (bench true));
      Test.make ~name:"deferred (F left incomplete)"
        (Staged.stage (bench false)) ]

let ablation_affinity () =
  (* the alphabet-affinity allocation (Problem.make's [affinities]): placing
     u.ℓ/v.ℓ next to latch ℓ's state variables. Without it, P_ζ(u,v,ns)
     correlates variables across the whole order and blows up exponentially
     in the number of split latches. Run on a scaled-down t298 with a tight
     node budget so the "without" case fails fast. *)
  let row = Circuits.Suite.find "t298" in
  let solve_with_affinity affinity () =
    let sp = Equation.Split.split row.Circuits.Suite.net
        ~x_latches:row.Circuits.Suite.x_latches in
    let affinities =
      if affinity then
        List.map2
          (fun (v, u) l -> (v, u, l))
          (List.combine sp.Equation.Split.v_names sp.Equation.Split.u_names)
          sp.Equation.Split.x_latch_names
      else []
    in
    let p =
      Equation.Problem.make ~affinities ~f:sp.Equation.Split.f
        ~s:row.Circuits.Suite.net ~u_names:sp.Equation.Split.u_names
        ~v_names:sp.Equation.Split.v_names ()
    in
    Bdd.Manager.set_node_limit p.Equation.Problem.man (Some 3_000_000);
    match Equation.Partitioned.solve p with
    | _ -> ()
    | exception Bdd.Manager.Node_limit_exceeded -> ()
  in
  run_group ~quota:10.0
    "ablation: u/v-to-latch affinity in the variable order (t298, 3M-node cap)"
    [ Test.make ~name:"with affinity (default)"
        (Staged.stage (solve_with_affinity true));
      Test.make ~name:"without affinity (u,v at the top; capped blow-up)"
        (Staged.stage (solve_with_affinity false)) ]

let ablation_gc_threshold () =
  (* the dead-ratio trigger of the mark-and-sweep collector: below the
     threshold a full node store grows, at or above it the manager collects
     in place. 0.0 collects on every full store (maximum sweeping, maximum
     mark cost), 1.0 effectively never collects (grow-only, like --no-gc).
     A tight node budget makes the collector load-bearing: runs that cannot
     reclaim enough dead nodes hit the live-node limit and fail over to the
     degradation ladder. *)
  let row = Circuits.Suite.find "t298" in
  let solve gc threshold () =
    let _, p =
      Equation.Split.problem row.Circuits.Suite.net
        ~x_latches:row.Circuits.Suite.x_latches
    in
    let man = p.Equation.Problem.man in
    Bdd.Manager.set_auto_gc man gc;
    Bdd.Manager.set_gc_threshold man threshold;
    Bdd.Manager.set_node_limit man (Some 200_000);
    match Equation.Partitioned.solve p with
    | _ -> ()
    | exception Bdd.Manager.Node_limit_exceeded -> ()
  in
  run_group ~quota:10.0
    "ablation: GC dead-ratio threshold (t298, 200k live-node cap)"
    [ Test.make ~name:"gc off (grow-only)" (Staged.stage (solve false 0.25));
      Test.make ~name:"threshold 0.05" (Staged.stage (solve true 0.05));
      Test.make ~name:"threshold 0.25 (default)"
        (Staged.stage (solve true 0.25));
      Test.make ~name:"threshold 0.50" (Staged.stage (solve true 0.50));
      Test.make ~name:"threshold 0.90" (Staged.stage (solve true 0.90)) ]

let ablation_order () =
  (* with the monolithic image strategy the transition-relation BDD is
     actually built, so the variable order's effect is direct: interleaved
     cs/ns keeps the shift-register relation linear, blocked makes it
     exponential in the register length *)
  let net = Circuits.Generators.shift_register 16 in
  let bench interleave () =
    let man = Bdd.Manager.create () in
    let sym = Network.Symbolic.of_netlist man ~interleave net in
    ignore (Img.Reach.reachable ~strategy:Img.Image.Monolithic sym : int)
  in
  run_group ~quota:10.0
    "ablation: cs/ns variable interleaving (monolithic relation, shift16)"
    [ Test.make ~name:"interleaved (cs,ns adjacent)" (Staged.stage (bench true));
      Test.make ~name:"blocked (all cs, then all ns)"
        (Staged.stage (bench false)) ]

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let table_only = List.mem "--table-only" args in
  if not quick then table1 ();
  if not table_only then begin
    fig3_bench ();
    solve_bench ();
    ablation_quantification ();
    ablation_clustering ();
    ablation_completion ();
    ablation_affinity ();
    ablation_gc_threshold ();
    ablation_order ()
  end
