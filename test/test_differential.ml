(* Differential testing of the two solver flows: on seeded random
   netlists, the partitioned flow (the paper's algorithm) and the
   monolithic contrast implementation must produce language-equivalent
   CSFs. A failing instance is shrunk by dropping latches before
   reporting. The same run cross-checks the observability counters for
   self-consistency: monotone, and nonzero on nontrivial solves. *)

module E = Equation
module G = Circuits.Generators

type params = {
  seed : int;
  inputs : int;
  outputs : int;
  latches : int;  (** >= 3 so that dropping the two X latches leaves an F *)
  levels : int;
}

let describe p =
  Printf.sprintf "random_logic ~seed:%d ~inputs:%d ~outputs:%d ~latches:%d ~levels:%d"
    p.seed p.inputs p.outputs p.latches p.levels

let netlist p =
  G.random_logic ~seed:p.seed ~inputs:p.inputs ~outputs:p.outputs
    ~latches:p.latches ~levels:p.levels ()

(* the unknown component X gets the last two latches of the bank *)
let x_latches p =
  [ Printf.sprintf "x%d" (p.latches - 2); Printf.sprintf "x%d" (p.latches - 1) ]

(* Solve one instance with both flows and compare CSF languages.
   Returns [None] on agreement, [Some msg] on a discrepancy. *)
let mismatch p =
  let _, prob = E.Split.problem (netlist p) ~x_latches:(x_latches p) in
  let part_sol, _ = E.Partitioned.solve prob in
  let mono_sol, _ = E.Monolithic.solve prob in
  let csf_part = E.Csf.csf prob part_sol in
  let csf_mono = E.Csf.csf prob mono_sol in
  if not (Fsa.Language.equivalent csf_part csf_mono) then
    Some
      (Printf.sprintf "CSF languages differ (partitioned %d states, monolithic %d states)"
         (E.Csf.num_states csf_part) (E.Csf.num_states csf_mono))
  else None

(* Same oracle for the two image kernels the solve ladder runs — the
   default (greedy schedule on affinity clusters) and the alternative rung
   (given schedule, unclustered): each must produce a CSF
   language-equivalent to the greedy unclustered one, hence to each
   other. *)
let mismatch_clustering p =
  let _, prob = E.Split.problem (netlist p) ~x_latches:(x_latches p) in
  let csf_with (strategy, clustering) =
    let sol, _ = E.Partitioned.solve ~strategy ~clustering prob in
    E.Csf.csf prob sol
  in
  let reference = csf_with (Img.Image.default, Img.Partition.No_clustering) in
  let check (name, kernel) =
    let csf = csf_with kernel in
    if not (Fsa.Language.equivalent reference csf) then
      Some
        (Printf.sprintf
           "kernel %s CSF differs from greedy unclustered (%d vs %d states)"
           name (E.Csf.num_states csf) (E.Csf.num_states reference))
    else None
  in
  List.find_map check
    [ ( "unclustered/given (ladder alternative)",
        (Img.Image.Partitioned Img.Quantify.Given, Img.Partition.No_clustering)
      );
      ( "affinity:500/greedy (default)",
        (Img.Image.default, E.Partitioned.default_clustering) ) ]

(* Grouped non-conformance oracle: under a small affinity threshold the
   conformance parts of a two-output netlist stay apart, so [Q_ζ] is a
   union of one image per group; under the default threshold they merge
   into one group, the single image over the whole [¬C] that the oracle
   used to run. The two CSFs must be language-equivalent. Instances that
   build several groups are counted, so the test can reject a vacuous
   pass. *)
let grouped_instances = ref 0

let mismatch_grouped p =
  let _, prob = E.Split.problem (netlist p) ~x_latches:(x_latches p) in
  let solve clustering =
    let sol, stats = E.Partitioned.solve ~clustering prob in
    (E.Csf.csf prob sol, stats.E.Partitioned.q_clusters)
  in
  let grouped, groups = solve (Img.Partition.Affinity 8) in
  let one, one_groups = solve E.Partitioned.default_clustering in
  if groups >= 2 then incr grouped_instances;
  if one_groups > 1 then
    Some (Printf.sprintf "default clustering left %d groups" one_groups)
  else if not (Fsa.Language.equivalent grouped one) then
    Some
      (Printf.sprintf "grouped q CSF differs from one-group q (%d vs %d states)"
         (E.Csf.num_states grouped) (E.Csf.num_states one))
  else None

(* GC oracle: a solve under the mark-and-sweep collector (forced to run
   often by a deliberately tiny initial store and a near-zero dead-ratio
   threshold) must produce a CSF language-equivalent to a grow-only solve
   of the same problem on the same manager. Collections performed across
   all instances are accumulated so the test can reject a vacuous pass
   where the collector never actually ran. *)
let gc_collections = ref 0

let mismatch_gc p =
  let man = Bdd.Manager.create ~initial_capacity:64 () in
  Bdd.Manager.set_auto_gc man false;
  let _, prob = E.Split.problem ~man (netlist p) ~x_latches:(x_latches p) in
  let csf_with gc =
    Bdd.Manager.set_auto_gc man gc;
    if gc then begin
      Bdd.Manager.set_gc_threshold man 0.05;
      ignore (Bdd.Manager.collect man : int)
    end;
    let sol, _ = E.Partitioned.solve prob in
    E.Csf.csf prob sol
  in
  let reference = csf_with false in
  let collected = csf_with true in
  gc_collections := !gc_collections + Bdd.Manager.gc_runs man;
  if not (Fsa.Language.equivalent reference collected) then
    Some
      (Printf.sprintf
         "CSF under GC differs from grow-only CSF (%d vs %d states)"
         (E.Csf.num_states collected)
         (E.Csf.num_states reference))
  else None

(* Worklist-vs-sweep CSF oracle: the arena worklist extraction
   ([Csf.of_arena], the solve path) must be language-equivalent to the
   sweep-based reference ([Helpers.csf_sweep]) on the arenas both engine
   oracles produce. *)
let mismatch_worklist p =
  let _, prob = E.Split.problem (netlist p) ~x_latches:(x_latches p) in
  let check name arena =
    let worklist, _ = E.Csf.of_arena prob arena in
    let sweep = Helpers.csf_sweep prob (E.Engine.to_automaton arena) in
    if not (Fsa.Language.equivalent worklist sweep) then
      Some
        (Printf.sprintf
           "%s: worklist CSF differs from sweep CSF (%d vs %d states)"
           name (E.Csf.num_states worklist) (E.Csf.num_states sweep))
    else None
  in
  match check "partitioned" (fst (E.Partitioned.solve_arena prob)) with
  | Some _ as m -> m
  | None -> check "monolithic" (fst (E.Monolithic.solve_arena prob))

(* Capped-clustering oracle: [Partition.apply (Affinity n)] abandons
   candidate conjunctions that outgrow [n] mid-build; it must return the
   same parts in the same order as clustering that builds every candidate
   in full ([Helpers.cluster_affinity_uncapped]). Both run on one manager,
   so equal functions are equal ids; the capped run goes first, on a
   fresh problem, so that no candidate is already in the store. *)
let mismatch_capped p =
  let check (what, parts_of) threshold =
    let _, prob = E.Split.problem (netlist p) ~x_latches:(x_latches p) in
    let man = prob.E.Problem.man in
    let parts = parts_of prob in
    Bdd.Manager.with_roots man @@ fun rs ->
    let capped =
      (Img.Partition.apply
         (Img.Partition.of_relations man parts)
         (Img.Partition.Affinity threshold))
        .Img.Partition.parts
      |> List.map (Bdd.Manager.Roots.add rs)
    in
    let reference = Helpers.cluster_affinity_uncapped man parts ~threshold in
    if capped <> reference then
      Some
        (Printf.sprintf "%s at affinity:%d: %d capped parts [%s], %d uncapped [%s]"
           what threshold (List.length capped)
           (String.concat " " (List.map string_of_int capped))
           (List.length reference)
           (String.concat " " (List.map string_of_int reference)))
    else None
  in
  List.find_map
    (fun (parts, threshold) -> check parts threshold)
    (List.concat_map
       (fun parts -> [ (parts, 20); (parts, 50); (parts, 500) ])
       [ ("transition parts", E.Problem.transition_parts);
         ("u-relation parts", E.Problem.u_relation_parts) ])

(* Shrink a failing instance by dropping latches (3 is the floor: the X
   component always takes two). [failing] reports why an instance fails,
   or [None]; the returned instance still fails. *)
let shrink ~failing p msg =
  let rec go p msg =
    if p.latches <= 3 then (p, msg)
    else
      let smaller = { p with latches = p.latches - 1 } in
      match failing smaller with
      | Some msg' -> go smaller msg'
      | None -> (p, msg)
      | exception _ -> (p, msg)
  in
  go p msg

let instance i =
  { seed = 1000 + i;
    inputs = 2 + (i mod 2);
    outputs = 1 + (i mod 2);
    latches = 3 + (i mod 3);
    levels = 2 + (i mod 2) }

let n_instances = 50

let test_flows_agree () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let prev = ref (0, 0, 0) in
  for i = 0 to n_instances - 1 do
    let p = instance i in
    (match mismatch p with
     | None -> ()
     | Some msg ->
       let p', msg' = shrink ~failing:mismatch p msg in
       Alcotest.fail
         (Printf.sprintf "flows disagree on [%s]: %s (shrunk from [%s])"
            (describe p') msg' (describe p)));
    (* stats self-consistency: cumulative counters are monotone and every
       nontrivial solve moves them *)
    let mk = Obs.Counter.find "bdd.mk_calls" in
    let img = Obs.Counter.find "image.calls" in
    let states = Obs.Counter.find "subset.states_expanded" in
    let mk0, img0, states0 = !prev in
    Alcotest.(check bool)
      (Printf.sprintf "instance %d: mk_calls advanced" i)
      true (mk > mk0);
    Alcotest.(check bool)
      (Printf.sprintf "instance %d: image calls advanced" i)
      true (img > img0);
    Alcotest.(check bool)
      (Printf.sprintf "instance %d: subset states advanced" i)
      true (states > states0);
    Alcotest.(check bool)
      (Printf.sprintf "instance %d: peak nodes positive" i)
      true
      (Obs.Gauge.find "bdd.peak_nodes" > 0);
    prev := (mk, img, states)
  done;
  Alcotest.(check bool) "cache hits bounded by lookups" true
    (Obs.Counter.find "bdd.cache.hits" <= Obs.Counter.find "bdd.cache.lookups")

let test_clusterings_agree () =
  for i = 0 to n_instances - 1 do
    let p = instance i in
    match mismatch_clustering p with
    | None -> ()
    | Some msg ->
      let p', msg' = shrink ~failing:mismatch_clustering p msg in
      Alcotest.fail
        (Printf.sprintf "kernels disagree on [%s]: %s (shrunk from [%s])"
           (describe p') msg' (describe p))
  done

let test_capped_clustering_agrees () =
  for i = 0 to n_instances - 1 do
    let p = instance i in
    match mismatch_capped p with
    | None -> ()
    | Some msg ->
      let p', msg' = shrink ~failing:mismatch_capped p msg in
      Alcotest.fail
        (Printf.sprintf "capped clustering differs on [%s]: %s (shrunk from [%s])"
           (describe p') msg' (describe p))
  done

let test_grouped_q_agrees () =
  grouped_instances := 0;
  for i = 0 to n_instances - 1 do
    let p = instance i in
    match mismatch_grouped p with
    | None -> ()
    | Some msg ->
      let p', msg' = shrink ~failing:mismatch_grouped p msg in
      Alcotest.fail
        (Printf.sprintf "grouped q differs on [%s]: %s (shrunk from [%s])"
           (describe p') msg' (describe p))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d instances build several groups" !grouped_instances)
    true (!grouped_instances > 0)

let test_worklist_agrees () =
  for i = 0 to n_instances - 1 do
    let p = instance i in
    match mismatch_worklist p with
    | None -> ()
    | Some msg ->
      let p', msg' = shrink ~failing:mismatch_worklist p msg in
      Alcotest.fail
        (Printf.sprintf
           "CSF extractions disagree on [%s]: %s (shrunk from [%s])"
           (describe p') msg' (describe p))
  done

let test_gc_agrees () =
  gc_collections := 0;
  for i = 0 to n_instances - 1 do
    let p = instance i in
    match mismatch_gc p with
    | None -> ()
    | Some msg ->
      let p', msg' = shrink ~failing:mismatch_gc p msg in
      Alcotest.fail
        (Printf.sprintf "GC changed the result on [%s]: %s (shrunk from [%s])"
           (describe p') msg' (describe p))
  done;
  Alcotest.(check bool) "the collector actually ran" true (!gc_collections > 0)

(* the shrinker must keep dropping latches while the failure persists,
   stop at the first non-failing size, and never go below the floor *)
let test_shrinker () =
  let p = instance 2 in
  Alcotest.(check int) "instance 2 has shrinkable latches" 5 p.latches;
  let always q = Some (Printf.sprintf "l=%d" q.latches) in
  let p', msg = shrink ~failing:always p "l=5" in
  Alcotest.(check int) "always-failing shrinks to the floor" 3 p'.latches;
  Alcotest.(check string) "message from the smallest failure" "l=3" msg;
  let above4 q = if q.latches >= 4 then Some "big" else None in
  let p'', _ = shrink ~failing:above4 p "big" in
  Alcotest.(check int) "stops at the smallest still-failing size" 4
    p''.latches;
  let throws _ = failwith "solver blew up" in
  let p3, msg3 = shrink ~failing:throws p "orig" in
  Alcotest.(check int) "an exception during shrinking keeps the last" 5
    p3.latches;
  Alcotest.(check string) "original message kept" "orig" msg3

let () =
  Alcotest.run "differential"
    [ ( "partitioned vs monolithic",
        [ Alcotest.test_case
            (Printf.sprintf "%d random netlists" n_instances)
            `Slow test_flows_agree;
          Alcotest.test_case "shrinker" `Quick test_shrinker ] );
      ( "clustered vs unclustered",
        [ Alcotest.test_case
            (Printf.sprintf "%d random netlists" n_instances)
            `Slow test_clusterings_agree ] );
      ( "capped vs uncapped clustering",
        [ Alcotest.test_case
            (Printf.sprintf "%d random netlists" n_instances)
            `Slow test_capped_clustering_agrees ] );
      ( "grouped vs one-group q",
        [ Alcotest.test_case
            (Printf.sprintf "%d random netlists" n_instances)
            `Slow test_grouped_q_agrees ] );
      ( "worklist vs sweep csf",
        [ Alcotest.test_case
            (Printf.sprintf "%d random netlists" n_instances)
            `Slow test_worklist_agrees ] );
      ( "gc-on vs gc-off",
        [ Alcotest.test_case
            (Printf.sprintf "%d random netlists" n_instances)
            `Slow test_gc_agrees ] ) ]
