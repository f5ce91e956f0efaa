(* Tests for the solver runtime: phase-scoped budgets, deterministic fault
   injection, and the graceful-degradation ladder in Solve.solve_split.
   Fault injection makes every failure path reachable deterministically —
   each CNC reason, each failure phase, and each fallback rung — without
   relying on real blow-ups; one real (fault-free) instance then shows a
   node budget that defeats plain partitioned solving being recovered by
   the ladder. *)

module M = Bdd.Manager
module O = Bdd.Ops
module E = Equation
module R = Equation.Runtime
module F = R.Fault
module G = Circuits.Generators

let expired = Sys.time () -. 1.0

(* --- fault parsing ---------------------------------------------------------- *)

let check_parse s kind times =
  match F.of_string s with
  | Error e -> Alcotest.failf "%S did not parse: %s" s e
  | Ok f ->
    Alcotest.(check bool) (s ^ " kind") true (F.kind f = kind);
    Alcotest.(check int) (s ^ " times") times (F.remaining f);
    (* round trip *)
    (match F.of_string (F.to_string f) with
     | Ok f' ->
       Alcotest.(check bool) (s ^ " round trip") true
         (F.kind f' = kind && F.remaining f' = times)
     | Error e -> Alcotest.failf "%S did not round trip: %s" (F.to_string f) e)

let test_fault_parse () =
  check_parse "mk:5000" (F.Mk_fail 5000) 1;
  check_parse "image:3:2" (F.Image_fail 3) 2;
  check_parse "deadline:csf" (F.Deadline_at R.Csf) 1;
  check_parse "deadline:build:4" (F.Deadline_at R.Build) 4;
  check_parse "deadline:subset" (F.Deadline_at R.Subset) 1;
  check_parse "deadline:verify" (F.Deadline_at R.Verify) 1

let test_fault_parse_errors () =
  List.iter
    (fun s ->
      match F.of_string s with
      | Ok _ -> Alcotest.failf "%S parsed but should not" s
      | Error _ -> ())
    [ "garbage"; ""; "mk"; "mk:0"; "mk:-3"; "mk:x"; "image:0"; "mk:5:0";
      "deadline:nope"; "deadline"; "mk:1:2:3" ]

let test_fault_make_validation () =
  let invalid f = try ignore (f () : F.t); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "times 0" true
    (invalid (fun () -> F.make ~times:0 (F.Mk_fail 1)));
  Alcotest.(check bool) "mk 0" true (invalid (fun () -> F.make (F.Mk_fail 0)));
  Alcotest.(check bool) "image 0" true
    (invalid (fun () -> F.make (F.Image_fail 0)))

(* --- runtime primitives ----------------------------------------------------- *)

let test_mk_fault_fires_once () =
  let fault = F.make (F.Mk_fail 3) in
  let rt = R.create ~fault () in
  let man = M.create () in
  R.attach rt man;
  let fired = ref false in
  (try
     for _ = 1 to 10 do
       ignore (O.var_bdd man (M.new_var man) : int)
     done
   with M.Node_limit_exceeded -> fired := true);
  Alcotest.(check bool) "fault fired" true !fired;
  Alcotest.(check int) "fault spent" 0 (F.remaining fault);
  (* a spent fault no longer interferes *)
  for _ = 1 to 10 do
    ignore (O.var_bdd man (M.new_var man) : int)
  done;
  (* detach lifts the hook and the limit *)
  R.detach rt man;
  ignore (O.var_bdd man (M.new_var man) : int)

let test_deadline_enter_phase () =
  let rt = R.create ~deadline:expired () in
  Alcotest.check_raises "expired deadline" E.Runtime.Deadline_exceeded (fun () ->
      R.enter_phase rt R.Build)

let test_deadline_strided_tick () =
  let rt = R.create ~deadline:expired () in
  (* the deadline comparison is strided: a lone tick does not reach it... *)
  R.tick rt;
  (* ...but a loop's worth of ticks must *)
  Alcotest.check_raises "32 ticks" E.Runtime.Deadline_exceeded (fun () ->
      for _ = 1 to 32 do
        R.tick rt
      done)

let test_deadline_fault_fires_once () =
  let rt = R.create ~fault:(F.make (F.Deadline_at R.Subset)) () in
  R.enter_phase rt R.Build;
  R.tick rt;
  Alcotest.check_raises "deadline fault" E.Runtime.Deadline_exceeded (fun () ->
      R.enter_phase rt R.Subset);
  (* spent: re-entering the phase is now fine *)
  R.enter_phase rt R.Subset;
  R.tick rt

let test_image_fault () =
  let rt = R.create ~fault:(F.make (F.Image_fail 2)) () in
  let man = M.create () in
  R.attach rt man;
  R.tick_image rt;
  Alcotest.check_raises "second image" M.Node_limit_exceeded (fun () ->
      R.tick_image rt);
  (* the counters are per-attempt: attach resets them *)
  R.attach rt man;
  Alcotest.(check int) "images reset" 0 (R.images rt);
  R.tick_image rt;
  R.tick_image rt

let test_attach_resets_counters () =
  let rt = R.create ~node_limit:1_000_000 () in
  let man = M.create () in
  R.attach rt man;
  R.note_subset_states rt 42;
  R.tick_image rt;
  Alcotest.(check int) "subset states" 42 (R.subset_states rt);
  Alcotest.(check int) "images" 1 (R.images rt);
  R.attach rt man;
  Alcotest.(check int) "subset states reset" 0 (R.subset_states rt);
  Alcotest.(check int) "images reset" 0 (R.images rt)

(* --- budgeted CSF extraction and verification (previously unbounded) -------- *)

let solved_counter3 () =
  match
    E.Solve.solve_split ~method_:E.Solve.default_partitioned (G.counter 3)
      ~x_latches:[ "c1"; "c2" ]
  with
  | E.Solve.Completed r -> r
  | E.Solve.Could_not_complete _ -> Alcotest.fail "counter3 must complete"

let test_csf_budgeted () =
  let r = solved_counter3 () in
  let rt = R.create ~deadline:expired () in
  Alcotest.check_raises "csf under expired deadline" E.Runtime.Deadline_exceeded
    (fun () ->
      ignore
        (E.Csf.csf ~runtime:rt r.E.Solve.problem r.E.Solve.solution
          : Fsa.Automaton.t))

let test_verify_budgeted () =
  let r = solved_counter3 () in
  let rt = R.create ~deadline:expired () in
  Alcotest.check_raises "verify under expired deadline" E.Runtime.Deadline_exceeded
    (fun () -> ignore (E.Solve.verify ~runtime:rt r : bool * bool));
  (* the Verify phase is also reachable by fault injection *)
  let rt = R.create ~fault:(F.make (F.Deadline_at R.Verify)) () in
  Alcotest.check_raises "verify deadline fault" E.Runtime.Deadline_exceeded (fun () ->
      ignore (E.Solve.verify ~runtime:rt r : bool * bool));
  (* and with a fresh budget verification still passes *)
  let rt = R.create ~deadline:(Sys.time () +. 60.0) () in
  let contained, equal = E.Solve.verify ~runtime:rt r in
  Alcotest.(check bool) "contained" true contained;
  Alcotest.(check bool) "equal" true equal

(* --- the degradation ladder, driven by injected faults ----------------------- *)

(* Most ladder-shape tests pin [gc:false]: they probe the reorder/fallback
   rungs, and with collection enabled the cheaper gc-retry rung would
   recover first (its own tests are below). *)
let solve_c3 ?retries ?fallback ?gc fault =
  E.Solve.solve_split ?retries ?fallback ?gc
    ~fault:(Result.get_ok (F.of_string fault))
    ~method_:E.Solve.default_partitioned (G.counter 3)
    ~x_latches:[ "c1"; "c2" ]

let cnc_of = function
  | E.Solve.Could_not_complete { reason; progress; _ } -> (reason, progress)
  | E.Solve.Completed _ -> Alcotest.fail "expected CNC"

let report_of = function
  | E.Solve.Completed r -> r
  | E.Solve.Could_not_complete { reason; _ } ->
    Alcotest.failf "expected completion, got CNC: %s" reason

let test_cnc_build_phase () =
  (* the 40th allocation happens while the problem is still being built *)
  let reason, progress =
    cnc_of (solve_c3 ~retries:0 ~fallback:false ~gc:false "mk:40")
  in
  Alcotest.(check string) "reason" "node limit exceeded" reason;
  Alcotest.(check string) "phase" "build"
    (R.phase_name progress.E.Solve.phase_reached);
  match progress.E.Solve.attempts with
  | [ a ] ->
    Alcotest.(check string) "label" "partitioned/greedy" a.E.Solve.label;
    Alcotest.(check string) "failure" "node limit exceeded" a.E.Solve.failure
  | l -> Alcotest.failf "expected 1 attempt, got %d" (List.length l)

let test_cnc_subset_phase () =
  (* the first image computation happens inside the subset construction *)
  let reason, progress =
    cnc_of (solve_c3 ~retries:0 ~fallback:false ~gc:false "image:1")
  in
  Alcotest.(check string) "reason" "node limit exceeded" reason;
  Alcotest.(check string) "phase" "subset"
    (R.phase_name progress.E.Solve.phase_reached);
  Alcotest.(check int) "one attempt" 1 (List.length progress.E.Solve.attempts)

let test_cnc_csf_phase_stops_ladder () =
  (* a deadline failure must stop the ladder even with fallbacks enabled:
     with no time left a cheaper method cannot help *)
  let reason, progress = cnc_of (solve_c3 ~retries:2 ~fallback:true "deadline:csf") in
  Alcotest.(check string) "reason" "time limit exceeded" reason;
  Alcotest.(check string) "phase" "csf"
    (R.phase_name progress.E.Solve.phase_reached);
  Alcotest.(check int) "ladder stopped" 1
    (List.length progress.E.Solve.attempts);
  Alcotest.(check bool) "partial progress recorded" true
    (progress.E.Solve.subset_states_explored > 0);
  Alcotest.(check bool) "peak nodes recorded" true
    (progress.E.Solve.peak_nodes_seen > 0)

let test_ladder_reorder_retry () =
  let clean = report_of (solve_c3 "mk:1000000") in
  let r = report_of (solve_c3 ~gc:false "mk:400") in
  Alcotest.(check string) "solved by" "reorder-retry" r.E.Solve.solved_by;
  Alcotest.(check int) "one failed attempt" 1 (List.length r.E.Solve.attempts);
  Alcotest.(check int) "same CSF" clean.E.Solve.csf_states r.E.Solve.csf_states

let test_ladder_gc_retry () =
  (* with collection enabled the gc-retry rung recovers the mk:400 failure
     in place, before any reorder rebuild *)
  let clean = report_of (solve_c3 "mk:1000000") in
  let r = report_of (solve_c3 "mk:400") in
  Alcotest.(check string) "solved by" "gc-retry" r.E.Solve.solved_by;
  Alcotest.(check int) "one failed attempt" 1 (List.length r.E.Solve.attempts);
  Alcotest.(check int) "same CSF" clean.E.Solve.csf_states r.E.Solve.csf_states

let test_ladder_gc_retry_from_build () =
  (* a failure during problem construction leaves nothing to collect: the
     gc-retry rung rebuilds from scratch but still reports its own label *)
  let r = report_of (solve_c3 "mk:40") in
  Alcotest.(check string) "solved by" "gc-retry" r.E.Solve.solved_by;
  Alcotest.(check (list string)) "attempt labels" [ "partitioned/greedy" ]
    (List.map (fun (a : E.Solve.attempt) -> a.E.Solve.label)
       r.E.Solve.attempts)

let test_ladder_alternative_schedule () =
  let r = report_of (solve_c3 ~gc:false "mk:40:2") in
  Alcotest.(check string) "solved by" "partitioned/given" r.E.Solve.solved_by;
  Alcotest.(check (list string)) "attempt labels"
    [ "partitioned/greedy"; "reorder-retry" ]
    (List.map (fun (a : E.Solve.attempt) -> a.E.Solve.label)
       r.E.Solve.attempts)

let test_ladder_monolithic () =
  let clean = report_of (solve_c3 "mk:1000000") in
  let r = report_of (solve_c3 ~gc:false "mk:40:3") in
  Alcotest.(check string) "solved by" "monolithic" r.E.Solve.solved_by;
  Alcotest.(check (list string)) "attempt labels"
    [ "partitioned/greedy"; "reorder-retry"; "partitioned/given" ]
    (List.map (fun (a : E.Solve.attempt) -> a.E.Solve.label)
       r.E.Solve.attempts);
  Alcotest.(check int) "same CSF" clean.E.Solve.csf_states r.E.Solve.csf_states

let test_no_fallback_truncates_ladder () =
  let reason, progress =
    cnc_of (solve_c3 ~retries:1 ~fallback:false ~gc:false "mk:40:4")
  in
  Alcotest.(check string) "reason" "node limit exceeded" reason;
  Alcotest.(check (list string)) "only the retry rung ran"
    [ "partitioned/greedy"; "reorder-retry" ]
    (List.map (fun (a : E.Solve.attempt) -> a.E.Solve.label)
       progress.E.Solve.attempts)

let test_monolithic_single_attempt () =
  (* a Monolithic request is already the bottom rung: no ladder *)
  match
    E.Solve.solve_split ~fault:(F.make (F.Mk_fail 40))
      ~method_:E.Solve.Monolithic (G.counter 3) ~x_latches:[ "c1"; "c2" ]
  with
  | E.Solve.Could_not_complete { reason; progress; _ } ->
    Alcotest.(check string) "reason" "node limit exceeded" reason;
    Alcotest.(check int) "one attempt" 1 (List.length progress.E.Solve.attempts)
  | E.Solve.Completed _ -> Alcotest.fail "expected CNC"

(* --- a real node budget recovered by the ladder ------------------------------ *)

(* t298 under a 60k-node budget with the unclustered kernel: plain
   partitioned solving exhausts the budget mid-subset-construction, but
   migrating to a FORCE-reordered manager brings the same computation under
   it (the acceptance scenario for the ladder). Clustering is disabled so
   the scenario stays a real blow-up — the affinity-clustered default kernel
   fits this instance inside the budget on the first try. *)
let test_real_circuit_ladder_recovery () =
  let row = Circuits.Suite.find "t298" in
  let solve ?(gc = false) ~retries ~fallback () =
    E.Solve.solve_split ~node_limit:60_000 ~retries ~fallback ~gc
      ~clustering:Img.Partition.No_clustering
      ~method_:E.Solve.default_partitioned row.Circuits.Suite.net
      ~x_latches:row.Circuits.Suite.x_latches
  in
  (* without GC or the ladder: CNC in the subset phase (grow-only
     allocation makes the 60k budget a real blow-up) *)
  let reason, progress = cnc_of (solve ~retries:0 ~fallback:false ()) in
  Alcotest.(check string) "plain CNC" "node limit exceeded" reason;
  Alcotest.(check string) "phase" "subset"
    (R.phase_name progress.E.Solve.phase_reached);
  Alcotest.(check bool) "partial subset progress" true
    (progress.E.Solve.subset_states_explored > 0);
  (* with the ladder: the reorder-retry rung completes under the budget *)
  let r = report_of (solve ~retries:1 ~fallback:true ()) in
  Alcotest.(check string) "solved by" "reorder-retry" r.E.Solve.solved_by;
  Alcotest.(check bool) "under budget" true (r.E.Solve.peak_nodes <= 60_000);
  (* with GC enabled the node limit bounds *live* nodes, so collections
     fit the same run under the budget without leaving the first rungs *)
  let g = report_of (solve ~gc:true ~retries:1 ~fallback:true ()) in
  Alcotest.(check bool) "gc run under budget" true
    (g.E.Solve.peak_nodes <= 60_000);
  Alcotest.(check bool) "gc run stayed on the cheap rungs" true
    (List.mem g.E.Solve.solved_by
       [ "partitioned/greedy"; "gc-retry"; "reorder-retry" ]);
  Alcotest.(check int) "gc run same CSF" g.E.Solve.csf_states
    r.E.Solve.csf_states;
  (* and the recovered CSF matches the unconstrained one *)
  match
    E.Solve.solve_split ~method_:E.Solve.default_partitioned
      row.Circuits.Suite.net ~x_latches:row.Circuits.Suite.x_latches
  with
  | E.Solve.Completed clean ->
    Alcotest.(check int) "same CSF" clean.E.Solve.csf_states
      r.E.Solve.csf_states
  | E.Solve.Could_not_complete _ ->
    Alcotest.fail "unconstrained run must complete"

(* A completed solve hands its manager to the caller without the solve's
   budget: t298 completes under an 8 000 live-node limit, and the
   runtime-less verification after it is unbounded, so it must not hit
   the limit the solve ran under. *)
let test_completed_solve_detaches () =
  let row = Circuits.Suite.find "t298" in
  let r =
    report_of
      (E.Solve.solve_split ~node_limit:8_000
         ~method_:E.Solve.default_partitioned row.Circuits.Suite.net
         ~x_latches:row.Circuits.Suite.x_latches)
  in
  let contained, equal = E.Solve.verify r in
  Alcotest.(check bool) "contained" true contained;
  Alcotest.(check bool) "equal" true equal

let () =
  Alcotest.run "runtime"
    [ ( "fault",
        [ Alcotest.test_case "parse" `Quick test_fault_parse;
          Alcotest.test_case "parse errors" `Quick test_fault_parse_errors;
          Alcotest.test_case "make validation" `Quick
            test_fault_make_validation ] );
      ( "primitives",
        [ Alcotest.test_case "mk fault fires once" `Quick
            test_mk_fault_fires_once;
          Alcotest.test_case "deadline at enter_phase" `Quick
            test_deadline_enter_phase;
          Alcotest.test_case "deadline strided tick" `Quick
            test_deadline_strided_tick;
          Alcotest.test_case "deadline fault fires once" `Quick
            test_deadline_fault_fires_once;
          Alcotest.test_case "image fault" `Quick test_image_fault;
          Alcotest.test_case "attach resets counters" `Quick
            test_attach_resets_counters ] );
      ( "budgets",
        [ Alcotest.test_case "csf budgeted" `Quick test_csf_budgeted;
          Alcotest.test_case "verify budgeted" `Quick test_verify_budgeted;
          Alcotest.test_case "completed solve detaches" `Quick
            test_completed_solve_detaches ] );
      ( "ladder",
        [ Alcotest.test_case "CNC in build phase" `Quick test_cnc_build_phase;
          Alcotest.test_case "CNC in subset phase" `Quick
            test_cnc_subset_phase;
          Alcotest.test_case "deadline stops ladder (csf phase)" `Quick
            test_cnc_csf_phase_stops_ladder;
          Alcotest.test_case "reorder-retry rung" `Quick
            test_ladder_reorder_retry;
          Alcotest.test_case "gc-retry rung" `Quick test_ladder_gc_retry;
          Alcotest.test_case "gc-retry after build failure" `Quick
            test_ladder_gc_retry_from_build;
          Alcotest.test_case "alternative-schedule rung" `Quick
            test_ladder_alternative_schedule;
          Alcotest.test_case "monolithic rung" `Quick test_ladder_monolithic;
          Alcotest.test_case "no-fallback truncation" `Quick
            test_no_fallback_truncates_ladder;
          Alcotest.test_case "monolithic is a single attempt" `Quick
            test_monolithic_single_attempt ] );
      ( "recovery",
        [ Alcotest.test_case "real circuit recovered by ladder" `Slow
            test_real_circuit_ladder_recovery ] ) ]
