(* The repository benchmark's worker: runs one workload in this process and
   prints its metrics as a JSON object on the last line of standard output.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --refs DIR --workdir DIR [--trace-out FILE]
     bench.exe --write-refs DIR --workdir DIR
     bench.exe --check-refs DIR --workdir DIR

   [--trace 0] times [Equation.Solve.solve_split] and [Equation.Solve.verify]
   with [Obs] disabled and reports the end-to-end metrics. [--trace 1]
   replays the steps of [solve_split] one public call at a time with spans
   around each call, compares the replay with untraced solves, and runs two
   counting passes with [Obs] enabled; it reports the per-layer metrics and
   writes the spans and counter deltas to [--trace-out]. Every solve's CSF
   is checked against the stored reference and by the paper's two §4 checks,
   outside the timed regions. Normally started by perfbench/run.py. *)

module M = Bdd.Manager
module E = Equation
module W = Workloads

let now = Unix.gettimeofday
let process_start = now ()

let sum = List.fold_left ( +. ) 0.0
let isum = List.fold_left ( + ) 0

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float a /. float b

(* Run [f] repeatedly for about [seconds]: at least [min] times, and
   never starting a repetition that would end past the budget at the
   average pace so far. *)
let repeat ?(min = 1) ~seconds f =
  let t0 = now () in
  let rec go n acc =
    let acc = f () :: acc in
    let n = n + 1 in
    let elapsed = now () -. t0 in
    if n < min || elapsed +. (elapsed /. float n) <= seconds then go n acc
    else List.rev acc
  in
  go 0 []

let shuffle rng l =
  let a = Array.of_list l in
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- outcome checks ----------------------------------------------------- *)

(* Problems found in this run: wrong outputs, traced-path divergence,
   non-repeating counters, non-deterministic ladders. Any entry makes the
   run incorrect. *)
let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let attempted = ref 0
let failed = ref 0

(* Reference CSFs, one [.aut] file per circuit. Columns are matched to the
   solve's alphabet by variable name, so a reference also applies to a
   solve that migrated to a reordered manager. *)
let reference ~refs (p : E.Problem.t) circuit =
  let text = read_file (Filename.concat refs (circuit ^ ".aut")) in
  let names =
    String.split_on_char '\n' text
    |> List.find (String.starts_with ~prefix:".alphabet")
    |> String.split_on_char ' '
    |> List.filter (fun s -> s <> "" && s <> ".alphabet")
  in
  let by_name =
    List.map (fun v -> (M.var_name p.man v, v)) (E.Problem.alphabet p)
  in
  let vars =
    List.map
      (fun n ->
        match List.assoc_opt n by_name with
        | Some v -> v
        | None -> failwith ("reference alphabet names unknown variable " ^ n))
      names
  in
  Fsa.Aut.parse_string p.man ~vars text

let csf_matches ~refs (p : E.Problem.t) circuit csf =
  Fsa.Language.equivalent csf (reference ~refs p circuit)

let num_arcs (a : Fsa.Automaton.t) =
  Array.fold_left (fun n es -> n + List.length es) 0 a.edges

(* The ladder's rung sequence of one solve: failed attempts with the phase
   they died in, then the rung that completed. *)
let rungs (attempts : E.Solve.attempt list) solved_by =
  String.concat " > "
    (List.map
       (fun (a : E.Solve.attempt) ->
         a.label ^ "@" ^ E.Runtime.phase_name a.phase)
       attempts
    @ [ solved_by ])

(* every rung sequence seen in this run, per instance; two solves of one
   instance must agree *)
let ladders : (string, string) Hashtbl.t = Hashtbl.create 8

let note_ladder (i : W.instance) seq =
  match Hashtbl.find_opt ladders i.id with
  | None -> Hashtbl.replace ladders i.id seq
  | Some s when s = seq -> ()
  | Some s -> problem "%s: ladder changed within the run: %s vs %s" i.id s seq

(* What one completed solve produced, for comparing two paths. *)
type shape = {
  states : int;
  arcs : int;
  csf_states : int;
  deletions : int;
}

let shape_string s =
  Printf.sprintf "%d states, %d arcs, %d-state CSF, %d deletions" s.states
    s.arcs s.csf_states s.deletions

(* Check a completed solve's CSF against the reference and its §4 results;
   a wrong output counts as a failed solve. *)
let check ~refs (i : W.instance) ~problem:(p : E.Problem.t) ~csf ~verified =
  incr attempted;
  let contained, equal = verified in
  (* the check is not part of the solve: lift the solve's node budget *)
  M.set_node_limit p.man None;
  let ok_csf = csf_matches ~refs p i.circuit csf in
  if not ok_csf then problem "%s: CSF differs from the reference" i.id;
  if not (contained && equal) then
    problem "%s: §4 checks returned (%b, %b)" i.id contained equal;
  if not (ok_csf && contained && equal) then incr failed

let shape_of_report (r : E.Solve.report) =
  { states = r.subset_states; arcs = num_arcs r.solution;
    csf_states = r.csf_states; deletions = r.csf_deletions }

(* A solve that ended in "could not complete" counts as failed. *)
let could_not_complete (i : W.instance) reason =
  incr attempted;
  incr failed;
  Printf.printf "%s: could not complete (%s)\n%!" i.id reason

let solve_split (i : W.instance) (c : W.circuit) =
  E.Solve.solve_split ~node_limit:i.node_limit
    ~time_limit:W.default_time_limit ~method_:(W.method_of i) c.net
    ~x_latches:c.x_latches

(* --- the untraced, timed iteration -------------------------------------- *)

(* One untraced solve of one instance. *)
type sample = {
  id : string;
  solve_s : float;  (** wall seconds of [solve_split] *)
  solve_cpu_s : float;
  verify_s : float;  (** wall seconds of [Solve.verify]; 0 after a CNC *)
  failed_attempt_s : float;  (** CPU seconds of the failed ladder rungs *)
  shape : shape option;  (** [None] after a CNC *)
}

(* One pass over the workload's instances: each solve and its verification
   timed with Obs off; the checks run outside the timed regions. *)
let untraced_iteration ~refs circuit order =
  assert (not (Obs.enabled ()));
  List.map
    (fun (i : W.instance) ->
      let c = circuit i in
      Gc.full_major ();
      let t0 = now () and c0 = Sys.time () in
      let outcome = solve_split i c in
      let solve_s = now () -. t0 and solve_cpu_s = Sys.time () -. c0 in
      let sample =
        { id = i.id; solve_s; solve_cpu_s; verify_s = 0.0;
          failed_attempt_s = 0.0; shape = None }
      in
      match outcome with
      | E.Solve.Could_not_complete { reason; _ } ->
        could_not_complete i reason;
        sample
      | E.Solve.Completed r ->
        let t0 = now () in
        let verified = E.Solve.verify r in
        let verify_s = now () -. t0 in
        check ~refs i ~problem:r.problem ~csf:r.csf ~verified;
        note_ladder i (rungs r.attempts r.solved_by);
        { sample with
          verify_s;
          failed_attempt_s =
            sum
              (List.map
                 (fun (a : E.Solve.attempt) -> a.cpu_seconds)
                 r.attempts);
          shape = Some (shape_of_report r) })
    order

(* A workload figure from repeated iterations: each instance's median over
   the iterations, summed over the instances. *)
let summed_medians f iterations =
  match iterations with
  | [] -> 0.0
  | first :: _ ->
    sum
      (List.map
         (fun (s : sample) ->
           median
             (List.concat_map
                (List.filter_map (fun (s' : sample) ->
                     if s'.id = s.id then Some (f s') else None))
                iterations))
         first)

(* --- the replay: solve_split's first-try steps, one call each ------------ *)

(* The boundaries at which the replay calls [mark], in order. *)
let solve_steps = [ "build"; "subset"; "to_automaton"; "collect"; "csf" ]
let verify_steps = [ "verify.contained"; "verify.composition" ]

type replayed = {
  shape : shape;
  verified : bool * bool;
  r_problem : E.Problem.t;
  r_csf : Fsa.Automaton.t;
}

(* The calls [Solve.solve_split] makes for a first-try solve, in the same
   order and with the same arguments, then the two calls of
   [Solve.verify]. [mark step] runs after each step ("start" before the
   first); [on_state] is the engine's per-subset-state callback. *)
let replay ~mark ~on_state (i : W.instance) (c : W.circuit) =
  mark "start";
  let rt =
    E.Runtime.create
      ~deadline:(Sys.time () +. W.default_time_limit)
      ~node_limit:i.node_limit ()
  in
  let man = M.create () in
  M.set_auto_gc man true;
  E.Runtime.attach rt man;
  E.Runtime.enter_phase rt E.Runtime.Build;
  let sp, p = E.Split.problem ~man c.net ~x_latches:c.x_latches in
  mark "build";
  let arena, states =
    match W.method_of i with
    | E.Solve.Partitioned strategy ->
      let arena, st =
        E.Partitioned.solve_arena ~runtime:rt ~strategy
          ~clustering:E.Partitioned.default_clustering ~on_state p
      in
      (arena, st.E.Partitioned.subset_states)
    | E.Solve.Monolithic ->
      let arena, st = E.Monolithic.solve_arena ~runtime:rt p in
      (arena, st.E.Monolithic.subset_states)
  in
  mark "subset";
  let solution = E.Engine.to_automaton arena in
  mark "to_automaton";
  ignore (M.collect p.man : int);
  mark "collect";
  let csf, deletions = E.Csf.of_arena ~runtime:rt p arena in
  mark "csf";
  let contained = E.Verify.particular_contained p sp csf in
  mark "verify.contained";
  let equal = E.Verify.composition_equals_spec p sp in
  mark "verify.composition";
  { shape =
      { states; arcs = num_arcs solution; csf_states = E.Csf.num_states csf;
        deletions };
    verified = (contained, equal);
    r_problem = p;
    r_csf = csf }

(* --- spans -------------------------------------------------------------- *)

type span = {
  id : int;
  solve : int;  (** the solve this span belongs to *)
  parent : int;  (** [-1] for a root *)
  name : string;
  t0 : float;  (** seconds since process start *)
  t1 : float;
  cpu : bool;  (** laid out from a CPU-second figure, not a wall clock *)
}

let spans = ref []
let next_span = ref 0
let next_solve = ref 0

let add_span ?(cpu = false) ~solve ~parent name t0 t1 =
  let id = !next_span in
  incr next_span;
  spans :=
    { id; solve; parent; name; t0 = t0 -. process_start;
      t1 = t1 -. process_start; cpu }
    :: !spans;
  id

let dur s = s.t1 -. s.t0

(* One traced solve of a first-try instance: the replay with a span per
   step and per subset state. *)
let traced_replay ~refs (i : W.instance) c =
  let solve = !next_solve in
  incr next_solve;
  let marks = ref [] and states = ref [] in
  let mark step = marks := (step, now ()) :: !marks in
  let on_state _ = states := now () :: !states in
  let r = replay ~mark ~on_state i c in
  let marks = List.rev !marks in
  let at step = List.assoc step marks in
  (* a root span from [first] to the last step, with one child per step *)
  let chain root first steps =
    let parent =
      add_span ~solve ~parent:(-1) (root ^ " " ^ i.id) (at first)
        (at (List.nth steps (List.length steps - 1)))
    in
    ignore
      (List.fold_left
         (fun prev step ->
           let id = add_span ~solve ~parent step (at prev) (at step) in
           (* under the subset span: the oracle's relation building, then
              one span per subset state from its [on_state] call to the
              next (the monolithic entry takes no [on_state]) *)
           (match (step, List.rev !states) with
            | "subset", (first :: rest as starts) ->
              ignore
                (add_span ~solve ~parent:id "oracle" (at prev) first : int);
              List.iter2
                (fun t0 t1 ->
                  ignore (add_span ~solve ~parent:id "state" t0 t1 : int))
                starts (rest @ [ at step ])
            | _ -> ());
           step)
         first steps
        : string)
  in
  chain "solve" "start" solve_steps;
  chain "verify" "csf" verify_steps;
  check ~refs i ~problem:r.r_problem ~csf:r.r_csf ~verified:r.verified;
  r.shape

(* One traced solve of a tight-budget instance: [solve_split] itself, with
   a child span per ladder rung laid out from [report.attempts]. *)
let traced_ladder ~refs (i : W.instance) c =
  let solve = !next_solve in
  incr next_solve;
  let t0 = now () in
  let outcome = solve_split i c in
  let t1 = now () in
  let root = add_span ~solve ~parent:(-1) ("solve " ^ i.id) t0 t1 in
  match outcome with
  | E.Solve.Could_not_complete { reason; _ } ->
    could_not_complete i reason;
    None
  | E.Solve.Completed r ->
    let t =
      List.fold_left
        (fun t (a : E.Solve.attempt) ->
          let t' = t +. a.cpu_seconds in
          ignore
            (add_span ~cpu:true ~solve ~parent:root ("attempt " ^ a.label) t t'
              : int);
          t')
        t0 r.attempts
    in
    ignore
      (add_span ~solve ~parent:root ("attempt " ^ r.solved_by) (min t t1) t1
        : int);
    let tv = now () in
    let contained = E.Verify.particular_contained r.problem r.split r.csf in
    let tc = now () in
    let equal = E.Verify.composition_equals_spec r.problem r.split in
    let te = now () in
    let vroot = add_span ~solve ~parent:(-1) ("verify " ^ i.id) tv te in
    ignore (add_span ~solve ~parent:vroot "verify.contained" tv tc : int);
    ignore (add_span ~solve ~parent:vroot "verify.composition" tc te : int);
    check ~refs i ~problem:r.problem ~csf:r.csf ~verified:(contained, equal);
    note_ladder i (rungs r.attempts r.solved_by);
    Some (shape_of_report r)

type traced = {
  t_spans : span list;  (** this iteration's spans *)
  t_shapes : (string * shape) list;
}

let traced_iteration ~refs circuit order =
  assert (not (Obs.enabled ()));
  let first_span = !next_span in
  let shapes =
    List.filter_map
      (fun (i : W.instance) ->
        Gc.full_major ();
        let c = circuit i in
        if W.first_try i then Some (i.id, traced_replay ~refs i c)
        else Option.map (fun s -> (i.id, s)) (traced_ladder ~refs i c))
      order
  in
  { t_spans = List.filter (fun s -> s.id >= first_span) !spans;
    t_shapes = shapes }

(* --- the counting pass -------------------------------------------------- *)

(* Per-instance counter deltas with Obs on, at the replay's boundaries. *)
type counted = {
  c_id : string;
  steps : (string * (string * int) list) list;
      (** counter deltas per step, for first-try solves *)
  solve_counters : (string * int) list;  (** the whole solve *)
  verify_counters : (string * int) list;
  gauges : (string * int) list;  (** high-water marks over the solve *)
  split_counters : (string * int) list;  (** [solve_split] with Obs on *)
  obs_solve_s : float;  (** wall seconds of [solve_split] with Obs on *)
  failed_attempts : int;
  relation_nodes : int;
}

let delta a b =
  List.filter_map
    (fun (n, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt n a) in
      if v <> v0 then Some (n, v - v0) else None)
    b

let add_counters a b =
  List.fold_left
    (fun acc (n, v) ->
      (n, v + Option.value ~default:0 (List.assoc_opt n acc))
      :: List.remove_assoc n acc)
    a b
  |> List.sort compare

(* Nodes of the instance's partitioned relation functions, built in a
   manager of its own so the measured solves are not disturbed. *)
let relation_nodes (c : W.circuit) =
  let _, p = E.Split.problem c.net ~x_latches:c.x_latches in
  Bdd.Ops.size_shared p.man
    (p.f_sym.next_fns @ p.s_sym.next_fns @ p.f_out_o @ p.f_out_u
   @ p.s_out_o)

let count_instance (i : W.instance) c =
  Gc.full_major ();
  Obs.reset ();
  let t0 = now () in
  let outcome = solve_split i c in
  let obs_solve_s = now () -. t0 in
  let split_counters = Obs.Counter.all () in
  let failed_attempts, verify_of =
    match outcome with
    | E.Solve.Could_not_complete { progress; _ } ->
      (List.length progress.attempts, None)
    | E.Solve.Completed r -> (List.length r.attempts, Some r)
  in
  let steps, solve_counters, verify_counters, gauges =
    if W.first_try i then begin
      Gc.full_major ();
      Obs.reset ();
      let snaps = ref [] and gauges_at_csf = ref [] in
      let mark step =
        snaps := (step, Obs.Counter.all ()) :: !snaps;
        if step = "csf" then gauges_at_csf := Obs.Gauge.all ()
      in
      ignore (replay ~mark ~on_state:ignore i c : replayed);
      let snaps = List.rev !snaps in
      let rec steps = function
        | (_, a) :: ((step, b) :: _ as rest) -> (step, delta a b) :: steps rest
        | [ _ ] | [] -> []
      in
      let steps = steps snaps in
      let total names =
        List.fold_left add_counters []
          (List.filter_map
             (fun (s, d) -> if List.mem s names then Some d else None)
             steps)
      in
      (steps, total solve_steps, total verify_steps, !gauges_at_csf)
    end
    else begin
      let gauges = Obs.Gauge.all () in
      let verify_counters =
        match verify_of with
        | None -> []
        | Some r ->
          let before = Obs.Counter.all () in
          ignore (E.Solve.verify r : bool * bool);
          delta before (Obs.Counter.all ())
      in
      ([], delta [] split_counters, verify_counters, gauges)
    end
  in
  { c_id = i.id; steps; solve_counters; verify_counters; gauges;
    split_counters = delta [] split_counters; obs_solve_s; failed_attempts;
    relation_nodes = relation_nodes c }

let counting_pass circuit order =
  Obs.set_enabled true;
  let counted = List.map (fun i -> count_instance i (circuit i)) order in
  Obs.set_enabled false;
  Obs.reset ();
  counted

(* --- metrics ------------------------------------------------------------ *)

let metric name unit value =
  ( name,
    Obs.Json.Obj
      [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit) ] )

let print_result metrics =
  List.iter
    (fun (name, j) ->
      match j with
      | Obs.Json.Obj [ (_, Obs.Json.Float v); (_, Obs.Json.String u) ] ->
        Printf.printf "  %-32s %14.6g %s\n" name v u
      | _ -> ())
    metrics;
  List.iter (Printf.printf "PROBLEM: %s\n") (List.rev !problems);
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("correct", Obs.Json.Bool (!problems = []));
            ("attempted", Obs.Json.Int !attempted);
            ("failed", Obs.Json.Int !failed);
            ("metrics", Obs.Json.Obj metrics) ]))

(* Set up the workload (generate, write BLIF, parse back) for about a
   second and at least five times; the first repetition is timed from
   process start. A set-up takes 50-200 ms, so one alone is noisy. *)
let setup_reps ~workdir instances =
  let names = W.circuits_of instances in
  let first = ref true in
  let reps =
    repeat ~min:5 ~seconds:1.0 (fun () ->
        let t0 = if !first then process_start else now () in
        first := false;
        let circuits = W.setup ~dir:workdir names in
        (now () -. t0, circuits))
  in
  let circuits = snd (List.hd reps) in
  let circuit (i : W.instance) =
    List.find (fun (c : W.circuit) -> c.name = i.circuit) circuits
  in
  ( median (List.map fst reps),
    median
      (List.map
         (fun (_, cs) -> sum (List.map (fun (c : W.circuit) -> c.parse_s) cs))
         reps),
    circuit )

let orders ~seed instances =
  let rng = Random.State.make [| seed |] in
  fun () -> shuffle rng instances

(* Peak resident memory of a fresh process that sets up one instance and
   solves and verifies it once, as [lesolve solve --verify] does. *)
let rss_probe ~workdir (i : W.instance) =
  let c = List.hd (W.setup ~dir:workdir [ i.circuit ]) in
  match solve_split i c with
  | E.Solve.Completed r ->
    ignore (E.Solve.verify r : bool * bool);
    Printf.printf "%.6f\n" (peak_rss_mb ())
  | E.Solve.Could_not_complete _ -> exit 3

(* The largest peak over the workload's instances, one process each. *)
let peak_rss ~workdir ~workload instances =
  List.fold_left
    (fun acc (i : W.instance) ->
      let dir = Filename.concat workdir ("rss-" ^ i.id) in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let exe = Sys.executable_name in
      let ic =
        Unix.open_process_args_in exe
          [| exe; "--rss-probe"; i.id; "--workload"; workload;
             "--workdir"; dir |]
      in
      let line = In_channel.input_line ic in
      let mb = Option.bind line float_of_string_opt in
      match (Unix.close_process_in ic, mb) with
      | Unix.WEXITED 0, Some mb -> Float.max acc mb
      | _ ->
        problem "%s: memory probe failed" i.id;
        acc)
    0.0 instances

let end_to_end ~refs ~seconds ~setup_s ~circuit ~next_order ~workdir ~workload
    instances =
  let its =
    repeat ~seconds (fun () -> untraced_iteration ~refs circuit (next_order ()))
  in
  List.iteri
    (fun k it ->
      Printf.printf "iteration %d: solve %.4f s (cpu %.4f s), verify %.4f s\n" k
        (sum (List.map (fun s -> s.solve_s) it))
        (sum (List.map (fun s -> s.solve_cpu_s) it))
        (sum (List.map (fun s -> s.verify_s) it)))
    its;
  let peak_rss_mb = peak_rss ~workdir ~workload instances in
  let solved = !attempted - !failed in
  [ metric "solve_s" "s" (summed_medians (fun s -> s.solve_s) its);
    metric "verify_s" "s" (summed_medians (fun s -> s.verify_s) its);
    metric "setup_s" "s" setup_s;
    metric "peak_rss_mb" "MB" peak_rss_mb;
    metric "solved_ratio" "ratio" (ratio solved (max 1 !attempted)) ]

let compare_shapes what a b =
  List.iter
    (fun (id, s) ->
      match List.assoc_opt id b with
      | Some s' when s' = s -> ()
      | Some s' ->
        problem "%s: %s: %s vs %s" id what (shape_string s) (shape_string s')
      | None -> ())
    a

(* the counters and gauges the per-layer metrics are computed from *)
let metric_counters =
  [ "image.calls"; "image.conjunctions"; "image.peak_intermediate";
    "subset.split_calls"; "subset.split_memo_hits"; "bdd.nodes_created";
    "bdd.cache.lookups.ite"; "bdd.cache.lookups.and_exists"; "bdd.cache.hits";
    "bdd.cache.lookups"; "bdd.unique.hits"; "bdd.mk_calls"; "bdd.peak_nodes";
    "bdd.gc.runs"; "bdd.gc.nodes_swept"; "csf.worklist_deletions";
    "verify.pairs_visited"; "verify.frontier_steps" ]

(* The names whose values differ between two counter lists. *)
let differing a b =
  List.sort_uniq compare (List.map fst (delta a b @ delta b a))

(* The exact-count gates of the traced run: the replay's counters equal
   [solve_split]'s, and the two passes agree on every counter a metric
   rests on. Returns every counter that did not repeat, for the trace. *)
let check_counters pass_a pass_b =
  List.iter
    (fun c ->
      match differing c.split_counters c.solve_counters with
      | [] -> ()
      | names ->
        problem "%s: replay counters differ from solve_split's: %s" c.c_id
          (String.concat ", " names))
    pass_a;
  let nonrepeating =
    List.concat
      (List.map2
         (fun a b ->
           List.concat_map
             (fun (what, x, y) ->
               List.map (fun n -> (a.c_id, what, n)) (differing x y))
             [ ("solve", a.solve_counters, b.solve_counters);
               ("verify", a.verify_counters, b.verify_counters);
               ("gauge", a.gauges, b.gauges);
               ("solve_split", a.split_counters, b.split_counters) ])
         pass_a pass_b)
  in
  List.iter
    (fun (id, what, name) ->
      if List.mem name metric_counters then
        problem "%s: %s counter %s does not repeat" id what name
      else
        Printf.printf "note: %s: %s counter %s does not repeat\n" id what name)
    nonrepeating;
  nonrepeating

(* The traced run's spans, counter deltas and ladders, as one JSON file. *)
let write_trace ~workload ~seed counted nonrepeating path =
  let open Obs.Json in
  let counters l = Obj (List.map (fun (n, v) -> (n, Int v)) l) in
  let span s =
    Obj
      [ ("id", Int s.id); ("solve", Int s.solve); ("parent", Int s.parent);
        ("name", String s.name); ("t0", Float s.t0); ("t1", Float s.t1);
        ("clock", String (if s.cpu then "cpu" else "wall")) ]
  in
  let count c =
    Obj
      [ ("instance", String c.c_id);
        ("steps", Obj (List.map (fun (s, d) -> (s, counters d)) c.steps));
        ("solve", counters c.solve_counters);
        ("verify", counters c.verify_counters);
        ("gauges", counters c.gauges) ]
  in
  let doc =
    Obj
      [ ("workload", String workload);
        ("seed", Int seed);
        ("spans", List (List.rev_map span !spans));
        ("counts", List (List.map count counted));
        ( "ladders",
          Obj
            (Hashtbl.fold (fun id seq acc -> (id, String seq) :: acc) ladders []
            |> List.sort compare) );
        ( "nonrepeating_counters",
          List
            (List.map
               (fun (id, what, n) -> String (String.concat " " [ id; what; n ]))
               nonrepeating) ) ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string doc);
      output_char oc '\n')

let per_layer ~refs ~seconds ~parse_s ~circuit ~next_order ~trace_out
    ~workload ~seed =
  (* half the run for timing; the counting passes take about as long *)
  let pairs =
    repeat ~seconds:(seconds /. 2.0) (fun () ->
        let order = next_order () in
        let u = untraced_iteration ~refs circuit order in
        let t = traced_iteration ~refs circuit order in
        (u, t))
  in
  Printf.printf "%d untraced/traced iteration pairs\n%!" (List.length pairs);
  (* the replay must reproduce solve_split exactly *)
  List.iter
    (fun (u, t) ->
      compare_shapes "traced vs untraced"
        (List.filter_map
           (fun (s : sample) -> Option.map (fun sh -> (s.id, sh)) s.shape)
           u)
        t.t_shapes)
    pairs;
  let order = next_order () in
  let pass_a = counting_pass circuit order in
  let pass_b = counting_pass circuit order in
  let nonrepeating = check_counters pass_a pass_b in
  let total field name =
    isum
      (List.map
         (fun c -> Option.value ~default:0 (List.assoc_opt name (field c)))
         pass_a)
  in
  let counter name = float (total (fun c -> c.solve_counters) name) in
  let vcounter name = float (total (fun c -> c.verify_counters) name) in
  let gauge name =
    float
      (List.fold_left max 0
         (List.map
            (fun c -> Option.value ~default:0 (List.assoc_opt name c.gauges))
            pass_a))
  in
  let sratio a b = if b = 0.0 then 0.0 else a /. b in
  let counter_ratio a b = sratio (counter a) (counter b) in
  (* a traced figure: the median over the traced iterations *)
  let traced f = median (List.map (fun (_, t) -> f t) pairs) in
  let spans_named p (t : traced) = List.map dur (List.filter p t.t_spans) in
  let named name t = sum (spans_named (fun s -> s.name = name) t) in
  let span_sum name = traced (named name) in
  let states t = spans_named (fun s -> s.name = "state") t in
  let slowest t = List.fold_left Float.max 0.0 (states t) in
  let shape_sum f =
    float (isum (List.map (fun (_, s) -> f s) (snd (List.hd pairs)).t_shapes))
  in
  (* the spans partition each traced solve, so the root spans' sum is the
     traced solve time; it matches the untraced time up to noise *)
  let untraced_s =
    median
      (List.map (fun (u, _) -> sum (List.map (fun s -> s.solve_s) u)) pairs)
  in
  let traced_s =
    traced (fun t ->
        sum
          (spans_named
             (fun s ->
               s.parent = -1 && String.starts_with ~prefix:"solve " s.name)
             t))
  in
  let gap = sratio traced_s untraced_s -. 1.0 in
  if Float.abs gap > 0.25 then
    Printf.printf "note: traced solves took %+.0f%% against untraced ones\n"
      (100.0 *. gap);
  let obs_s pass = sum (List.map (fun c -> c.obs_solve_s) pass) in
  Option.iter (write_trace ~workload ~seed pass_a nonrepeating) trace_out;
  [ metric "image.calls" "count" (counter "image.calls");
    metric "image.conjunctions" "count" (counter "image.conjunctions");
    metric "image.peak_intermediate" "nodes" (gauge "image.peak_intermediate");
    metric "engine.subset_s" "s" (span_sum "subset");
    metric "engine.states" "count" (shape_sum (fun s -> s.states));
    metric "engine.arcs" "count" (shape_sum (fun s -> s.arcs));
    metric "engine.state_s.p50" "s" (traced (fun t -> median (states t)));
    metric "engine.state_s.max" "s" (traced slowest);
    metric "engine.slowest_state_share" "ratio"
      (traced (fun t ->
           sratio (slowest t) (named "subset" t)));
    metric "subset.split_calls" "count" (counter "subset.split_calls");
    metric "subset.split_memo_hits" "count" (counter "subset.split_memo_hits");
    metric "subset.memo_hit_ratio" "ratio"
      (counter_ratio "subset.split_memo_hits" "subset.split_calls");
    metric "bdd.nodes_created" "count" (counter "bdd.nodes_created");
    metric "bdd.cache.lookups.ite" "count" (counter "bdd.cache.lookups.ite");
    metric "bdd.cache.lookups.and_exists" "count"
      (counter "bdd.cache.lookups.and_exists");
    metric "bdd.cache.hit_ratio" "ratio"
      (counter_ratio "bdd.cache.hits" "bdd.cache.lookups");
    metric "bdd.unique.hit_ratio" "ratio"
      (counter_ratio "bdd.unique.hits" "bdd.mk_calls");
    metric "bdd.peak_nodes" "nodes" (gauge "bdd.peak_nodes");
    metric "bdd.gc.runs" "count" (counter "bdd.gc.runs");
    metric "bdd.gc.nodes_swept" "count" (counter "bdd.gc.nodes_swept");
    metric "bdd.gc.collect_s" "s" (span_sum "collect");
    metric "ladder.failed_attempts" "count"
      (float (isum (List.map (fun c -> c.failed_attempts) pass_a)));
    metric "ladder.failed_attempt_s" "s"
      (summed_medians (fun s -> s.failed_attempt_s) (List.map fst pairs));
    metric "csf.extract_s" "s" (span_sum "csf");
    metric "csf.deletions" "count" (counter "csf.worklist_deletions");
    metric "fsa.to_automaton_s" "s" (span_sum "to_automaton");
    metric "verify.contained_s" "s" (span_sum "verify.contained");
    metric "verify.composition_s" "s" (span_sum "verify.composition");
    metric "verify.pairs_visited" "count" (vcounter "verify.pairs_visited");
    metric "verify.frontier_steps" "count" (vcounter "verify.frontier_steps");
    metric "network.blif_parse_s" "s" parse_s;
    metric "problem.build_s" "s" (span_sum "build");
    metric "problem.relation_nodes" "nodes"
      (float (isum (List.map (fun c -> c.relation_nodes) pass_a)));
    metric "trace.overhead_ratio" "ratio" gap;
    metric "obs.stats_on_ratio" "ratio"
      (sratio (median [ obs_s pass_a; obs_s pass_b ]) untraced_s) ]

(* Compare this run's ladders with the recorded rung sequences; a change is
   reported, not failed — a later change may legitimately move the rung
   that rescues a solve. *)
let report_ladders ~refs =
  let path = Filename.concat refs "ladders.txt" in
  let recorded =
    String.split_on_char '\n' (read_file path)
    |> List.filter_map (fun line ->
           match String.index_opt line ' ' with
           | Some k ->
             Some
               ( String.sub line 0 k,
                 String.sub line (k + 1) (String.length line - k - 1) )
           | None -> None)
  in
  Hashtbl.iter
    (fun id seq ->
      Printf.printf "ladder %s: %s\n" id seq;
      match List.assoc_opt id recorded with
      | Some s when s = seq -> ()
      | Some s -> Printf.printf "ladder %s CHANGED from: %s\n" id s
      | None -> ())
    ladders

(* --- references --------------------------------------------------------- *)

(* Solve every circuit with the partitioned flow from its BLIF file and
   write its CSF, provided the §4 checks pass. *)
let write_refs ~workdir dir =
  List.iter
    (fun (c : W.circuit) ->
      match
        E.Solve.solve_split ~method_:E.Solve.default_partitioned c.net
          ~x_latches:c.x_latches
      with
      | E.Solve.Completed r when E.Solve.verify r = (true, true) ->
        Fsa.Aut.write_file (Filename.concat dir (c.name ^ ".aut")) r.csf;
        Printf.printf "%s: %d-state CSF\n%!" c.name r.csf_states
      | _ -> failwith (c.name ^ ": no verified partitioned solution"))
    (W.setup ~dir:workdir W.all_circuits)

(* Validate the references against flows that do not share the solver's
   determinization code paths: the explicit-automaton Algorithm 1
   ([Equation.Generic]) where it finishes, and the other symbolic flow. *)
let check_refs ~workdir dir =
  let generic = [ "t510"; "t298" ] in
  let monolithic = [ "t208"; "t298"; "t349" ] in
  List.iter
    (fun (c : W.circuit) ->
      let _, p = E.Split.problem c.net ~x_latches:c.x_latches in
      let ok what a =
        let good = csf_matches ~refs:dir p c.name a in
        Printf.printf "%s: %s %s\n%!" c.name what
          (if good then "agrees" else "DIFFERS");
        if not good then problem "%s: reference differs from %s" c.name what
      in
      if List.mem c.name generic then
        ok "Generic.solve" (E.Csf.csf p (E.Generic.solve p));
      let solve method_ =
        match E.Solve.solve_split ~method_ c.net ~x_latches:c.x_latches with
        | E.Solve.Completed r ->
          if E.Solve.verify r <> (true, true) then
            problem "%s: §4 checks fail" c.name;
          (* move the result into [p]'s manager through the exchange format *)
          Fsa.Aut.parse_string p.man
            ~vars:
              (List.map
                 (fun v ->
                   let n = M.var_name r.problem.man v in
                   List.find
                     (fun v' -> M.var_name p.man v' = n)
                     (E.Problem.alphabet p))
                 r.csf.alphabet)
            (Fsa.Aut.to_string r.csf)
        | E.Solve.Could_not_complete _ ->
          failwith (c.name ^ ": solve did not complete")
      in
      ok "partitioned flow" (solve E.Solve.default_partitioned);
      if List.mem c.name monolithic then
        ok "monolithic flow" (solve E.Solve.Monolithic))
    (W.setup ~dir:workdir W.all_circuits);
  if !problems <> [] then exit 1

(* --- command line ------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and refs = ref "" and workdir = ref "." in
  let trace_out = ref "" and write = ref "" and check_dir = ref "" in
  let probe = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N permutes the instance order");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--refs", Arg.Set_string refs, "DIR reference CSFs");
      ("--workdir", Arg.Set_string workdir, "DIR for the BLIF inputs");
      ("--trace-out", Arg.Set_string trace_out, "FILE spans and counts");
      ("--write-refs", Arg.Set_string write, "DIR write reference CSFs");
      ("--check-refs", Arg.Set_string check_dir, "DIR validate references");
      ("--rss-probe", Arg.Set_string probe, "ID solve one instance once") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --refs DIR";
  Obs.set_enabled false;
  if !write <> "" then write_refs ~workdir:!workdir !write
  else if !check_dir <> "" then check_refs ~workdir:!workdir !check_dir
  else
    match W.find !workload with
    | None ->
      prerr_endline
        ("unknown workload; expected one of: " ^ String.concat ", " W.names);
      exit 2
    | Some instances when !probe <> "" ->
      rss_probe ~workdir:!workdir
        (List.find (fun (i : W.instance) -> i.id = !probe) instances)
    | Some instances ->
      let setup_s, parse_s, circuit = setup_reps ~workdir:!workdir instances in
      let next_order = orders ~seed:!seed instances in
      let metrics =
        if !trace = 0 then
          end_to_end ~refs:!refs ~seconds:!seconds ~setup_s ~circuit
            ~next_order ~workdir:!workdir ~workload:!workload instances
        else
          per_layer ~refs:!refs ~seconds:!seconds ~parse_s ~circuit ~next_order
            ~trace_out:(if !trace_out = "" then None else Some !trace_out)
            ~workload:!workload ~seed:!seed
      in
      report_ladders ~refs:!refs;
      print_result metrics
