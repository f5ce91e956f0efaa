module S = Equation.Solve
module R = Equation.Runtime

type method_stats = {
  time_s : float;
  peak_nodes : int;
  image_calls : int;
  cache_hit_rate : float;
  and_exists_lookups : int;
  and_exists_hits : int;
  and_exists_hit_rate : float;
  split_memo_hits : int;
  subset_states : int;
  csf_time_s : float;
  csf_worklist_deletions : int;
  gc_runs : int;
  gc_nodes_swept : int;
  gc_dead_ratio : float;
  completed : bool;
}

type row_result = {
  row : Circuits.Suite.row;
  part : S.outcome;
  mono : S.outcome;
  part_stats : method_stats;
  mono_stats : method_stats;
}

let default_time_limit = 120.0
let default_node_limit = 10_000_000

(* Per-method stats come from the outcome itself plus deltas of the global
   obs counters across the solve; with observability disabled the counter
   deltas (image calls, cache rate) are zero but the outcome-derived fields
   are still meaningful. *)
let with_stats solve =
  let img0 = Obs.Counter.find "image.calls" in
  let hits0 = Obs.Counter.find "bdd.cache.hits" in
  let lookups0 = Obs.Counter.find "bdd.cache.lookups" in
  let ae_hits0 = Obs.Counter.find "bdd.cache.hits.and_exists" in
  let ae_lookups0 = Obs.Counter.find "bdd.cache.lookups.and_exists" in
  let memo0 = Obs.Counter.find "subset.split_memo_hits" in
  let csf_cpu () =
    match Obs.Timer.find "phase.csf" with
    | Some (_, cpu_s, _) -> cpu_s
    | None -> 0.0
  in
  let csf_cpu0 = csf_cpu () in
  let csf_del0 = Obs.Counter.find "csf.worklist_deletions" in
  let gc_runs0 = Obs.Counter.find "bdd.gc.runs" in
  let gc_swept0 = Obs.Counter.find "bdd.gc.nodes_swept" in
  let alloc0 = Obs.Counter.find "bdd.nodes_created" in
  let outcome = solve () in
  let image_calls = Obs.Counter.find "image.calls" - img0 in
  let hits = Obs.Counter.find "bdd.cache.hits" - hits0 in
  let lookups = Obs.Counter.find "bdd.cache.lookups" - lookups0 in
  let and_exists_hits = Obs.Counter.find "bdd.cache.hits.and_exists" - ae_hits0 in
  let and_exists_lookups =
    Obs.Counter.find "bdd.cache.lookups.and_exists" - ae_lookups0
  in
  let split_memo_hits = Obs.Counter.find "subset.split_memo_hits" - memo0 in
  let csf_time_s = csf_cpu () -. csf_cpu0 in
  let csf_worklist_deletions =
    Obs.Counter.find "csf.worklist_deletions" - csf_del0
  in
  let gc_runs = Obs.Counter.find "bdd.gc.runs" - gc_runs0 in
  let gc_nodes_swept = Obs.Counter.find "bdd.gc.nodes_swept" - gc_swept0 in
  let allocated = Obs.Counter.find "bdd.nodes_created" - alloc0 in
  let rate hits lookups =
    if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups
  in
  let cache_hit_rate = rate hits lookups in
  let and_exists_hit_rate = rate and_exists_hits and_exists_lookups in
  let gc_dead_ratio = rate gc_nodes_swept allocated in
  let time_s, peak_nodes, subset_states, completed =
    match outcome with
    | S.Completed r ->
      (r.S.cpu_seconds, r.S.peak_nodes, r.S.subset_states, true)
    | S.Could_not_complete { cpu_seconds; progress; _ } ->
      ( cpu_seconds,
        progress.S.peak_nodes_seen,
        progress.S.subset_states_explored,
        false )
  in
  ( outcome,
    { time_s; peak_nodes; image_calls; cache_hit_rate; and_exists_lookups;
      and_exists_hits; and_exists_hit_rate; split_memo_hits; subset_states;
      csf_time_s; csf_worklist_deletions; gc_runs; gc_nodes_swept;
      gc_dead_ratio; completed } )

let run_row ?(time_limit = default_time_limit)
    ?(node_limit = default_node_limit) ?retries ?fallback
    (row : Circuits.Suite.row) =
  let solve method_ () =
    S.solve_split ~node_limit ~time_limit ?retries ?fallback ~method_
      row.Circuits.Suite.net ~x_latches:row.Circuits.Suite.x_latches
  in
  let part, part_stats = with_stats (solve S.default_partitioned) in
  let mono, mono_stats = with_stats (solve S.Monolithic) in
  { row; part; mono; part_stats; mono_stats }

let run_table1 ?time_limit ?node_limit ?retries ?fallback
    ?(progress = fun _ -> ()) () =
  List.map
    (fun row ->
      progress row.Circuits.Suite.name;
      run_row ?time_limit ?node_limit ?retries ?fallback row)
    (Circuits.Suite.table1 ())

let states_cell = function
  | S.Completed r -> string_of_int r.S.csf_states
  | S.Could_not_complete _ -> "-"

let time_cell = function
  | S.Completed r -> Printf.sprintf "%.2f" r.S.cpu_seconds
  | S.Could_not_complete _ -> "CNC"

let ratio_cell part mono =
  match (part, mono) with
  | S.Completed p, S.Completed m ->
    if p.S.cpu_seconds < 1e-6 then "-"
    else Printf.sprintf "%.1f" (m.S.cpu_seconds /. p.S.cpu_seconds)
  | _, _ -> "-"

let attempts_of = function
  | S.Completed r -> r.S.attempts
  | S.Could_not_complete { progress; _ } -> progress.S.attempts

let fallbacks_of outcome = List.length (attempts_of outcome)

let print_table1 fmt results =
  Format.fprintf fmt
    "%-8s %-10s %-8s %10s %8s %8s %7s@."
    "Name" "i/o/cs" "Fcs/Xcs" "States(X)" "Part,s" "Mono,s" "Ratio";
  List.iter
    (fun { row; part; mono; _ } ->
      let i, o, cs, fcs, xcs = Circuits.Suite.profile row in
      Format.fprintf fmt "%-8s %-10s %-8s %10s %8s %8s %7s@."
        row.Circuits.Suite.name
        (Printf.sprintf "%d/%d/%d" i o cs)
        (Printf.sprintf "%d/%d" fcs xcs)
        (states_cell part) (time_cell part) (time_cell mono)
        (ratio_cell part mono))
    results

let describe_attempt (a : S.attempt) =
  Printf.sprintf
    "%s [%s] failed in %s phase (%s; %d subset states, %d nodes, %.2fs)"
    a.S.label a.S.kernel
    (R.phase_name a.S.phase)
    a.S.failure a.S.subset_states a.S.peak_nodes a.S.cpu_seconds

let print_attempts fmt results =
  let print_outcome name which outcome =
    match attempts_of outcome with
    | [] -> ()
    | attempts ->
      List.iter
        (fun a ->
          Format.fprintf fmt "  %s %s: %s@." name which (describe_attempt a))
        attempts;
      (match outcome with
       | S.Completed r ->
         Format.fprintf fmt "  %s %s: recovered via %s@." name which
           r.S.solved_by
       | S.Could_not_complete { reason; progress; _ } ->
         Format.fprintf fmt "  %s %s: CNC (%s, reached %s phase)@." name
           which reason
           (R.phase_name progress.S.phase_reached))
  in
  List.iter
    (fun { row; part; mono; _ } ->
      print_outcome row.Circuits.Suite.name "partitioned" part;
      print_outcome row.Circuits.Suite.name "monolithic" mono)
    results

let method_stats_fields (s : method_stats) =
  [ ("time_s", Obs.Json.Float s.time_s);
    ("peak_nodes", Obs.Json.Int s.peak_nodes);
    ("image_calls", Obs.Json.Int s.image_calls);
    ("cache_hit_rate", Obs.Json.Float s.cache_hit_rate);
    ("and_exists_lookups", Obs.Json.Int s.and_exists_lookups);
    ("and_exists_hits", Obs.Json.Int s.and_exists_hits);
    ("and_exists_hit_rate", Obs.Json.Float s.and_exists_hit_rate);
    ("split_memo_hits", Obs.Json.Int s.split_memo_hits);
    ("subset_states", Obs.Json.Int s.subset_states);
    ("csf_time_s", Obs.Json.Float s.csf_time_s);
    ("csf_worklist_deletions", Obs.Json.Int s.csf_worklist_deletions);
    ("gc_runs", Obs.Json.Int s.gc_runs);
    ("gc_nodes_swept", Obs.Json.Int s.gc_nodes_swept);
    ("gc_dead_ratio", Obs.Json.Float s.gc_dead_ratio);
    ("completed", Obs.Json.Bool s.completed) ]

let bench_json ?(time_limit = default_time_limit)
    ?(node_limit = default_node_limit) results =
  Obs.Json.Obj
    [ ("suite", Obs.Json.String "table1");
      ("time_limit_s", Obs.Json.Float time_limit);
      ("node_limit", Obs.Json.Int node_limit);
      ( "circuits",
        Obs.Json.List
          (List.map
             (fun { row; part_stats; mono_stats; _ } ->
               Obs.Json.Obj
                 (("name", Obs.Json.String row.Circuits.Suite.name)
                  :: method_stats_fields part_stats
                 @ [ ("monolithic", Obs.Json.Obj (method_stats_fields mono_stats))
                   ]))
             results) ) ]

let write_bench_json ?time_limit ?node_limit path results =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string (bench_json ?time_limit ?node_limit results));
  output_char oc '\n';
  close_out oc

let verify_row ?(time_limit = default_time_limit) { part; _ } =
  match part with
  | S.Completed r -> (
    let rt = R.create ~deadline:(Sys.time () +. time_limit) () in
    match S.verify ~runtime:rt r with
    | checks -> Some checks
    | exception Equation.Runtime.Deadline_exceeded -> None)
  | S.Could_not_complete _ -> None
