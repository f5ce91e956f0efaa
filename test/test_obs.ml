(* Tests for the observability layer: registry behaviour, the
   enabled/disabled guard, span nesting and unwinding, trace ring-buffer
   bounds, timer accumulation, JSON snapshot validity, and the
   counters produced by real solves (including partial stats flushed on a
   could-not-complete outcome). *)

module E = Equation
module G = Circuits.Generators

(* --- a minimal JSON syntax checker (the emitter is hand-rolled; assert
   its output actually parses) ----------------------------------------- *)

let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> incr pos; true
    | _ -> false
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> false
  and obj () =
    incr pos;
    skip_ws ();
    if expect '}' then true
    else
      let rec members () =
        skip_ws ();
        if not (string_lit ()) then false
        else begin
          skip_ws ();
          if not (expect ':') then false
          else if not (value ()) then false
          else begin
            skip_ws ();
            if expect ',' then members () else expect '}'
          end
        end
      in
      members ()
  and arr () =
    incr pos;
    skip_ws ();
    if expect ']' then true
    else
      let rec elems () =
        if not (value ()) then false
        else begin
          skip_ws ();
          if expect ',' then elems () else expect ']'
        end
      in
      elems ()
  and string_lit () =
    if not (expect '"') then false
    else begin
      let ok = ref true and closed = ref false in
      while !ok && not !closed do
        match peek () with
        | None -> ok := false
        | Some '"' -> incr pos; closed := true
        | Some '\\' ->
          incr pos;
          (match peek () with
           | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
           | Some 'u' ->
             incr pos;
             let hex = ref 0 in
             while
               !hex < 4
               &&
               match peek () with
               | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') ->
                 incr pos; incr hex; true
               | _ -> false
             do
               ()
             done;
             if !hex <> 4 then ok := false
           | _ -> ok := false)
        | Some c when Char.code c < 0x20 -> ok := false
        | Some _ -> incr pos
      done;
      !ok && !closed
    end
  and keyword () =
    let try_kw kw =
      let k = String.length kw in
      !pos + k <= n && String.sub s !pos k = kw && (pos := !pos + k; true)
    in
    try_kw "true" || try_kw "false" || try_kw "null"
  and number () =
    let digits () =
      let saw = ref false in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        incr pos; saw := true
      done;
      !saw
    in
    ignore (expect '-');
    if not (digits ()) then false
    else begin
      (if expect '.' then ignore (digits ()));
      (match peek () with
       | Some ('e' | 'E') ->
         incr pos;
         ignore (expect '+' || expect '-');
         ignore (digits ())
       | _ -> ());
      true
    end
  in
  let ok = value () in
  skip_ws ();
  ok && !pos = n

let check_json what s =
  Alcotest.(check bool) (what ^ " is valid JSON") true (json_valid s)

(* run [f] with observability enabled and a clean slate, then disable *)
let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let solve_counter () =
  E.Solve.solve_split ~time_limit:60.0 ~method_:E.Solve.default_partitioned
    (G.counter 3) ~x_latches:[ "c1" ]

(* --- registry basics -------------------------------------------------- *)

let test_counters_and_gauges () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.counter" in
      Alcotest.(check int) "fresh counter" 0 (Obs.Counter.value c);
      Obs.Counter.bump c;
      Obs.Counter.add c 4;
      Alcotest.(check int) "bump + add" 5 (Obs.Counter.value c);
      Alcotest.(check int) "find by name" 5 (Obs.Counter.find "test.counter");
      Alcotest.(check int) "unknown name is 0" 0 (Obs.Counter.find "no.such");
      let c' = Obs.Counter.make "test.counter" in
      Obs.Counter.bump c';
      Alcotest.(check int) "make is idempotent" 6 (Obs.Counter.value c);
      Obs.Counter.bump Obs.Counter.dummy;
      Alcotest.(check bool) "dummy not in snapshot" false
        (List.mem_assoc "" (Obs.Counter.all ()));
      let g = Obs.Gauge.make "test.gauge" in
      Obs.Gauge.set_max g 10;
      Obs.Gauge.set_max g 3;
      Alcotest.(check int) "set_max keeps high-water mark" 10
        (Obs.Gauge.value g);
      Obs.reset ();
      Alcotest.(check int) "reset zeroes counters" 0 (Obs.Counter.value c);
      Alcotest.(check int) "reset zeroes gauges" 0 (Obs.Gauge.value g))

(* Regression: "subset.states_expanded" and "image.calls" used to be
   registered separately by the partitioned and monolithic flows; the
   engine is now their single registration point, and re-registering the
   same name anywhere must hand back the same counter — a bump through
   one handle is visible through the other. *)
let test_engine_counters_shared () =
  with_obs (fun () ->
      List.iter
        (fun name ->
          let a = Obs.Counter.make name in
          let b = Obs.Counter.make name in
          Obs.Counter.bump a;
          Alcotest.(check int) (name ^ ": handles share one value") 1
            (Obs.Counter.value b);
          Alcotest.(check int) (name ^ ": one registry entry") 1
            (List.length
               (List.filter
                  (fun (n, _) -> n = name)
                  (Obs.Counter.all ()))))
        [ "subset.states_expanded"; "image.calls"; "csf.worklist_deletions" ])

(* The counter catalogue in DESIGN.md is the documented snapshot schema:
   the names in its table must be exactly the counters the library
   registers. A catalogue cell lists one or more backquoted names, where
   [pre.{a,b}] stands for [pre.a] and [pre.b]. Counters register at module
   initialisation, and this suite's use of [Solve] links every module that
   registers one; ["test.counter"] is the suite's own fixture, not part of
   the schema. *)
let catalogue_names () =
  let text = In_channel.with_open_text "../DESIGN.md" In_channel.input_all in
  let lines = String.split_on_char '\n' text in
  let rec table = function
    | [] -> Alcotest.fail "DESIGN.md has no counter catalogue"
    | l :: rest ->
      if Helpers.contains "**Counter catalogue.**" l then rows rest
      else table rest
  and rows = function
    | l :: rest when not (String.starts_with ~prefix:"|" l) -> rows rest
    | ls ->
      let rec take = function
        | l :: rest when String.starts_with ~prefix:"|" l -> l :: take rest
        | _ -> []
      in
      List.filteri (fun i _ -> i >= 2) (take ls)  (* header, rule *)
  in
  let expand name =
    match String.index_opt name '{' with
    | None -> [ name ]
    | Some i ->
      let j = String.index name '}' in
      let pre = String.sub name 0 i
      and post = String.sub name (j + 1) (String.length name - j - 1) in
      List.map
        (fun alt -> pre ^ alt ^ post)
        (String.split_on_char ',' (String.sub name (i + 1) (j - i - 1)))
  in
  let names_of_row row =
    match String.split_on_char '|' row with
    | _ :: cell :: _ ->
      List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' cell)
      |> List.concat_map expand
    | _ -> []
  in
  List.sort_uniq compare (List.concat_map names_of_row (table lines))

let test_counter_catalogue () =
  let registered =
    List.filter (fun n -> n <> "test.counter")
      (List.map fst (Obs.Counter.all ()))
  in
  Alcotest.(check (list string)) "registered counters = DESIGN.md catalogue"
    (catalogue_names ()) (List.sort_uniq compare registered)

let test_disabled_is_inert () =
  Obs.set_enabled false;
  Obs.reset ();
  (match solve_counter () with
   | E.Solve.Completed _ -> ()
   | E.Solve.Could_not_complete _ -> Alcotest.fail "counter:3 should solve");
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " untouched when disabled") 0
        (Obs.Counter.find name))
    [ "bdd.mk_calls"; "image.calls"; "subset.split_calls";
      "subset.states_expanded" ];
  Alcotest.(check int) "no trace events when disabled" 0
    (Obs.Trace.recorded ());
  Alcotest.(check (list (pair string (triple (float 0.0) (float 0.0) int))))
    "no timers when disabled" [] (Obs.Timer.all ())

(* --- spans, trace, timers --------------------------------------------- *)

let test_span_nesting_and_unwinding () =
  with_obs (fun () ->
      let a = Obs.Span.enter "a" in
      let b = Obs.Span.enter "b" in
      let _c = Obs.Span.enter "c" in
      Alcotest.(check int) "three deep" 3 (Obs.Span.depth ());
      (* exiting [b] must close the abandoned child [c] first *)
      Obs.Span.exit b;
      Alcotest.(check int) "unwound to a" 1 (Obs.Span.depth ());
      (* a stale token is a no-op *)
      Obs.Span.exit b;
      Alcotest.(check int) "stale exit ignored" 1 (Obs.Span.depth ());
      Obs.Span.exit a;
      Alcotest.(check int) "balanced" 0 (Obs.Span.depth ());
      (* replay the trace: every Exit matches the innermost open Enter,
         and both events of a span carry the span's nesting level *)
      let stack = ref [] in
      List.iter
        (fun (e : Obs.Trace.event) ->
          match e.Obs.Trace.kind with
          | Obs.Trace.Enter ->
            Alcotest.(check int)
              (e.Obs.Trace.name ^ " enter depth")
              (List.length !stack) e.Obs.Trace.depth;
            stack := e.Obs.Trace.name :: !stack
          | Obs.Trace.Exit ->
            (match !stack with
             | top :: rest ->
               Alcotest.(check string) "exit matches innermost enter" top
                 e.Obs.Trace.name;
               stack := rest;
               Alcotest.(check int)
                 (e.Obs.Trace.name ^ " exit depth")
                 (List.length !stack) e.Obs.Trace.depth
             | [] -> Alcotest.fail "exit without open span")
          | Obs.Trace.Point -> ())
        (Obs.Trace.events ());
      Alcotest.(check (list string)) "all spans closed" [] !stack;
      (* span exits fed the timers, one entry per name *)
      List.iter
        (fun name ->
          match Obs.Timer.find name with
          | Some (_, _, count) ->
            Alcotest.(check int) (name ^ " timer count") 1 count
          | None -> Alcotest.fail (name ^ ": no timer"))
        [ "a"; "b"; "c" ])

let test_span_with_exception_safe () =
  with_obs (fun () ->
      (match Obs.Span.with_ "boom" (fun () -> failwith "x") with
       | _ -> Alcotest.fail "expected exception"
       | exception Failure _ -> ());
      Alcotest.(check int) "depth restored" 0 (Obs.Span.depth ());
      match Obs.Timer.find "boom" with
      | Some (_, _, 1) -> ()
      | _ -> Alcotest.fail "span timing recorded despite exception")

let test_trace_ring_bounded () =
  with_obs (fun () ->
      let old = Obs.Trace.capacity () in
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_capacity old)
        (fun () ->
          Obs.Trace.set_capacity 16;
          for i = 1 to 40 do
            Obs.Trace.point ~detail:(string_of_int i) "tick"
          done;
          Alcotest.(check int) "all recorded" 40 (Obs.Trace.recorded ());
          let evs = Obs.Trace.events () in
          Alcotest.(check int) "window bounded" 16 (List.length evs);
          Alcotest.(check int) "oldest retained is 24"
            24
            (match evs with e :: _ -> e.Obs.Trace.seq | [] -> -1);
          check_json "trace" (Obs.Trace.to_json ())))

(* --- snapshots and real solves ---------------------------------------- *)

let test_snapshot_json () =
  with_obs (fun () ->
      (match solve_counter () with
       | E.Solve.Completed _ -> ()
       | E.Solve.Could_not_complete _ ->
         Alcotest.fail "counter:3 should solve");
      let snap = Obs.Stats.snapshot () in
      check_json "snapshot" snap;
      check_json "trace" (Obs.Trace.to_json ());
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true
            (Helpers.contains key snap))
        [ "\"enabled\""; "\"counters\""; "\"gauges\""; "\"timers\"";
          "\"derived\""; "\"trace\""; "\"bdd_cache_hit_rate\"" ]);
  (* disabled snapshot is still valid JSON *)
  check_json "disabled snapshot" (Obs.Stats.snapshot ())

let test_solve_populates_counters () =
  with_obs (fun () ->
      (match solve_counter () with
       | E.Solve.Completed _ -> ()
       | E.Solve.Could_not_complete _ ->
         Alcotest.fail "counter:3 should solve");
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " nonzero") true
            (Obs.Counter.find name > 0))
        [ "bdd.mk_calls"; "bdd.nodes_created"; "bdd.cache.lookups";
          "image.calls"; "image.conjunctions"; "subset.split_calls";
          "subset.arcs"; "subset.states_expanded" ];
      (* the worklist CSF only counts deletions (possibly zero), so the
         counter must be registered *)
      Alcotest.(check bool) "csf.worklist_deletions registered" true
        (List.mem_assoc "csf.worklist_deletions" (Obs.Counter.all ()));
      Alcotest.(check bool) "peak nodes tracked" true
        (Obs.Gauge.find "bdd.peak_nodes" > 0);
      Alcotest.(check bool) "cache hits cannot exceed lookups" true
        (Obs.Counter.find "bdd.cache.hits"
         <= Obs.Counter.find "bdd.cache.lookups");
      (* the nested span structure of a solve reached phase depth *)
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (e : Obs.Trace.event) ->
          if e.Obs.Trace.kind = Obs.Trace.Enter then
            Hashtbl.replace seen e.Obs.Trace.name e.Obs.Trace.depth)
        (Obs.Trace.events ());
      Alcotest.(check (option int)) "solve span at depth 0" (Some 0)
        (Hashtbl.find_opt seen "solve");
      Alcotest.(check bool) "an attempt span nests under solve" true
        (Hashtbl.fold
           (fun name d acc ->
             acc
             || (d = 1 && String.length name > 8 && String.sub name 0 8 = "attempt."))
           seen false);
      Alcotest.(check bool) "a phase span nests under the attempt" true
        (Hashtbl.fold
           (fun name d acc ->
             acc
             || (d = 2 && String.length name > 6 && String.sub name 0 6 = "phase."))
           seen false))

let test_cnc_flushes_partial_stats () =
  with_obs (fun () ->
      let row = Circuits.Suite.find "t298" in
      let outcome =
        E.Solve.solve_split ~node_limit:100 ~retries:0 ~fallback:false
          ~method_:E.Solve.default_partitioned row.Circuits.Suite.net
          ~x_latches:row.Circuits.Suite.x_latches
      in
      (match outcome with
       | E.Solve.Could_not_complete { reason; _ } ->
         Alcotest.(check string) "node-limit reason" "node limit exceeded"
           reason
       | E.Solve.Completed _ -> Alcotest.fail "expected CNC under 100 nodes");
      (* the failed attempt still left its footprint in the counters and a
         valid snapshot *)
      Alcotest.(check bool) "partial mk_calls" true
        (Obs.Counter.find "bdd.mk_calls" > 0);
      Alcotest.(check bool) "attempt failure traced" true
        (List.exists
           (fun (e : Obs.Trace.event) ->
             e.Obs.Trace.name = "solve.attempt_failed")
           (Obs.Trace.events ()));
      check_json "partial snapshot" (Obs.Stats.snapshot ()))

let () =
  Alcotest.run "obs"
    [ ( "registry",
        [ Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "engine counters shared" `Quick
            test_engine_counters_shared;
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "counter catalogue" `Quick test_counter_catalogue
        ] );
      ( "spans",
        [ Alcotest.test_case "nesting and unwinding" `Quick
            test_span_nesting_and_unwinding;
          Alcotest.test_case "exception-safe with_" `Quick
            test_span_with_exception_safe;
          Alcotest.test_case "trace ring bounded" `Quick
            test_trace_ring_bounded ] );
      ( "solves",
        [ Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
          Alcotest.test_case "counters populated" `Quick
            test_solve_populates_counters;
          Alcotest.test_case "cnc partial stats" `Quick
            test_cnc_flushes_partial_stats ] ) ]
