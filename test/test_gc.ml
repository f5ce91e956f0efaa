(* Tests for the in-place mark-and-sweep collector: sweep/reuse mechanics,
   pin discipline (protect/release, root sets, freezing), the live-node
   semantics of the node limit, cache/GC interleaving, the observability
   counters, and the geometric growth of the variable tables. Semantic
   checks are truth-table exact over all environments (5 variables). *)

module M = Bdd.Manager
module O = Bdd.Ops

let nvars = Helpers.default_nvars
let all_envs () = Helpers.all_envs ~nvars ()

(* the ids reachable from [root] (excluding constants), via the child
   pointers the collector itself follows *)
let reachable m root =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (M.is_const id) && not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      go (M.low m id);
      go (M.high m id)
    end
  in
  go root;
  seen

let truth_table m f = List.map (O.eval m f) (all_envs ())

(* a function with a nontrivial BDD: the majority of three literals *)
let majority m =
  O.bor m
    (O.bor m
       (O.band m (O.var_bdd m 0) (O.var_bdd m 1))
       (O.band m (O.var_bdd m 1) (O.var_bdd m 2)))
    (O.band m (O.var_bdd m 0) (O.var_bdd m 2))

(* Churn out short-lived nodes none of which is kept: one minterm chain
   per round over all the manager's variables, distinct per round (via
   [salt]), dead by the next. Built with raw [mk] — which pins its own two
   arguments — so the churn itself is GC-safe with nothing rooted. *)
let minterm_chain m i =
  let n = M.num_vars m in
  let f = ref M.one in
  for v = n - 1 downto 0 do
    f :=
      (if (i lsr v) land 1 = 1 then M.mk m v M.zero !f else M.mk m v !f M.zero)
  done;
  !f

let make_garbage ?(salt = 0) m rounds =
  for r = 1 to rounds do
    ignore (minterm_chain m (salt + r) : int)
  done

(* a tiny collecting store over enough variables that every churn round
   allocates (automatic collection is opt-in on a fresh manager) *)
let tiny_man () =
  let m = M.create ~initial_capacity:64 () in
  M.set_auto_gc m true;
  ignore (M.new_vars m 16 : int list);
  m

(* --- sweep mechanics --------------------------------------------------------- *)

let test_sweep_and_reuse () =
  let m = Helpers.fresh_man ~nvars () in
  let f = majority m in
  M.protect m f;
  let live_before = reachable m f in
  let tt_before = truth_table m f in
  (* dead nodes: an unpinned function not sharing structure with [f] *)
  let g = O.bxor m (O.bxor m (O.var_bdd m 3) (O.var_bdd m 4)) (O.var_bdd m 0) in
  let dead =
    Hashtbl.fold
      (fun id () acc -> if Hashtbl.mem live_before id then acc else id :: acc)
      (reachable m g) []
  in
  Alcotest.(check bool) "the doomed function has own nodes" true (dead <> []);
  make_garbage m 50;
  let swept = M.collect m in
  Alcotest.(check bool) "something was swept" true (swept >= List.length dead);
  (* no swept id is reachable from the pinned root... *)
  let live_after = reachable m f in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "dead id %d not reachable from the pinned root" id)
        false (Hashtbl.mem live_after id))
    dead;
  (* ...the live ids did not move (no compaction)... *)
  Alcotest.(check int) "live set size unchanged" (Hashtbl.length live_before)
    (Hashtbl.length live_after);
  Hashtbl.iter
    (fun id () ->
      Alcotest.(check bool)
        (Printf.sprintf "live id %d survived in place" id)
        true (Hashtbl.mem live_after id))
    live_before;
  (* ...the function is intact... *)
  Alcotest.(check (list bool)) "truth table preserved" tt_before
    (truth_table m f);
  (* ...and a fresh allocation consumes the free list instead of growing *)
  let size0 = M.store_size m in
  let free0 = M.free_nodes m in
  Alcotest.(check bool) "free list populated" true (free0 >= swept);
  let h = O.band m (O.var_bdd m 3) (O.var_bdd m 4) in
  Alcotest.(check int) "store did not grow" size0 (M.store_size m);
  Alcotest.(check bool) "free list consumed" true (M.free_nodes m < free0);
  Alcotest.(check bool) "recycled node works" true
    (O.eval m h (fun v -> v = 3 || v = 4))

let test_rebuilt_unique_table_canonical () =
  let m = Helpers.fresh_man ~nvars () in
  let f = majority m in
  M.protect m f;
  make_garbage m 30;
  ignore (M.collect m : int);
  (* canonicity across the rebuild: recomputing a live function must find
     the surviving node, not allocate a duplicate *)
  Alcotest.(check int) "recomputation hits the live node" f (majority m)

let test_collect_inside_frozen_rejected () =
  let m = Helpers.fresh_man ~nvars () in
  Helpers.check_invalid_arg "collect under with_frozen" "frozen" (fun () ->
      M.with_frozen m (fun () -> M.collect m))

let test_frozen_defers_auto_gc () =
  let m = tiny_man () in
  M.set_gc_threshold m 0.0;
  let runs0 = M.gc_runs m in
  (* enough churn to overflow a 64-slot store many times over *)
  M.with_frozen m (fun () -> make_garbage m 200);
  Alcotest.(check int) "no collection while frozen" runs0 (M.gc_runs m);
  (* fresh chains after the thaw refill the grown store until it collects *)
  make_garbage ~salt:10_000 m 500;
  Alcotest.(check bool) "collections resume after thaw" true
    (M.gc_runs m > runs0)

(* The safe point before a frozen section collects exactly when the store
   is at least 3/4 full of mostly dead nodes, auto-GC is on and the
   manager is not frozen. *)
let test_safe_point () =
  let filled () =
    let m = tiny_man () in
    let f = majority m in
    M.protect m f;
    (* dead chains up to 3/4 of the 64-slot store, short of the full
       store that would make [mk] collect on its own *)
    let i = ref 0 in
    while M.live_nodes m < 48 do
      incr i;
      ignore (minterm_chain m !i : int)
    done;
    Alcotest.(check int) "no collection while filling" 0 (M.gc_runs m);
    (m, f, truth_table m f)
  in
  let declines what m =
    Alcotest.(check int) (what ^ ": nothing swept") 0
      (M.collect_at_safe_point m);
    Alcotest.(check int) (what ^ ": no collection") 0 (M.gc_runs m)
  in
  let m, _, _ = filled () in
  M.with_frozen m (fun () -> declines "frozen" m);
  let m, _, _ = filled () in
  M.set_auto_gc m false;
  declines "auto-GC off" m;
  let m, _, _ = filled () in
  M.set_gc_threshold m 1.0;
  declines "dead ratio under the threshold" m;
  let m = tiny_man () in
  make_garbage m 1;
  declines "store under 3/4 full" m;
  let m, f, tt = filled () in
  Alcotest.(check bool) "collects when every condition holds" true
    (M.collect_at_safe_point m > 0);
  Alcotest.(check int) "one collection" 1 (M.gc_runs m);
  Alcotest.(check (list bool)) "pinned function intact" tt (truth_table m f)

(* --- pin discipline ----------------------------------------------------------- *)

let test_protect_refcounted () =
  let m = Helpers.fresh_man ~nvars () in
  let f = majority m in
  M.protect m f;
  M.protect m f;
  M.release m f;
  Alcotest.(check bool) "still pinned after one release" true (M.protected m f);
  let tt = truth_table m f in
  ignore (M.collect m : int);
  Alcotest.(check (list bool)) "survives while pinned" tt (truth_table m f);
  M.release m f;
  Helpers.check_invalid_arg "over-release" "protect" (fun () -> M.release m f)

let test_roots_set_scoped () =
  let m = Helpers.fresh_man ~nvars () in
  let f = ref M.zero in
  let tt = ref [] in
  M.with_roots m (fun rs ->
      f := M.Roots.add rs (majority m);
      tt := truth_table m !f;
      make_garbage m 30;
      ignore (M.collect m : int);
      Alcotest.(check (list bool)) "pinned via the set" !tt (truth_table m !f));
  (* the scope released the set: the function is garbage now *)
  let size_before = M.store_size m in
  let swept = M.collect m in
  Alcotest.(check bool) "released roots are swept" true (swept > 0);
  Alcotest.(check int) "sweep is in place" size_before (M.store_size m)

let test_auto_gc_respects_pins () =
  (* a tiny store forced through many automatic collections must never
     corrupt the pinned function *)
  let m = tiny_man () in
  M.set_gc_threshold m 0.0;
  let f = majority m in
  M.protect m f;
  let tt = truth_table m f in
  make_garbage m 500;
  Alcotest.(check bool) "the collector ran" true (M.gc_runs m > 0);
  Alcotest.(check (list bool)) "pinned function intact" tt (truth_table m f)

(* --- the node limit bounds live nodes ----------------------------------------- *)

let test_node_limit_is_live_count () =
  let m = tiny_man () in
  M.set_node_limit m (Some 200);
  (* transient garbage far beyond the budget: collections keep the live
     count low, so this must not raise *)
  make_garbage m 300;
  Alcotest.(check bool) "stayed under the live budget" true
    (M.live_nodes m < 200);
  (* but a genuinely live population over the budget must still raise,
     even though collections are available *)
  Alcotest.check_raises "live blow-up" M.Node_limit_exceeded (fun () ->
      for i = 1 to 400 do
        M.protect m (minterm_chain m i)
      done)

let test_gc_off_grows_only () =
  let m = tiny_man () in
  M.set_auto_gc m false;
  make_garbage m 300;
  Alcotest.(check int) "no collections" 0 (M.gc_runs m);
  Alcotest.(check bool) "the store grew instead" true (M.store_size m > 64)

(* --- caches and GC ------------------------------------------------------------ *)

let test_clear_caches_gc_interleaving () =
  let m = Helpers.fresh_man ~nvars () in
  let f = majority m in
  M.protect m f;
  let g = O.bxor m (O.var_bdd m 3) (O.var_bdd m 4) in
  M.protect m g;
  let fg = O.band m f g in
  let tt = truth_table m fg in
  M.protect m fg;
  (* each step invalidates cache entries whose operands or results may
     have been swept; recomputation must keep returning the live node *)
  M.clear_caches m;
  Alcotest.(check int) "same result after clear_caches" fg (O.band m f g);
  make_garbage m 40;
  ignore (M.collect m : int);
  Alcotest.(check int) "same result after collect" fg (O.band m f g);
  M.clear_caches m;
  ignore (M.collect m : int);
  M.clear_caches m;
  Alcotest.(check int) "same result after both" fg (O.band m f g);
  Alcotest.(check (list bool)) "truth table stable" tt (truth_table m fg)

(* --- observability ------------------------------------------------------------ *)

let test_gc_counters () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let m = tiny_man () in
  M.set_gc_threshold m 0.0;
  let f = majority m in
  M.protect m f;
  make_garbage m 300;
  ignore (M.collect m : int);
  Alcotest.(check bool) "bdd.gc.runs advanced" true
    (Obs.Counter.find "bdd.gc.runs" > 0);
  Alcotest.(check bool) "bdd.gc.nodes_swept advanced" true
    (Obs.Counter.find "bdd.gc.nodes_swept" > 0);
  Alcotest.(check bool) "bdd.gc.live_after advanced" true
    (Obs.Counter.find "bdd.gc.live_after" > 0);
  Alcotest.(check int) "bdd.live_nodes tracks the manager"
    (M.live_nodes m)
    (Obs.Gauge.find "bdd.live_nodes");
  (* the derived dead ratio is computable and sane *)
  let swept = Obs.Counter.find "bdd.gc.nodes_swept" in
  let created = Obs.Counter.find "bdd.nodes_created" in
  Alcotest.(check bool) "swept bounded by created" true (swept <= created)

(* --- variable-table growth ----------------------------------------------------- *)

let test_new_var_10k_fast () =
  let m = M.create () in
  let t0 = Sys.time () in
  for _ = 1 to 10_000 do
    ignore (M.new_var m : int)
  done;
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "all registered" 10_000 (M.num_vars m);
  Alcotest.(check bool)
    (Printf.sprintf "10k variables in %.3fs (< 1s)" elapsed)
    true (elapsed < 1.0);
  (* the registered variables are usable and correctly named *)
  ignore (O.var_bdd m 9_999 : int);
  let named = M.create () in
  ignore (M.new_vars named 5_000 : int list);
  let v = M.new_var ~name:"tail" named in
  Alcotest.(check string) "names survive the geometric growth" "tail"
    (M.var_name named v)

let () =
  Alcotest.run "gc"
    [ ( "sweep",
        [ Alcotest.test_case "sweep, pin and reuse" `Quick test_sweep_and_reuse;
          Alcotest.test_case "unique table rebuilt canonically" `Quick
            test_rebuilt_unique_table_canonical;
          Alcotest.test_case "collect rejected while frozen" `Quick
            test_collect_inside_frozen_rejected;
          Alcotest.test_case "safe point before a frozen section" `Quick
            test_safe_point;
          Alcotest.test_case "freezing defers auto-GC" `Quick
            test_frozen_defers_auto_gc ] );
      ( "pins",
        [ Alcotest.test_case "protect is refcounted" `Quick
            test_protect_refcounted;
          Alcotest.test_case "root sets are scoped" `Quick
            test_roots_set_scoped;
          Alcotest.test_case "auto-GC respects pins" `Quick
            test_auto_gc_respects_pins ] );
      ( "limits",
        [ Alcotest.test_case "node limit bounds live nodes" `Quick
            test_node_limit_is_live_count;
          Alcotest.test_case "gc off grows only" `Quick test_gc_off_grows_only ]
      );
      ( "caches",
        [ Alcotest.test_case "clear_caches/GC interleaving" `Quick
            test_clear_caches_gc_interleaving ] );
      ( "obs",
        [ Alcotest.test_case "gc counters and gauges" `Quick test_gc_counters ]
      );
      ( "vars",
        [ Alcotest.test_case "10k new_var under a second" `Quick
            test_new_var_10k_fast ] ) ]
