(* Tests for the BDD engine: every operation is checked against brute-force
   truth-table semantics on small variable counts, both on hand-picked cases
   and on QCheck-generated random formulas. *)

module M = Bdd.Manager
module O = Bdd.Ops

(* --- a tiny formula language with a reference evaluator ------------------ *)

type formula =
  | F_var of int
  | F_const of bool
  | F_not of formula
  | F_and of formula * formula
  | F_or of formula * formula
  | F_xor of formula * formula
  | F_ite of formula * formula * formula

let rec feval env = function
  | F_var v -> env v
  | F_const b -> b
  | F_not f -> not (feval env f)
  | F_and (f, g) -> feval env f && feval env g
  | F_or (f, g) -> feval env f || feval env g
  | F_xor (f, g) -> feval env f <> feval env g
  | F_ite (f, g, h) -> if feval env f then feval env g else feval env h

let rec fbuild m = function
  | F_var v -> O.var_bdd m v
  | F_const b -> if b then M.one else M.zero
  | F_not f -> O.bnot m (fbuild m f)
  | F_and (f, g) -> O.band m (fbuild m f) (fbuild m g)
  | F_or (f, g) -> O.bor m (fbuild m f) (fbuild m g)
  | F_xor (f, g) -> O.bxor m (fbuild m f) (fbuild m g)
  | F_ite (f, g, h) -> O.ite m (fbuild m f) (fbuild m g) (fbuild m h)

let formula_gen nvars =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun v -> F_var v) (int_bound (nvars - 1));
            map (fun b -> F_const b) bool ]
      else
        frequency
          [ (1, map (fun v -> F_var v) (int_bound (nvars - 1)));
            (2, map (fun f -> F_not f) (self (n - 1)));
            (3, map2 (fun f g -> F_and (f, g)) (self (n / 2)) (self (n / 2)));
            (3, map2 (fun f g -> F_or (f, g)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun f g -> F_xor (f, g)) (self (n / 2)) (self (n / 2)));
            (1,
             map3
               (fun f g h -> F_ite (f, g, h))
               (self (n / 3)) (self (n / 3)) (self (n / 3))) ])

let rec formula_print = function
  | F_var v -> Printf.sprintf "x%d" v
  | F_const b -> string_of_bool b
  | F_not f -> Printf.sprintf "!(%s)" (formula_print f)
  | F_and (f, g) -> Printf.sprintf "(%s & %s)" (formula_print f) (formula_print g)
  | F_or (f, g) -> Printf.sprintf "(%s | %s)" (formula_print f) (formula_print g)
  | F_xor (f, g) -> Printf.sprintf "(%s ^ %s)" (formula_print f) (formula_print g)
  | F_ite (f, g, h) ->
    Printf.sprintf "ite(%s,%s,%s)" (formula_print f) (formula_print g)
      (formula_print h)

let formula_arb nvars =
  QCheck.make ~print:formula_print (formula_gen nvars)

let nvars = Helpers.default_nvars
let fresh_man () = Helpers.fresh_man ~nvars ()
let all_envs () = Helpers.all_envs ~nvars ()

let semantics_agree m f bdd =
  List.for_all
    (fun env -> feval env f = O.eval m bdd env)
    (all_envs ())

(* --- unit tests ----------------------------------------------------------- *)

let test_constants () =
  let m = fresh_man () in
  Alcotest.(check bool) "zero is const" true (M.is_const M.zero);
  Alcotest.(check bool) "one is const" true (M.is_const M.one);
  Alcotest.(check int) "not zero" M.one (O.bnot m M.zero);
  Alcotest.(check int) "not one" M.zero (O.bnot m M.one)

let test_var_semantics () =
  let m = fresh_man () in
  let x = O.var_bdd m 0 in
  Alcotest.(check bool) "x true" true (O.eval m x (fun _ -> true));
  Alcotest.(check bool) "x false" false (O.eval m x (fun _ -> false));
  let nx = O.nvar_bdd m 0 in
  Alcotest.(check int) "nvar = not var" (O.bnot m x) nx

let test_canonicity () =
  let m = fresh_man () in
  let x = O.var_bdd m 0 and y = O.var_bdd m 1 in
  let a = O.band m x y and b = O.band m y x in
  Alcotest.(check int) "and commutes to same node" a b;
  let c = O.bor m (O.band m x y) (O.band m x (O.bnot m y)) in
  Alcotest.(check int) "absorption gives x" x c

let test_de_morgan () =
  let m = fresh_man () in
  let x = O.var_bdd m 0 and y = O.var_bdd m 1 in
  Alcotest.(check int) "de morgan"
    (O.bnot m (O.band m x y))
    (O.bor m (O.bnot m x) (O.bnot m y))

let test_ite_truth_table () =
  let m = fresh_man () in
  let f = F_ite (F_var 0, F_xor (F_var 1, F_var 2), F_and (F_var 3, F_var 4)) in
  Alcotest.(check bool) "ite matches" true (semantics_agree m f (fbuild m f))

let test_exists_semantics () =
  let m = fresh_man () in
  let f = F_and (F_var 0, F_xor (F_var 1, F_var 2)) in
  let bdd = fbuild m f in
  let q = O.exists m (O.cube_of_vars m [ 1 ]) bdd in
  (* ∃x1. x0 & (x1 ^ x2) = x0 *)
  Alcotest.(check int) "exists collapses" (O.var_bdd m 0) q

let test_forall_semantics () =
  let m = fresh_man () in
  let f = F_or (F_var 0, F_var 1) in
  let bdd = fbuild m f in
  let q = O.forall m (O.cube_of_vars m [ 1 ]) bdd in
  (* ∀x1. x0 | x1 = x0 *)
  Alcotest.(check int) "forall collapses" (O.var_bdd m 0) q

let test_compose () =
  let m = fresh_man () in
  (* (x0 ^ x1)[x1 := x2 & x3] = x0 ^ (x2 & x3) *)
  let f = fbuild m (F_xor (F_var 0, F_var 1)) in
  let g = fbuild m (F_and (F_var 2, F_var 3)) in
  let expect = fbuild m (F_xor (F_var 0, F_and (F_var 2, F_var 3))) in
  Alcotest.(check int) "compose" expect (O.compose m f 1 g)

let test_compose_upward () =
  let m = fresh_man () in
  (* substituting a function whose support is *above* the variable *)
  let f = fbuild m (F_and (F_var 3, F_var 4)) in
  let g = fbuild m (F_or (F_var 0, F_var 1)) in
  let expect = fbuild m (F_and (F_or (F_var 0, F_var 1), F_var 4)) in
  Alcotest.(check int) "compose upward" expect (O.compose m f 3 g)

let test_rename_swap () =
  let m = fresh_man () in
  let f = fbuild m (F_and (F_var 0, F_not (F_var 1))) in
  let r = O.rename m f [ (0, 1); (1, 0) ] in
  let expect = fbuild m (F_and (F_var 1, F_not (F_var 0))) in
  Alcotest.(check int) "swap rename" expect r

let test_rename_shift () =
  let m = fresh_man () in
  let f = fbuild m (F_xor (F_var 0, F_var 2)) in
  let r = O.rename m f [ (0, 1); (2, 3) ] in
  let expect = fbuild m (F_xor (F_var 1, F_var 3)) in
  Alcotest.(check int) "shift rename (order-preserving)" expect r

let test_support () =
  let m = fresh_man () in
  let f = fbuild m (F_ite (F_var 4, F_var 0, F_var 2)) in
  Alcotest.(check (list int)) "support" [ 0; 2; 4 ] (O.support m f)

let test_sat_count () =
  let m = fresh_man () in
  let f = fbuild m (F_xor (F_var 0, F_var 1)) in
  Alcotest.(check (float 1e-9)) "xor count" 16.0 (O.sat_count m f nvars)

let test_cofactor () =
  let m = fresh_man () in
  let f = fbuild m (F_ite (F_var 0, F_var 1, F_var 2)) in
  Alcotest.(check int) "positive cofactor" (O.var_bdd m 1) (O.cofactor m f 0 true);
  Alcotest.(check int) "negative cofactor" (O.var_bdd m 2) (O.cofactor m f 0 false)

let test_cofactor_cube () =
  let m = fresh_man () in
  let f = fbuild m (F_ite (F_var 0, F_var 1, F_var 2)) in
  let cube = O.cube_of_literals m [ (0, true); (1, false) ] in
  Alcotest.(check int) "cube cofactor" M.zero (O.cofactor_cube m f cube)

let test_cube_enumeration () =
  let m = fresh_man () in
  let f = fbuild m (F_xor (F_var 0, F_var 1)) in
  let cs = Bdd.Cube.cubes m f in
  Alcotest.(check int) "two cubes" 2 (List.length cs);
  (* Re-disjoining the cubes must rebuild f. *)
  let back = O.disj m (List.map (O.cube_of_literals m) cs) in
  Alcotest.(check int) "cubes rebuild f" f back

let test_minterms () =
  let m = fresh_man () in
  let f = fbuild m (F_or (F_var 0, F_var 1)) in
  let count = ref 0 in
  Bdd.Cube.iter_minterms m f [ 0; 1 ] (fun _ -> incr count);
  Alcotest.(check int) "three minterms" 3 !count

let test_node_limit () =
  let m = M.create () in
  let vars = M.new_vars m 20 in
  M.set_node_limit m (Some 50);
  let blow () =
    (* a parity function over 20 vars needs ~40 nodes; conjoin with a dense
       majority-ish function to cross the limit *)
    let parity =
      List.fold_left (fun acc v -> O.bxor m acc (O.var_bdd m v)) M.zero vars
    in
    let clique =
      List.fold_left
        (fun acc v -> O.bor m acc (O.band m (O.var_bdd m v) parity))
        M.zero vars
    in
    ignore (clique : int)
  in
  Alcotest.check_raises "limit fires" M.Node_limit_exceeded blow

let test_print () =
  let m = fresh_man () in
  M.set_var_name m 0 "a";
  M.set_var_name m 1 "b";
  let f = O.band m (O.var_bdd m 0) (O.bnot m (O.var_bdd m 1)) in
  Alcotest.(check string) "cube print" "a & !b" (Bdd.Print.to_string m f);
  Alcotest.(check string) "true" "true" (Bdd.Print.to_string m M.one);
  Alcotest.(check string) "false" "false" (Bdd.Print.to_string m M.zero);
  let dot = Bdd.Print.to_dot m [ f ] in
  Alcotest.(check bool) "dot has digraph" true
    (String.length dot > 8 && String.sub dot 0 8 = "digraph ")

let test_support_union_and_shared_size () =
  let m = fresh_man () in
  let f = fbuild m (F_and (F_var 0, F_var 1)) in
  let g = fbuild m (F_and (F_var 1, F_var 2)) in
  Alcotest.(check (list int)) "union" [ 0; 1; 2 ] (O.support_union m [ f; g ]);
  (* shared size <= sum of sizes *)
  Alcotest.(check bool) "sharing bound" true
    (O.size_shared m [ f; g ] <= O.size m f + O.size m g);
  Alcotest.(check int) "size of literal" 1 (O.size m (O.var_bdd m 3))

let test_var_names () =
  let m = M.create () in
  let v = M.new_var ~name:"clk" m in
  Alcotest.(check string) "named" "clk" (M.var_name m v);
  M.set_var_name m v "clock";
  Alcotest.(check string) "renamed" "clock" (M.var_name m v);
  Alcotest.(check string) "out of range" "?42" (M.var_name m 42)

let test_cache_lossy_is_sound () =
  (* hammer one operation so cache slots collide; results must stay exact *)
  let m = M.create () in
  ignore (M.new_vars m 10 : int list);
  let fs = List.init 10 (fun v -> O.var_bdd m v) in
  let all = O.conj m fs in
  for _ = 1 to 3 do
    List.iter
      (fun f -> ignore (O.band m all (O.bnot m f) : int))
      fs
  done;
  Alcotest.(check int) "conj of all vars and a negation is zero" M.zero
    (O.band m all (O.bnot m (List.hd fs)));
  M.clear_caches m;
  Alcotest.(check int) "recompute after clear" M.zero
    (O.band m all (O.bnot m (List.hd fs)))

let test_pick_minterm () =
  let m = fresh_man () in
  let f = fbuild m (F_and (F_not (F_var 1), F_var 3)) in
  match O.pick_minterm m f [ 0; 1; 2; 3; 4 ] with
  | None -> Alcotest.fail "expected a minterm"
  | Some lits ->
    let env v = List.assoc v lits in
    Alcotest.(check bool) "minterm satisfies f" true (O.eval m f env);
    Alcotest.(check int) "total assignment" nvars (List.length lits)

let test_serialize_roundtrip () =
  let m = fresh_man () in
  let f = fbuild m (F_ite (F_var 0, F_xor (F_var 1, F_var 2), F_var 3)) in
  let g = fbuild m (F_and (F_var 2, F_not (F_var 4))) in
  let text = Bdd.Serialize.dump m [ f; g ] in
  match Bdd.Serialize.load m text with
  | [ f'; g' ] ->
    Alcotest.(check int) "f reloaded" f f';
    Alcotest.(check int) "g reloaded" g g'
  | _ -> Alcotest.fail "wrong root count"

let test_serialize_into_fresh_manager () =
  let m = fresh_man () in
  let f = fbuild m (F_xor (F_var 0, F_and (F_var 2, F_var 4))) in
  let text = Bdd.Serialize.dump m [ f ] in
  let m2 = fresh_man () in
  (match Bdd.Serialize.load m2 text with
   | [ f2 ] ->
     List.iter
       (fun env ->
         Alcotest.(check bool) "same function" (O.eval m f env)
           (O.eval m2 f2 env))
       (all_envs ())
   | _ -> Alcotest.fail "wrong root count");
  (* permuted reload still denotes the permuted function *)
  let reversed v = nvars - 1 - v in
  match Bdd.Serialize.load m2 ~var_map:reversed text with
  | [ fr ] ->
    List.iter
      (fun env ->
        Alcotest.(check bool) "permuted function"
          (O.eval m f (fun v -> env (reversed v)))
          (O.eval m2 fr env))
      (all_envs ())
  | _ -> Alcotest.fail "wrong root count"

let test_serialize_import_names () =
  (* dump from a manager with named vars, reload into a manager that has NO
     variables yet: [import_names] must allocate them and restore names *)
  let m = M.create () in
  let a = M.new_var ~name:"alpha" m in
  let b = M.new_var ~name:"beta" m in
  let _c = M.new_var ~name:"gamma two" m in
  let f = O.bxor m (O.var_bdd m a) (O.band m (O.var_bdd m b) (O.nvar_bdd m a)) in
  let text = Bdd.Serialize.dump m [ f ] in
  let m2 = M.create () in
  match Bdd.Serialize.load m2 ~import_names:true text with
  | [ f2 ] ->
    Alcotest.(check int) "all vars allocated" (M.num_vars m) (M.num_vars m2);
    List.iteri
      (fun v name ->
        Alcotest.(check string) "name restored" name (M.var_name m2 v))
      [ "alpha"; "beta"; "gamma two" ];
    Helpers.check_same_function ~nvars:3 "same function" m f m2 f2
  | _ -> Alcotest.fail "wrong root count"

let test_serialize_rejects_corrupt () =
  let check_failure what text =
    let m = fresh_man () in
    match Bdd.Serialize.load m text with
    | _ -> Alcotest.fail (what ^ ": expected Failure")
    | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: message %S is descriptive" what msg)
        true
        (Helpers.contains "Serialize.load" msg)
  in
  check_failure "non-integer field" "bdd 5 1\nnode 2 0 zero 1\nroots 2\n";
  check_failure "undefined node id" "bdd 5 1\nnode 2 0 0 9\nroots 2\n";
  check_failure "undefined root id" "bdd 5 1\nroots 7\n";
  check_failure "variable out of range" "bdd 5 1\nnode 2 99 0 1\nroots 2\n";
  check_failure "unrecognized line" "bdd 5 1\nwat is this\nroots 1\n";
  check_failure "missing roots" "bdd 5 1\nnode 2 0 0 1\n";
  (* the negative-index case only triggers under import_names *)
  let m = M.create () in
  match
    Bdd.Serialize.load m ~import_names:true "bdd 1 1\nvar -3 oops\nroots 1\n"
  with
  | _ -> Alcotest.fail "negative var: expected Failure"
  | exception Failure _ -> ()

let test_migrate_preserves_semantics () =
  let m = fresh_man () in
  let f = fbuild m (F_ite (F_var 1, F_var 3, F_xor (F_var 0, F_var 4))) in
  let dst, roots, var_map = Bdd.Reorder.reorder m [ f ] in
  (match roots with
   | [ f' ] ->
     List.iter
       (fun env ->
         Alcotest.(check bool) "migrated function" (O.eval m f env)
           (O.eval dst f' (fun v' ->
                (* invert the map: find the source var sent to v' *)
                let rec src v = if var_map v = v' then v else src (v + 1) in
                env (src 0))))
       (all_envs ())
   | _ -> Alcotest.fail "wrong root count")

let test_force_order_improves_shift_relation () =
  (* ns_k <-> cs_{k-1} with a bad (blocked) initial order: FORCE should
     recover an interleaved-like order that shrinks the relation *)
  let k = 8 in
  let m = M.create () in
  let cs = M.new_vars ~prefix:"cs" m k in
  let ns = M.new_vars ~prefix:"ns" m k in
  let rel =
    O.conj m
      (List.map2
         (fun nsv csv -> O.bxnor m (O.var_bdd m nsv) (O.var_bdd m csv))
         ns cs)
  in
  let before = O.size m rel in
  let hyperedges = List.map2 (fun a b -> [ a; b ]) ns cs in
  let dst, roots, _ = Bdd.Reorder.reorder m ~hyperedges [ rel ] in
  let after = O.size_shared dst roots in
  Alcotest.(check bool)
    (Printf.sprintf "reorder shrinks %d -> %d" before after)
    true (after < before)

(* --- QCheck properties ---------------------------------------------------- *)

let prop_build_semantics =
  QCheck.Test.make ~count:300 ~name:"bdd semantics = formula semantics"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      semantics_agree m f (fbuild m f))

let prop_not_involutive =
  QCheck.Test.make ~count:200 ~name:"double negation is identity"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      O.bnot m (O.bnot m b) = b)

let prop_exists_semantics =
  QCheck.Test.make ~count:200 ~name:"exists = or of cofactors"
    QCheck.(pair (formula_arb nvars) (int_bound (nvars - 1)))
    (fun (f, v) ->
      let m = fresh_man () in
      let b = fbuild m f in
      let q = O.exists m (O.cube_of_vars m [ v ]) b in
      q = O.bor m (O.cofactor m b v false) (O.cofactor m b v true))

let prop_forall_semantics =
  QCheck.Test.make ~count:200 ~name:"forall = and of cofactors"
    QCheck.(pair (formula_arb nvars) (int_bound (nvars - 1)))
    (fun (f, v) ->
      let m = fresh_man () in
      let b = fbuild m f in
      let q = O.forall m (O.cube_of_vars m [ v ]) b in
      q = O.band m (O.cofactor m b v false) (O.cofactor m b v true))

let prop_and_exists =
  QCheck.Test.make ~count:200 ~name:"and_exists = exists of and"
    QCheck.(triple (formula_arb nvars) (formula_arb nvars)
              (list_of_size (QCheck.Gen.int_range 0 3) (int_bound (nvars - 1))))
    (fun (f, g, vs) ->
      let m = fresh_man () in
      let bf = fbuild m f and bg = fbuild m g in
      let cube = O.cube_of_vars m vs in
      O.and_exists m cube bf bg = O.exists m cube (O.band m bf bg))

let prop_sat_count =
  QCheck.Test.make ~count:200 ~name:"sat_count = brute count"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      let brute =
        List.length (List.filter (fun env -> feval env f) (all_envs ()))
      in
      Float.abs (O.sat_count m b nvars -. float_of_int brute) < 1e-6)

let prop_rename_roundtrip =
  QCheck.Test.make ~count:200 ~name:"rename there and back"
    (formula_arb 3) (fun f ->
      (* rename {0,1,2} -> {3,4,0} (not order-preserving) and back *)
      let m = fresh_man () in
      let b = fbuild m f in
      let r = O.rename m b [ (0, 3); (1, 4); (2, 0) ] in
      let back = O.rename m r [ (3, 0); (4, 1); (0, 2) ] in
      back = b)

let prop_subst_semantics =
  QCheck.Test.make ~count:200 ~name:"subst matches substituted formula"
    QCheck.(triple (formula_arb 3) (formula_arb nvars) (int_bound 2))
    (fun (f, g, v) ->
      let m = fresh_man () in
      let bf = fbuild m f and bg = fbuild m g in
      let s = O.subst m bf (fun w -> if w = v then Some bg else None) in
      List.for_all
        (fun env ->
          let env' w = if w = v then feval env g else env w in
          O.eval m s env = feval env' f)
        (all_envs ()))

let prop_exists_nested =
  QCheck.Test.make ~count:150 ~name:"multi-var exists = nested exists"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      let both = O.exists m (O.cube_of_vars m [ 1; 3 ]) b in
      let nested =
        O.exists m (O.cube_of_vars m [ 3 ]) (O.exists m (O.cube_of_vars m [ 1 ]) b)
      in
      both = nested)

let prop_compose_sequential =
  QCheck.Test.make ~count:150
    ~name:"sequential compose on disjoint vars = simultaneous subst"
    QCheck.(triple (formula_arb 2) (formula_arb nvars) (formula_arb nvars))
    (fun (f, g, h) ->
      let m = fresh_man () in
      let bf = fbuild m f and bg = fbuild m g and bh = fbuild m h in
      (* substitute for vars 0 and 1 of f; g and h may mention any vars, so
         do the simultaneous substitution as the reference *)
      let simultaneous =
        O.subst m bf (fun v ->
            if v = 0 then Some bg else if v = 1 then Some bh else None)
      in
      (* semantic check against brute-force evaluation *)
      List.for_all
        (fun env ->
          let env' v =
            if v = 0 then feval env g
            else if v = 1 then feval env h
            else env v
          in
          O.eval m simultaneous env = feval env' f)
        (all_envs ()))

let prop_isop_exact =
  QCheck.Test.make ~count:200 ~name:"isop cover rebuilds exactly f"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      Bdd.Isop.cover_bdd m (Bdd.Isop.cover m b) = b)

let prop_isop_interval =
  QCheck.Test.make ~count:200 ~name:"isop respects the (L,U) interval"
    QCheck.(pair (formula_arb nvars) (formula_arb nvars))
    (fun (f, g) ->
      let m = fresh_man () in
      let bf = fbuild m f and bg = fbuild m g in
      let lower = O.band m bf bg in
      let upper = O.bor m bf bg in
      let cov = Bdd.Isop.cover_bdd m (Bdd.Isop.isop m lower upper) in
      O.bdiff m lower cov = M.zero && O.bdiff m cov upper = M.zero)

let prop_isop_irredundant =
  QCheck.Test.make ~count:100 ~name:"isop cover is irredundant"
    (formula_arb 4) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      let cover = Bdd.Isop.cover m b in
      (* dropping any single cube loses some minterm of f *)
      List.for_all
        (fun cube ->
          let rest = List.filter (fun c -> c != cube) cover in
          Bdd.Isop.cover_bdd m rest <> b)
        cover
      || cover = [])

let prop_cubes_partition =
  QCheck.Test.make ~count:150 ~name:"cubes are disjoint and cover f"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      let cs = List.map (O.cube_of_literals m) (Bdd.Cube.cubes m b) in
      let cover = O.disj m cs in
      let rec pairwise_disjoint = function
        | [] -> true
        | c :: rest ->
          List.for_all (fun d -> O.band m c d = M.zero) rest
          && pairwise_disjoint rest
      in
      cover = b && pairwise_disjoint cs)

(* --- kernel: ITE standard triples, truth tables, cache probes ------------- *)

(* the operand triple of [ite] in one of the shapes its standard-triple
   rewrites act on *)
type ite_shape = General | G_is_f | H_is_f | And | Or | All_f

let shape_print = function
  | General -> "ite f g h"
  | G_is_f -> "ite f f h"
  | H_is_f -> "ite f g f"
  | And -> "ite f g 0"
  | Or -> "ite f 1 h"
  | All_f -> "ite f f f"

let shaped_ite_arb =
  QCheck.(
    make
      ~print:(fun (sh, f, g, h) ->
        Printf.sprintf "%s with f=%s g=%s h=%s" (shape_print sh)
          (formula_print f) (formula_print g) (formula_print h))
      Gen.(
        quad
          (oneofl [ General; G_is_f; H_is_f; And; Or; All_f ])
          (formula_gen nvars) (formula_gen nvars) (formula_gen nvars)))

let shaped sh f g h =
  match sh with
  | General -> (f, g, h)
  | G_is_f -> (f, f, h)
  | H_is_f -> (f, g, f)
  | And -> (f, g, F_const false)
  | Or -> (f, F_const true, h)
  | All_f -> (f, f, f)

let prop_ite_shapes =
  QCheck.Test.make ~count:400 ~name:"ite on triple shapes = truth table"
    shaped_ite_arb (fun (sh, f, g, h) ->
      let m = fresh_man () in
      let f, g, h = shaped sh f g h in
      let bf = fbuild m f and bg = fbuild m g and bh = fbuild m h in
      let r = O.ite m bf bg bh in
      let semantic =
        List.for_all
          (fun env ->
            O.eval m r env = if feval env f then feval env g else feval env h)
          (all_envs ())
      in
      (* the commuted [and]/[or] is the same probe and the same node *)
      let commuted =
        match sh with
        | And -> O.ite m bg bf M.zero = r && O.band m bg bf = r
        | Or -> O.ite m bh M.one bf = r && O.bor m bh bf = r
        | General | G_is_f | H_is_f | All_f -> true
      in
      M.check m;
      semantic && commuted)

let prop_exists_truth_table =
  QCheck.Test.make ~count:300 ~name:"exists = truth table"
    QCheck.(
      pair (formula_arb nvars)
        (list_of_size (Gen.int_range 0 nvars) (int_bound (nvars - 1))))
    (fun (f, vars) ->
      let m = fresh_man () in
      let q = O.exists m (O.cube_of_vars m vars) (fbuild m f) in
      let ok =
        List.for_all
          (fun env ->
            O.eval m q env = Helpers.exists_brute vars (fun e -> feval e f) env)
          (all_envs ())
      in
      M.check m;
      ok)

(* [band m g f] right after [band m f g] is answered by the entry the
   first call stored: one ITE probe, one hit, no node *)
let test_commuted_and_or_hit () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let m = fresh_man () in
  let f = O.bxor m (O.var_bdd m 0) (O.var_bdd m 2) in
  let g = O.bor m (O.var_bdd m 1) (O.nvar_bdd m 3) in
  let counters () =
    List.map Obs.Counter.find
      [ "bdd.cache.lookups.ite"; "bdd.cache.hits.ite"; "bdd.nodes_created" ]
  in
  List.iter
    (fun (what, op) ->
      let r = op m f g in
      let before = counters () in
      Alcotest.(check int) (what ^ ": same node") r (op m g f);
      Alcotest.(check (list int))
        (what ^ ": one ITE lookup, one hit, no node created")
        (List.map2 ( + ) before [ 1; 1; 0 ])
        (counters ()))
    [ ("band", O.band); ("bor", O.bor) ];
  M.check m

(* [band_capped] is [band] or [-1], and [-1] exactly when the conjunction
   would create more than [cap] nodes (counted on a twin manager built the
   same way), which implies it has more than [cap] nodes. An abort leaves
   the operand stack as it was and the manager consistent, and the
   uncapped [band] afterwards finds the same node. [precomputed] runs the
   full [band] first, so the capped call creates nothing and never
   aborts. *)
let prop_band_capped =
  QCheck.Test.make ~count:400 ~name:"band_capped = band or -1 past the cap"
    QCheck.(
      quad (formula_arb nvars) (formula_arb nvars) (int_range (-2) 2) bool)
    (fun (f, g, slack, precomputed) ->
      let operands () =
        let m = fresh_man () in
        (m, fbuild m f, fbuild m g)
      in
      let created =
        let m, bf, bg = operands () in
        let before = M.live_nodes m in
        ignore (O.band m bf bg : int);
        M.live_nodes m - before
      in
      let m, bf, bg = operands () in
      if precomputed then ignore (O.band m bf bg : int);
      let fresh = if precomputed then 0 else created in
      let cap = max 0 (fresh + slack) in
      let depth = M.stack_depth m in
      let r = M.band_capped m bf bg ~max_new:cap in
      let depth_kept = M.stack_depth m = depth in
      M.check m;
      let full = O.band m bf bg in
      M.check m;
      depth_kept
      && r = (if fresh > cap then -1 else full)
      && (r >= 0 || O.size m full > cap))

(* [leq f g] is truth-table implication. Besides an unrelated [g], the
   shapes put the answer deep in the walk: [f ≤ f ∨ g] always holds, and
   [f ≤ f ∧ g] exactly when [f ≤ g]; [g = f] and the constants are the
   terminal cases. The repeated call is answered from the cache. *)
let prop_leq_truth_table =
  QCheck.Test.make ~count:400 ~name:"leq = truth-table implication"
    QCheck.(triple (formula_arb nvars) (formula_arb nvars) (int_bound 3))
    (fun (f, g, shape) ->
      let g =
        match shape with
        | 0 -> g
        | 1 -> F_or (f, g)
        | 2 -> F_and (f, g)
        | _ -> f
      in
      let m = fresh_man () in
      let bf = fbuild m f and bg = fbuild m g in
      let implies =
        List.for_all
          (fun env -> (not (feval env f)) || feval env g)
          (all_envs ())
      in
      let first = M.leq m bf bg in
      let cached = M.leq m bf bg in
      M.check m;
      first = implies && cached = implies)

(* [leq] builds nothing: the store, the live count and the OCaml minor
   heap are where they were, over cold and warm calls on every ordered
   pair of a few random BDDs *)
let test_leq_creates_nothing () =
  let rng = Random.State.make [| 81 |] in
  let m = Helpers.fresh_man ~nvars () in
  let fs =
    Array.append [| M.zero; M.one |]
      (Array.init 6 (fun _ -> Helpers.random_bdd ~depth:4 m nvars rng))
  in
  let n = Array.length fs in
  let store = M.store_size m and live = M.live_nodes m in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        ignore (M.leq m fs.(i) fs.(j) : bool)
      done
    done
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "store unchanged" store (M.store_size m);
  Alcotest.(check int) "live nodes unchanged" live (M.live_nodes m);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 6 400 leq calls (< 64)" words)
    true (words < 64.0);
  M.check m

(* the mark-buffer walks agree with Hashtbl walks on DAGs that share
   nodes, and again after a collection has reused the mark buffer *)
let prop_traversals =
  let wide = 8 in
  QCheck.Test.make ~count:200 ~name:"size, size_shared, support = Hashtbl walks"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 4) (formula_arb wide))
        (formula_arb wide))
    (fun (fs, garbage) ->
      let m = Helpers.fresh_man ~nvars:wide () in
      let agree roots =
        List.for_all
          (fun r ->
            O.size m r = Helpers.size_shared_hashtbl m [ r ]
            && O.support m r = Helpers.support_hashtbl m r)
          roots
        && O.size_shared m roots = Helpers.size_shared_hashtbl m roots
      in
      let roots = List.map (fbuild m) fs in
      List.iter (M.protect m) roots;
      let before = agree roots in
      M.check m;
      ignore (fbuild m garbage : int);
      ignore (M.collect m : int);
      M.check m;
      let after = agree roots in
      M.check m;
      before && after)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_build_semantics; prop_not_involutive; prop_exists_semantics;
      prop_forall_semantics; prop_and_exists; prop_sat_count;
      prop_rename_roundtrip; prop_subst_semantics; prop_cubes_partition;
      prop_exists_nested; prop_compose_sequential;
      prop_isop_exact; prop_isop_interval; prop_isop_irredundant;
      prop_ite_shapes; prop_exists_truth_table; prop_band_capped;
      prop_traversals; prop_leq_truth_table ]

let () =
  Alcotest.run "bdd"
    [ ( "unit",
        [ Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "var semantics" `Quick test_var_semantics;
          Alcotest.test_case "canonicity" `Quick test_canonicity;
          Alcotest.test_case "de morgan" `Quick test_de_morgan;
          Alcotest.test_case "ite truth table" `Quick test_ite_truth_table;
          Alcotest.test_case "leq creates nothing" `Quick
            test_leq_creates_nothing;
          Alcotest.test_case "commuted and/or is one cache hit" `Quick
            test_commuted_and_or_hit;
          Alcotest.test_case "exists" `Quick test_exists_semantics;
          Alcotest.test_case "forall" `Quick test_forall_semantics;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "compose upward" `Quick test_compose_upward;
          Alcotest.test_case "rename swap" `Quick test_rename_swap;
          Alcotest.test_case "rename shift" `Quick test_rename_shift;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "sat count" `Quick test_sat_count;
          Alcotest.test_case "cofactor" `Quick test_cofactor;
          Alcotest.test_case "cofactor cube" `Quick test_cofactor_cube;
          Alcotest.test_case "cube enumeration" `Quick test_cube_enumeration;
          Alcotest.test_case "minterms" `Quick test_minterms;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "print" `Quick test_print;
          Alcotest.test_case "support union + shared size" `Quick
            test_support_union_and_shared_size;
          Alcotest.test_case "var names" `Quick test_var_names;
          Alcotest.test_case "lossy cache soundness" `Quick
            test_cache_lossy_is_sound;
          Alcotest.test_case "pick minterm" `Quick test_pick_minterm;
          Alcotest.test_case "serialize roundtrip" `Quick
            test_serialize_roundtrip;
          Alcotest.test_case "serialize across managers" `Quick
            test_serialize_into_fresh_manager;
          Alcotest.test_case "serialize imports names" `Quick
            test_serialize_import_names;
          Alcotest.test_case "serialize rejects corrupt input" `Quick
            test_serialize_rejects_corrupt;
          Alcotest.test_case "migrate semantics" `Quick
            test_migrate_preserves_semantics;
          Alcotest.test_case "force order" `Quick
            test_force_order_improves_shift_relation ] );
      ("properties", qcheck_cases) ]
