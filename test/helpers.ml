(* Shared test utilities: manager/environment builders, random BDD and
   netlist helpers, and common assertions. Linked into every test
   executable (the dune [tests] stanza compiles each sibling module into
   each runner, but only the runner's own suite executes). *)

module M = Bdd.Manager
module O = Bdd.Ops

let default_nvars = 5

(* a manager with [nvars] anonymous variables already allocated *)
let fresh_man ?(nvars = default_nvars) () =
  let m = M.create () in
  ignore (M.new_vars m nvars : int list);
  m

(* every assignment of [nvars] booleans, as environment functions *)
let all_envs ?(nvars = default_nvars) () =
  List.init (1 lsl nvars) (fun bits v -> bits land (1 lsl v) <> 0)

(* [∃vars. p] at [env] by brute force: some assignment of [vars], the
   rest of [env] kept, satisfies [p] *)
let exists_brute vars p env =
  let rec go env = function
    | [] -> p env
    | v :: rest ->
      let set b w = if w = v then b else env w in
      go (set false) rest || go (set true) rest
  in
  go env vars

(* a small random BDD over vars [0, nvars): a depth-[depth] tree of
   and/or/xor over random literals *)
let random_bdd ?(depth = 3) man nvars rng =
  let rec go depth =
    if depth = 0 then
      let v = Random.State.int rng nvars in
      if Random.State.bool rng then O.var_bdd man v else O.nvar_bdd man v
    else
      match Random.State.int rng 3 with
      | 0 -> O.band man (go (depth - 1)) (go (depth - 1))
      | 1 -> O.bor man (go (depth - 1)) (go (depth - 1))
      | _ -> O.bxor man (go (depth - 1)) (go (depth - 1))
  in
  go depth

(* a manager with two named alphabet variables a (0) and b (1) — the
   standard fixture for hand-built automata *)
let alphabet_man () =
  let m = M.create () in
  let a = M.new_var ~name:"a" m in
  let b = M.new_var ~name:"b" m in
  (m, a, b)

(* simulate [steps] cycles of a netlist; returns the list of output
   vectors, with [input_fn k] supplying the cycle-[k] inputs *)
let sim_run net steps input_fn =
  let module N = Network.Netlist in
  let st = ref (N.initial_state net) in
  List.init steps (fun k ->
      let out, st' = N.step net !st (input_fn k) in
      st := st';
      out)

(* split a netlist, solve with the partitioned flow, extract the CSF *)
let csf_of net x_latches =
  let sp, p = Equation.Split.problem net ~x_latches in
  let solution, _ = Equation.Partitioned.solve p in
  (sp, p, Equation.Csf.csf p solution)

(* the CSF by iterated full sweeps over a materialized automaton —
   prefix closure, then progressive deletion passes until a fixpoint: the
   reference the worklist extraction ([Csf.of_arena]) is checked
   against *)
let csf_sweep p x =
  Fsa.Ops.progressive (Fsa.Ops.prefix_close x)
    ~inputs:(Equation.Problem.x_input_vars p)

(* assert that two roots (possibly in different managers over the same
   variable indices) denote the same Boolean function *)
let check_same_function ?(nvars = default_nvars) msg m1 f1 m2 f2 =
  List.iter
    (fun env ->
      Alcotest.(check bool) msg (O.eval m1 f1 env) (O.eval m2 f2 env))
    (all_envs ~nvars ())

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* assert that a thunk raises [Invalid_argument] whose message contains
   [substring] *)
let check_invalid_arg msg substring f =
  match f () with
  | _ -> Alcotest.fail (msg ^ ": expected Invalid_argument")
  | exception Invalid_argument m ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: message %S mentions %S" msg m substring)
      true (contains substring m)

(* --- reference walks and clustering ----------------------------------------

   The straightforward versions the library's are checked against: walks
   with a Hashtbl visited set per call (the library marks a buffer owned
   by the manager), and affinity clustering that conjoins every candidate
   pair in full (the library abandons a candidate past the size cap). *)

let size_shared_hashtbl m fs =
  let visited = Hashtbl.create 64 in
  let count = ref 0 in
  let rec go f =
    if (not (M.is_const f)) && not (Hashtbl.mem visited f) then begin
      Hashtbl.add visited f ();
      incr count;
      go (M.low m f);
      go (M.high m f)
    end
  in
  List.iter go fs;
  !count

let support_hashtbl m f =
  let visited = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go f =
    if (not (M.is_const f)) && not (Hashtbl.mem visited f) then begin
      Hashtbl.add visited f ();
      Hashtbl.replace vars (M.var m f) ();
      go (M.low m f);
      go (M.high m f)
    end
  in
  go f;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let jaccard s1 s2 =
  let rec go a b inter union =
    match (a, b) with
    | [], rest | rest, [] -> (inter, union + List.length rest)
    | x :: xs, y :: ys ->
      if x = y then go xs ys (inter + 1) (union + 1)
      else if x < y then go xs b inter (union + 1)
      else go a ys inter (union + 1)
  in
  let inter, union = go s1 s2 0 0 in
  if union = 0 then 1.0 else float_of_int inter /. float_of_int union

(* affinity clustering of [parts] up to [threshold] nodes, each candidate
   pair conjoined in full and then measured *)
let cluster_affinity_uncapped man parts ~threshold =
  if threshold <= 1 then parts
  else
    M.with_frozen man @@ fun () ->
    let supp p = support_hashtbl man p in
    let items = ref (List.map (fun p -> (p, supp p)) parts) in
    let blocked = Hashtbl.create 16 in
    let continue = ref true in
    while !continue do
      let arr = Array.of_list !items in
      let n = Array.length arr in
      let best = ref None and best_aff = ref neg_infinity in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let pi, si = arr.(i) and pj, sj = arr.(j) in
          let key = if pi <= pj then (pi, pj) else (pj, pi) in
          if not (Hashtbl.mem blocked key) then begin
            let a = jaccard si sj in
            if a > !best_aff then begin
              best_aff := a;
              best := Some (i, j, key)
            end
          end
        done
      done;
      match !best with
      | None -> continue := false
      | Some (i, j, key) ->
        let candidate = O.band man (fst arr.(i)) (fst arr.(j)) in
        if size_shared_hashtbl man [ candidate ] <= threshold then begin
          let merged = (candidate, supp candidate) in
          let out = ref [] in
          Array.iteri
            (fun k it ->
              if k = i then out := merged :: !out
              else if k <> j then out := it :: !out)
            arr;
          items := List.rev !out
        end
        else Hashtbl.replace blocked key ()
    done;
    List.map fst !items
