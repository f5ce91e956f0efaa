module M = Bdd.Manager
module O = Bdd.Ops
module A = Fsa.Automaton

let c_pairs = Obs.Counter.make "verify.pairs_visited"
let c_frontier = Obs.Counter.make "verify.frontier_steps"

let enter_verify runtime =
  Option.iter (fun rt -> Runtime.enter_phase rt Runtime.Verify) runtime

let particular_contained ?runtime (p : Problem.t) (sp : Split.t) (x : A.t) =
  enter_verify runtime;
  let tick = Runtime.ticker runtime in
  let man = p.Problem.man in
  (* the σ cubes queued below are tiny but held across allocation in plain
     tables; the whole walk allocates a bounded number of small cubes, so
     run it frozen rather than pinning each one. A store that enters the
     walk nearly full of dead nodes would double inside it, so offer the
     collection first. *)
  ignore (M.collect_at_safe_point man : int);
  M.with_frozen man @@ fun () ->
  if A.num_states x = 0 then false
  else begin
    (* quantify the bank's outputs and any observed inputs to obtain the
       successor's u-part *)
    let v_cube =
      O.cube_of_vars man (p.Problem.v_vars @ p.Problem.observed_i)
    in
    let u_to_v = List.combine p.Problem.u_vars p.Problem.v_vars in
    let init_sigma =
      O.cube_of_literals man
        (List.map2 (fun v b -> (v, b)) p.Problem.v_vars sp.Split.x_init)
    in
    let seen = Hashtbl.create 64 in
    let queue = Queue.create () in
    let push pair =
      if not (Hashtbl.mem seen pair) then begin
        Hashtbl.replace seen pair ();
        Queue.add pair queue
      end
    in
    push (x.A.initial, init_sigma);
    let ok = ref true in
    while !ok && not (Queue.is_empty queue) do
      tick ();
      if !Obs.on then Obs.Counter.bump c_pairs;
      let xs, sigma = Queue.pop queue in
      (* Every latch-bank move (v ∈ σ, any u) must be covered by X. *)
      let defined = A.defined_guard x xs in
      if O.bdiff man sigma defined <> M.zero then ok := false
      else
        List.iter
          (fun (g, xs') ->
            let move = O.band man sigma g in
            if move <> M.zero then begin
              (* successor latch-bank states: the u-part of the move *)
              let u_part = O.exists man v_cube move in
              let sigma' = O.rename man u_part u_to_v in
              push (xs', sigma')
            end)
          x.A.edges.(xs)
    done;
    !ok
  end

(* [states] (over state variables and v) holds a state whose outputs differ
   for some input: [states → C_j] fails for some conformance part. No
   quantifier is needed, since [states] does not mention the inputs and
   quantification does not change emptiness, and no product is built:
   [Manager.leq] creates no node. *)
let non_conforming man conformance states =
  List.exists (fun c -> not (M.leq man states c)) conformance

(* Forward reachability from [init] under [image]: [false] as soon as a
   frontier is [bad], [true] at the fixpoint. The reached set and the
   frontier are protected and rotated, so superseded iterates become
   collectable immediately. Each image starts at a safe point: a store
   that fills up with dead iterates is collected there instead of growing,
   and its computed cache (sized to the entry count) with it. *)
let reach_conforming man ~tick ~init ~image ~bad =
  let protect_state id = if not (M.is_const id) then M.protect man id in
  let release_state id = if not (M.is_const id) then M.release man id in
  let reached = ref init and frontier = ref init in
  protect_state !reached;
  protect_state !frontier;
  Fun.protect
    ~finally:(fun () ->
      release_state !reached;
      release_state !frontier)
  @@ fun () ->
  let rec loop () =
    tick ();
    if !Obs.on then Obs.Counter.bump c_frontier;
    if !frontier = M.zero then true
    else if bad !frontier then false
    else begin
      ignore (M.collect_at_safe_point man : int);
      let img = image !frontier in
      M.stack_push man img;
      let fresh = O.bdiff man img !reached in
      M.stack_push man fresh;
      let reached' = O.bor man !reached fresh in
      M.stack_drop man 2;
      protect_state reached';
      protect_state fresh;
      release_state !reached;
      release_state !frontier;
      reached := reached';
      frontier := fresh;
      loop ()
    end
  in
  loop ()

let composition_with_machine ?runtime (p : Problem.t) (machine : Machine.t) =
  enter_verify runtime;
  let tick = Runtime.ticker runtime in
  let man = p.Problem.man in
  let f = p.Problem.f_sym and s = p.Problem.s_sym in
  let module NS = Network.Symbolic in
  M.with_roots man @@ fun rs ->
  let pin id = ignore (M.Roots.add rs id : int) in
  (* synthesize the machine and give it fresh interleaved state variables *)
  let xnet = Machine.to_netlist machine in
  let pairs =
    List.map
      (fun id ->
        let name = Network.Netlist.net_name xnet id in
        let cs = M.new_var ~name:("X." ^ name) man in
        let ns = M.new_var ~name:("X." ^ name ^ "'") man in
        (cs, ns))
      xnet.Network.Netlist.latches
  in
  let x_sym =
    NS.build man
      ~input_vars:machine.Machine.u_vars
      ~state_vars:(List.map fst pairs)
      ~next_state_vars:(List.map snd pairs)
      xnet
  in
  (* the prologue chains part-list builders whose results live in plain
     lists: build frozen, then pin what the fixpoint keeps *)
  let parts, v_defined, conformance, init =
    M.with_frozen man @@ fun () ->
    (* the machine's outputs are named after the v variables *)
    let v_definitions =
      List.map2
        (fun vvar vname ->
          O.bxnor man (O.var_bdd man vvar) (NS.output_fn x_sym vname))
        p.Problem.v_vars p.Problem.v_names
    in
    let x_transitions =
      List.map
        (fun (nsv, fn) -> O.bxnor man (O.var_bdd man nsv) fn)
        (NS.transition_parts x_sym)
    in
    let parts =
      Problem.transition_parts p @ Problem.u_relation_parts p @ v_definitions
      @ x_transitions
    in
    let init =
      O.conj man [ f.NS.init_cube; s.NS.init_cube; x_sym.NS.init_cube ]
    in
    let v_defined = O.conj man v_definitions in
    (parts, v_defined, Problem.conformance_parts p, init)
  in
  pin v_defined;
  List.iter pin conformance;
  pin init;
  let state_vars = Problem.state_vars p @ x_sym.NS.state_vars in
  let quantify =
    p.Problem.i_vars @ p.Problem.u_vars @ p.Problem.v_vars @ state_vars
  in
  let rename_pairs = Problem.ns_to_cs p @ NS.ns_to_cs x_sym in
  (* no [Runtime.tick_image]: the fixpoint images count under
     [image.calls] but stay out of the fault-injection path *)
  let image =
    let plan =
      Img.Image.plan Img.Image.default man ~roots:rs parts
        ~care_support:state_vars ~quantify
    in
    fun frontier ->
      Img.Image.forward_image plan man ~ns_to_cs:rename_pairs ~care:frontier
  in
  (* a composed state is bad when for some input an output of F (driven
     by the machine's v) differs from S's: the frontier, with the v the
     machine drives, is not inside some conformance part (see
     [non_conforming]); a check, not an image, so it stays out of
     [image.calls] *)
  let bad frontier =
    non_conforming man conformance (O.band man frontier v_defined)
  in
  reach_conforming man ~tick ~init ~image ~bad

let composition_equals_spec ?runtime (p : Problem.t) (sp : Split.t) =
  enter_verify runtime;
  let tick = Runtime.ticker runtime in
  let man = p.Problem.man in
  let f = p.Problem.f_sym and s = p.Problem.s_sym in
  let module NS = Network.Symbolic in
  M.with_roots man @@ fun rs ->
  let pin id = ignore (M.Roots.add rs id : int) in
  let parts, init, conformance =
    M.with_frozen man @@ fun () ->
    let parts =
      Problem.transition_parts p @ Problem.u_relation_parts p
    in
    let init =
      O.conj man
        [ f.NS.init_cube;
          s.NS.init_cube;
          O.cube_of_literals man
            (List.map2 (fun v b -> (v, b)) p.Problem.v_vars sp.Split.x_init) ]
    in
    (parts, init, Problem.conformance_parts p)
  in
  pin init;
  List.iter pin conformance;
  let rename_pairs =
    Problem.ns_to_cs p @ List.combine p.Problem.u_vars p.Problem.v_vars
  in
  let image =
    let plan =
      Img.Image.plan Img.Image.default man ~roots:rs parts
        ~care_support:(Problem.state_vars p @ p.Problem.v_vars)
        ~quantify:(p.Problem.i_vars @ p.Problem.v_vars @ Problem.state_vars p)
    in
    fun frontier ->
      Img.Image.forward_image plan man ~ns_to_cs:rename_pairs ~care:frontier
  in
  (* ∃ reachable composed state, ∃ input: outputs of F×X_P and S differ *)
  reach_conforming man ~tick ~init ~image
    ~bad:(non_conforming man conformance)
