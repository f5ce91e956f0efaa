module M = Bdd.Manager
module O = Bdd.Ops
module N = Network.Netlist
module S = Network.Symbolic

type result = Equivalent | Different of bool array list

let interface_names (net : N.t) =
  ( List.map (fun id -> N.net_name net id) net.N.inputs,
    List.map fst net.N.outputs )

(* Build both networks over one manager with shared input variables; state
   variables are interleaved per network (each network's latches have no
   counterpart in the other, so pairing is not meaningful here). *)
let setup net1 net2 =
  let in1, out1 = interface_names net1 in
  let in2, out2 = interface_names net2 in
  if List.sort compare in1 <> List.sort compare in2 then
    invalid_arg "Equiv.check: input names differ";
  if List.sort compare out1 <> List.sort compare out2 then
    invalid_arg "Equiv.check: output names differ";
  let man = M.create () in
  let i_vars = List.map (fun n -> M.new_var ~name:n man) in1 in
  let var_of_name = List.combine in1 i_vars in
  let alloc (net : N.t) prefix =
    let pairs =
      List.map
        (fun id ->
          let n = N.net_name net id in
          let cs = M.new_var ~name:(prefix ^ n) man in
          let ns = M.new_var ~name:(prefix ^ n ^ "'") man in
          (cs, ns))
        net.N.latches
    in
    (List.map fst pairs, List.map snd pairs)
  in
  let cs1, ns1 = alloc net1 "A." in
  let cs2, ns2 = alloc net2 "B." in
  let inputs_for (net : N.t) =
    List.map (fun id -> List.assoc (N.net_name net id) var_of_name) net.N.inputs
  in
  let sym1 =
    S.build man ~input_vars:(inputs_for net1) ~state_vars:cs1
      ~next_state_vars:ns1 net1
  in
  let sym2 =
    S.build man ~input_vars:(inputs_for net2) ~state_vars:cs2
      ~next_state_vars:ns2 net2
  in
  (man, i_vars, sym1, sym2)

let check net1 net2 =
  let man, i_vars, sym1, sym2 = setup net1 net2 in
  (* the onion of frontiers and the relation parts live in plain OCaml
     lists for the whole exploration; freeze rather than pin piecemeal —
     equivalence checking is an oracle, not the solver's hot path *)
  M.with_frozen man @@ fun () ->
  M.with_roots man @@ fun rs ->
  let parts = S.transition_parts sym1 @ S.transition_parts sym2 in
  let relation = Partition.of_functions man parts in
  let cs_vars = sym1.S.state_vars @ sym2.S.state_vars in
  let ns_to_cs = S.ns_to_cs sym1 @ S.ns_to_cs sym2 in
  (* output mismatch condition over (i, cs1, cs2), matched by name *)
  let diff =
    O.disj man
      (List.map
         (fun (name, fn1) -> O.bxor man fn1 (List.assoc name sym2.S.output_fns))
         sym1.S.output_fns)
  in
  let i_cube = O.cube_of_vars man i_vars in
  let bad_states = O.exists man i_cube diff in
  let plan =
    Image.plan Image.default man ~roots:rs relation.Partition.parts
      ~care_support:cs_vars ~quantify:(i_vars @ cs_vars)
  in
  let image frontier = Image.forward_image plan man ~ns_to_cs ~care:frontier in
  let init = O.band man sym1.S.init_cube sym2.S.init_cube in
  (* onion of frontiers for counterexample reconstruction *)
  let rec explore reached frontier onion =
    if O.band man frontier bad_states <> M.zero then
      Some (List.rev (frontier :: onion))
    else begin
      let fresh = O.bdiff man (image frontier) reached in
      if fresh = M.zero then None
      else explore (O.bor man reached fresh) fresh (frontier :: onion)
    end
  in
  match explore init init [] with
  | None -> Equivalent
  | Some onion ->
    (* reconstruct: pick a bad state in the last layer, then walk back *)
    let layers = Array.of_list onion in
    let k = Array.length layers - 1 in
    let pick f vars = Option.get (O.pick_minterm man f vars) in
    let state_cube lits = O.cube_of_literals man lits in
    let all_vars_sorted = List.sort compare cs_vars in
    let target = ref (state_cube (pick (O.band man layers.(k) bad_states)
                                    all_vars_sorted)) in
    (* the final differing input at the bad state *)
    let last_input_lits =
      pick (O.cofactor_cube man diff !target) (List.sort compare i_vars)
    in
    let input_vector lits =
      Array.of_list (List.map (fun v -> List.assoc v lits) i_vars)
    in
    let trace = ref [ input_vector last_input_lits ] in
    (* backward: find (state in layer j-1, input) stepping onto target *)
    for j = k downto 1 do
      (* condition on (i, cs): every next-state function matches the target
         state's bits *)
      let target_lits =
        pick !target all_vars_sorted
      in
      let step_to_target =
        O.conj man
          (List.map
             (fun (nsv, fn) ->
               (* which cs bit does this ns variable encode? *)
               let cs_bit = List.assoc nsv ns_to_cs in
               let value = List.assoc cs_bit target_lits in
               if value then fn else O.bnot man fn)
             parts)
      in
      let pred =
        O.band man step_to_target layers.(j - 1)
      in
      let lits = pick pred (List.sort compare (i_vars @ cs_vars)) in
      let input_lits = List.filter (fun (v, _) -> List.mem v i_vars) lits in
      let state_lits = List.filter (fun (v, _) -> List.mem v cs_vars) lits in
      trace := input_vector input_lits :: !trace;
      target := state_cube state_lits
    done;
    Different !trace

let random_search ?(rounds = 2000) ?(seed = 0) (net1 : N.t) (net2 : N.t) =
  let in1, _ = interface_names net1 in
  let rng = Random.State.make [| seed |] in
  let ni = List.length in1 in
  (* inputs for net2 permuted by name *)
  let perm =
    List.map
      (fun id ->
        let n = N.net_name net2 id in
        let rec idx k = function
          | [] -> invalid_arg "Equiv.random_search: input names differ"
          | m :: rest -> if m = n then k else idx (k + 1) rest
        in
        idx 0 in1)
      net2.N.inputs
  in
  let out_perm =
    List.map
      (fun (n, _) ->
        let rec idx k = function
          | [] -> invalid_arg "Equiv.random_search: output names differ"
          | (m, _) :: rest -> if m = n then k else idx (k + 1) rest
        in
        idx 0 net1.N.outputs)
      net2.N.outputs
  in
  let episode () =
    let st1 = ref (N.initial_state net1) in
    let st2 = ref (N.initial_state net2) in
    let trace = ref [] in
    let len = 1 + Random.State.int rng 20 in
    let rec step k =
      if k = len then None
      else begin
        let inputs = Array.init ni (fun _ -> Random.State.bool rng) in
        trace := inputs :: !trace;
        let o1, s1 = N.step net1 !st1 inputs in
        let o2, s2 =
          N.step net2 !st2
            (Array.of_list (List.map (fun j -> inputs.(j)) perm))
        in
        let mismatch =
          List.exists2
            (fun j (o2v : bool) -> o1.(j) <> o2v)
            out_perm (Array.to_list o2)
        in
        if mismatch then Some (List.rev !trace)
        else begin
          st1 := s1;
          st2 := s2;
          step (k + 1)
        end
      end
    in
    step 0
  in
  let rec go n = if n = 0 then None else
      match episode () with Some t -> Some t | None -> go (n - 1)
  in
  go (max 1 (rounds / 10))
