module M = Bdd.Manager
module O = Bdd.Ops

type stats = {
  subset_states : int;
  image_computations : int;
  q_clusters : int;
  peak_nodes : int;
}

(* Bench ablation on t298: the sweet spot of the clustering threshold is a
   few hundred nodes (EXPERIMENTS.md). *)
let default_clustering = Img.Partition.Affinity 500

(* sink positions in the oracle's sink table *)
let dcn = 0
and dca = 1

let oracle ?runtime ~strategy ~clustering ~images ~q_clusters (p : Problem.t)
    rs =
  let man = p.Problem.man in
  let pin id = ignore (M.Roots.add rs id : int) in
  let quantified = Problem.hidden_inputs p @ Problem.state_vars p in
  let ns_cube = O.cube_of_vars man (Problem.next_state_vars p) in
  pin ns_cube;
  let clusters parts =
    (Img.Partition.apply (Img.Partition.of_relations man parts) clustering)
      .Img.Partition.parts
  in
  let cluster parts = List.map (M.Roots.add rs) (clusters parts) in
  let urel = cluster (Problem.u_relation_parts p) in
  let trel = cluster (Problem.transition_parts p) in
  (* Q_ζ(u,v): symbols under which some input causes an output of F that
     does not conform to S. The per-output conformance parts are clustered
     like the relations, and each cluster G_g keeps an image of its own:
     Q_ζ = ∨_g ∃i,cs (¬G_g ∧ Urel ∧ ζ), exact because ∃ distributes over ∨.
     [No_clustering] gives the paper's one image per output. A cluster that
     always conforms contributes nothing and gets no image. *)
  let non_conformance =
    M.with_frozen man @@ fun () ->
    List.filter_map
      (fun g ->
        let nc = O.bnot man g in
        if nc = M.zero then None else Some (M.Roots.add rs nc))
      (clusters (Problem.conformance_parts p))
  in
  (* every image is planned once per solve over its fixed parts; each
     subset state only conjoins its ζ with the first planned part and runs
     the and-exists chain *)
  let plan parts =
    Img.Image.plan strategy man ~roots:rs parts
      ~care_support:(Problem.state_vars p) ~quantify:quantified
  in
  let q_plans = List.map (fun nc -> plan (nc :: urel)) non_conformance in
  let sr_plan = plan (urel @ trel) in
  q_clusters := List.length q_plans;
  (* one runtime tick per image of the construction: [q] ticks once however
     many clusters it unites *)
  let tick () = Option.iter Runtime.tick_image runtime in
  let q_image zeta =
    tick ();
    images := !images + List.length q_plans;
    Img.Image.apply_union man q_plans zeta
  in
  let sr_image zeta =
    tick ();
    incr images;
    Img.Image.apply sr_plan zeta
  in
  let successors ~split zeta =
    (* per-iteration intermediates ride the operation stack: each one is an
       operand of a later call in this iteration, and any allocation in
       between may trigger a collection *)
    let q = q_image zeta in
    M.stack_push man q;
    let sr = sr_image zeta in
    M.stack_push man sr;
    let p_rel = O.bdiff man sr q in
    M.stack_drop man 1;
    M.stack_push man p_rel;
    let domain = O.exists man ns_cube p_rel in
    M.stack_push man domain;
    let arcs = split p_rel in
    let arcs = if q <> M.zero then arcs @ [ (q, Engine.Sink dcn) ] else arcs in
    let covered = O.bor man domain q in
    M.stack_push man covered;
    let to_dca = O.bnot man covered in
    M.stack_drop man 4;
    if to_dca <> M.zero then arcs @ [ (to_dca, Engine.Sink dca) ] else arcs
  in
  { Engine.start = Problem.initial_cube p;
    ns_cube;
    rename = Problem.ns_to_cs p;
    sinks =
      [ { Engine.sink_name = "DCN"; sink_accepting = false };
        { Engine.sink_name = "DCA"; sink_accepting = true } ];
    successors;
    is_accepting = (fun _ -> true) }

let solve_arena ?runtime ?(strategy = Img.Image.default)
    ?(clustering = default_clustering) ?on_state (p : Problem.t) =
  let images = ref 0 and q_clusters = ref 0 in
  let arena, subset_states =
    Engine.run ?runtime ?on_state p.Problem.man ~alphabet:(Problem.alphabet p)
      (oracle ?runtime ~strategy ~clustering ~images ~q_clusters p)
  in
  ( arena,
    { subset_states; image_computations = !images; q_clusters = !q_clusters;
      peak_nodes = M.peak_live_nodes p.Problem.man } )

let solve ?runtime ?strategy ?clustering ?on_state p =
  let arena, stats = solve_arena ?runtime ?strategy ?clustering ?on_state p in
  (Engine.to_automaton arena, stats)
