module M = Bdd.Manager
module O = Bdd.Ops

type order = Given | Greedy

let c_conj = Obs.Counter.make "image.conjunctions"
let g_peak_intermediate = Obs.Gauge.make "image.peak_intermediate"

type plan = {
  man : M.t;
  parts : int array;  (* conjunction order *)
  cubes : int array;
      (* [cubes.(k)] is quantified by the step that conjoins [parts.(k)];
         with no parts, [cubes.(0)] is quantified from the care set alone *)
}

(* The static schedule: the conjunction order of the parts and, per step,
   the quantifiable variables whose last mention is that step's part.
   [occ] counts, per quantifiable variable, the unplanned parts that
   mention it. [Greedy] scores each unplanned part by the variables it
   would kill (weight 2) against the variables it would add to the
   accumulator's estimated support, which starts as [care_support] and
   grows by each planned part minus what that step quantifies. *)
let schedule order ~quantifiable ~care_support supports =
  let n = Array.length supports in
  let occ = Hashtbl.create 16 in
  let uses v = Option.value ~default:0 (Hashtbl.find_opt occ v) in
  Array.iter
    (List.iter (fun v ->
         if quantifiable v then Hashtbl.replace occ v (uses v + 1)))
    supports;
  let acc_supp = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace acc_supp v ()) care_support;
  let used = Array.make n false in
  let score k =
    List.fold_left
      (fun s v ->
        let s = if quantifiable v && uses v = 1 then s + 2 else s in
        if Hashtbl.mem acc_supp v then s else s - 1)
      0 supports.(k)
  in
  let pick () =
    let best = ref (-1) and best_score = ref min_int in
    for k = n - 1 downto 0 do
      if not used.(k) then
        match order with
        | Given -> best := k
        | Greedy ->
          let s = score k in
          if s >= !best_score then begin
            best_score := s;
            best := k
          end
    done;
    !best
  in
  List.init n (fun _ ->
      let k = pick () in
      used.(k) <- true;
      List.iter
        (fun v ->
          if quantifiable v then Hashtbl.replace occ v (uses v - 1);
          Hashtbl.replace acc_supp v ())
        supports.(k);
      let dying =
        List.filter (fun v -> quantifiable v && uses v = 0) supports.(k)
      in
      List.iter (Hashtbl.remove acc_supp) dying;
      (k, dying))

let plan m ?(order = Greedy) ~roots rels ~care_support ~quantify =
  let pin id = M.Roots.add roots id in
  let parts = Array.of_list (List.map pin rels) in
  let supports = Array.map (O.support m) parts in
  let qset = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace qset v ()) quantify;
  let quantifiable v = Hashtbl.mem qset v in
  let steps = schedule order ~quantifiable ~care_support supports in
  (* variables no part mentions are quantified at step 0, right where the
     care set is conjoined *)
  let care_only =
    List.filter (fun v -> not (Array.exists (List.mem v) supports)) quantify
  in
  let cubes =
    match steps with
    | [] -> [ care_only ]
    | (_, dying0) :: rest -> (care_only @ dying0) :: List.map snd rest
  in
  { man = m;
    parts = Array.of_list (List.map (fun (k, _) -> parts.(k)) steps);
    cubes =
      Array.of_list (List.map (fun vs -> pin (O.cube_of_vars m vs)) cubes) }

let apply p care =
  let m = p.man in
  let n = Array.length p.parts in
  if n = 0 then O.exists m p.cubes.(0) care
  else begin
    (* the accumulator is re-pinned step by step so each dead intermediate
       becomes collectable as soon as the next one replaces it — that
       rotation is where the GC recovers the image computation's peak *)
    M.stack_push m care;
    let acc = ref care and owned = ref false in
    let finally () =
      M.stack_drop m 1;
      if !owned && not (M.is_const !acc) then M.release m !acc
    in
    Fun.protect ~finally @@ fun () ->
    for k = 0 to n - 1 do
      let acc' = O.and_exists m p.cubes.(k) !acc p.parts.(k) in
      if not (M.is_const acc') then M.protect m acc';
      if !owned && not (M.is_const !acc) then M.release m !acc;
      acc := acc';
      owned := true;
      if !Obs.on then begin
        Obs.Counter.bump c_conj;
        Obs.Gauge.set_max g_peak_intermediate (O.size m acc')
      end
    done;
    !acc
  end

let monolithic_and_exists m rels ~quantify =
  List.iter (M.stack_push m) rels;
  let product = O.conj m rels in
  M.stack_push m product;
  if !Obs.on then begin
    Obs.Counter.add c_conj (max 0 (List.length rels - 1));
    Obs.Gauge.set_max g_peak_intermediate (O.size m product)
  end;
  let cube = O.cube_of_vars m quantify in
  M.stack_push m cube;
  let r = O.exists m cube product in
  M.stack_drop m (List.length rels + 2);
  r
