module M = Manager
module O = Ops

let c_reorders = Obs.Counter.make "bdd.reorders"
let c_migrated = Obs.Counter.make "bdd.reorder.nodes_migrated"

let migrate ~src ~dst ~var_map roots =
  (* the memo maps src ids to unpinned dst ids, so the destination must
     not collect mid-migration; the migrated roots are protected so they
     survive the destination's future collections *)
  M.with_frozen dst @@ fun () ->
  let memo = Hashtbl.create 256 in
  let rec go f =
    if f = M.zero then M.zero
    else if f = M.one then M.one
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let lo = go (M.low src f) in
        let hi = go (M.high src f) in
        let r = O.ite dst (O.var_bdd dst (var_map (M.var src f))) hi lo in
        Hashtbl.add memo f r;
        r
  in
  let roots' = List.map go roots in
  List.iter (M.protect dst) roots';
  if !Obs.on then Obs.Counter.add c_migrated (Hashtbl.length memo);
  roots'

let force_order m ?hyperedges roots =
  let n = M.num_vars m in
  if n = 0 then []
  else begin
    let hyperedges =
      match hyperedges with
      | Some e -> List.filter (fun s -> s <> []) e
      | None ->
        List.filter (fun s -> s <> []) (List.map (O.support m) roots)
    in
    let position = Array.init n float_of_int in
    let iterations = 3 * (1 + (n / 8)) in
    for _ = 1 to iterations do
      (* centre of gravity of every hyperedge *)
      let cogs =
        List.map
          (fun supp ->
            let sum = List.fold_left (fun a v -> a +. position.(v)) 0.0 supp in
            (supp, sum /. float_of_int (List.length supp)))
          hyperedges
      in
      (* new position of a variable: average of the cogs of its edges *)
      let sum = Array.make n 0.0 and cnt = Array.make n 0 in
      List.iter
        (fun (supp, cog) ->
          List.iter
            (fun v ->
              sum.(v) <- sum.(v) +. cog;
              cnt.(v) <- cnt.(v) + 1)
            supp)
        cogs;
      for v = 0 to n - 1 do
        if cnt.(v) > 0 then position.(v) <- sum.(v) /. float_of_int cnt.(v)
      done
    done;
    List.sort
      (fun a b -> compare (position.(a), a) (position.(b), b))
      (List.init n Fun.id)
  end

let manager_with_order src order =
  let dst = M.create () in
  let var_map = Array.make (M.num_vars src) (-1) in
  List.iter
    (fun v ->
      let v' = M.new_var ~name:(M.var_name src v) dst in
      var_map.(v) <- v')
    order;
  (dst, fun v -> var_map.(v))

let reorder m ?hyperedges roots =
  if !Obs.on then begin
    Obs.Counter.bump c_reorders;
    Obs.Trace.point "bdd.reorder"
  end;
  let order = force_order m ?hyperedges roots in
  let dst, var_map = manager_with_order m order in
  let roots' = migrate ~src:m ~dst ~var_map roots in
  (dst, roots', var_map)
