module M = Manager

(* GC discipline for every recursive operation below: the caller keeps the
   operands alive (pinned directly or reachable from a pinned root), and
   the operation pins each already-computed intermediate on the manager's
   operand stack before making further recursive calls, so a collection
   triggered by an inner [mk] can never sweep a partial result held only
   in an OCaml local. [mk] pins its own two arguments, so results that
   flow straight into an enclosing [mk] need no extra pin. *)

let var_bdd m v = M.mk m v M.zero M.one
let nvar_bdd m v = M.mk m v M.one M.zero

let rec bnot m f =
  if f = M.zero then M.one
  else if f = M.one then M.zero
  else
    match M.cache_find m M.Op.bnot f 0 0 with
    | Some r -> r
    | None ->
      let lo = bnot m (M.low m f) in
      M.stack_push m lo;
      let hi = bnot m (M.high m f) in
      M.stack_drop m 1;
      let r = M.mk m (M.var m f) lo hi in
      M.cache_store m M.Op.bnot f 0 0 r;
      r

(* Cofactors of [f] w.r.t. the variable [v], assuming v <= var f. *)
let cofactors m f v =
  if M.var m f = v then (M.low m f, M.high m f) else (f, f)

let rec ite m f g h =
  if f = M.one then g
  else if f = M.zero then h
  else if g = h then g
  else if g = M.one && h = M.zero then f
  else
    match M.cache_find m M.Op.ite f g h with
    | Some r -> r
    | None ->
      let v = min (M.var m f) (min (M.var m g) (M.var m h)) in
      let f0, f1 = cofactors m f v in
      let g0, g1 = cofactors m g v in
      let h0, h1 = cofactors m h v in
      let lo = ite m f0 g0 h0 in
      M.stack_push m lo;
      let hi = ite m f1 g1 h1 in
      M.stack_drop m 1;
      let r = M.mk m v lo hi in
      M.cache_store m M.Op.ite f g h r;
      r

let band m f g = ite m f g M.zero
let bor m f g = ite m f M.one g

let bxor m f g =
  let ng = bnot m g in
  M.stack_push m ng;
  let r = ite m f ng g in
  M.stack_drop m 1;
  r

let bxnor m f g =
  let ng = bnot m g in
  M.stack_push m ng;
  let r = ite m f g ng in
  M.stack_drop m 1;
  r


let bdiff m f g =
  let ng = bnot m g in
  M.stack_push m ng;
  let r = ite m f ng M.zero in
  M.stack_drop m 1;
  r

(* Balanced reduction keeps intermediate BDDs small on long lists; each
   round's results are pinned until the fold completes. *)
let balanced_fold op neutral m fs =
  let pins = ref 0 in
  let rec round = function
    | [] -> []
    | [ f ] -> [ f ]
    | f :: g :: rest ->
      let r = op m f g in
      M.stack_push m r;
      incr pins;
      r :: round rest
  in
  let rec go = function [ f ] -> f | fs -> go (round fs) in
  match fs with
  | [] -> neutral
  | fs ->
    let r = go fs in
    M.stack_drop m !pins;
    r

let conj m fs = balanced_fold band M.one m fs
let disj m fs = balanced_fold bor M.zero m fs

let cube_of_vars m vars =
  let sorted = List.sort_uniq compare vars in
  List.fold_right (fun v acc -> M.mk m v M.zero acc) sorted M.one

let cube_of_literals m lits =
  let sorted =
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) lits
  in
  List.fold_right
    (fun (v, pos) acc ->
      if pos then M.mk m v M.zero acc else M.mk m v acc M.zero)
    sorted M.one

let rec exists m cube f =
  if M.is_const f || cube = M.one then f
  else begin
    (* Skip quantified variables above the top variable of [f]. *)
    let rec advance cube =
      if cube <> M.one && M.var m cube < M.var m f then
        advance (M.high m cube)
      else cube
    in
    let cube = advance cube in
    if cube = M.one then f
    else
      match M.cache_find m M.Op.exists f cube 0 with
      | Some r -> r
      | None ->
        let v = M.var m f in
        let cv = M.var m cube in
        let r =
          if cv = v then begin
            let cube' = M.high m cube in
            let lo = exists m cube' (M.low m f) in
            if lo = M.one then M.one
            else begin
              M.stack_push m lo;
              let hi = exists m cube' (M.high m f) in
              M.stack_push m hi;
              let r = bor m lo hi in
              M.stack_drop m 2;
              r
            end
          end
          else begin
            let lo = exists m cube (M.low m f) in
            M.stack_push m lo;
            let hi = exists m cube (M.high m f) in
            M.stack_drop m 1;
            M.mk m v lo hi
          end
        in
        M.cache_store m M.Op.exists f cube 0 r;
        r
  end

let forall m cube f =
  let nf = bnot m f in
  M.stack_push m nf;
  let e = exists m cube nf in
  M.stack_push m e;
  let r = bnot m e in
  M.stack_drop m 2;
  r

let rec and_exists m cube f g =
  if f = M.zero || g = M.zero then M.zero
  else if f = M.one && g = M.one then M.one
  else if f = M.one then exists m cube g
  else if g = M.one then exists m cube f
  else if f = g then exists m cube f
  else if cube = M.one then band m f g
  else begin
    let top = min (M.var m f) (M.var m g) in
    let rec advance cube =
      if cube <> M.one && M.var m cube < top then advance (M.high m cube)
      else cube
    in
    let cube = advance cube in
    if cube = M.one then band m f g
    else
      (* Normalize operand order: ∧ commutes, so cache both orders once. *)
      let f, g = if f <= g then (f, g) else (g, f) in
      match M.cache_find m M.Op.and_exists f g cube with
      | Some r -> r
      | None ->
        let f0, f1 = cofactors m f top in
        let g0, g1 = cofactors m g top in
        let r =
          if M.var m cube = top then begin
            let cube' = M.high m cube in
            let lo = and_exists m cube' f0 g0 in
            if lo = M.one then M.one
            else begin
              M.stack_push m lo;
              let hi = and_exists m cube' f1 g1 in
              M.stack_push m hi;
              let r = bor m lo hi in
              M.stack_drop m 2;
              r
            end
          end
          else begin
            let lo = and_exists m cube f0 g0 in
            M.stack_push m lo;
            let hi = and_exists m cube f1 g1 in
            M.stack_drop m 1;
            M.mk m top lo hi
          end
        in
        M.cache_store m M.Op.and_exists f g cube r;
        r
  end

let cofactor m f v b =
  let lit = if b then var_bdd m v else nvar_bdd m v in
  (* ∃v. f ∧ lit computed directly: walk to v and take the branch. *)
  let rec walk f =
    if M.is_const f then f
    else
      let fv = M.var m f in
      if fv > v then f
      else if fv = v then if b then M.high m f else M.low m f
      else
        match M.cache_find m M.Op.constrain f lit 0 with
        | Some r -> r
        | None ->
          let lo = walk (M.low m f) in
          M.stack_push m lo;
          let hi = walk (M.high m f) in
          M.stack_drop m 1;
          let r = M.mk m fv lo hi in
          M.cache_store m M.Op.constrain f lit 0 r;
          r
  in
  walk f

let rec cofactor_cube m f cube =
  if cube = M.one || M.is_const f then f
  else begin
    let cv = M.var m cube in
    let next_cube, branch_high =
      if M.high m cube = M.zero then (M.low m cube, false)
      else (M.high m cube, true)
    in
    let fv = M.var m f in
    if cv < fv then cofactor_cube m f next_cube
    else if cv = fv then
      cofactor_cube m (if branch_high then M.high m f else M.low m f) next_cube
    else
      match M.cache_find m M.Op.constrain f cube 1 with
      | Some r -> r
      | None ->
        let lo = cofactor_cube m (M.low m f) cube in
        M.stack_push m lo;
        let hi = cofactor_cube m (M.high m f) cube in
        M.stack_drop m 1;
        let r = M.mk m fv lo hi in
        M.cache_store m M.Op.constrain f cube 1 r;
        r
  end

let rec compose m f v g =
  if M.is_const f || M.var m f > v then f
  else if M.var m f = v then ite m g (M.high m f) (M.low m f)
  else
    match M.cache_find m M.Op.compose f g v with
    | Some r -> r
    | None ->
      let lo = compose m (M.low m f) v g in
      M.stack_push m lo;
      let hi = compose m (M.high m f) v g in
      M.stack_push m hi;
      (* [g] may mention variables above [var f], so rebuild with ite. *)
      let vb = var_bdd m (M.var m f) in
      M.stack_push m vb;
      let r = ite m vb hi lo in
      M.stack_drop m 3;
      M.cache_store m M.Op.compose f g v r;
      r

(* the private memo holds intermediate ids the collector cannot see, so
   the whole traversal runs frozen (allocation grows the store instead) *)
let subst m f lookup =
  M.with_frozen m @@ fun () ->
  let memo = Hashtbl.create 64 in
  let rec go f =
    if M.is_const f then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let lo = go (M.low m f) in
        let hi = go (M.high m f) in
        let v = M.var m f in
        let guard =
          match lookup v with Some g -> g | None -> var_bdd m v
        in
        let r = ite m guard hi lo in
        Hashtbl.add memo f r;
        r
  in
  go f

let support m f =
  match Hashtbl.find_opt (M.support_memo m) f with
  | Some vars -> vars
  | None ->
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
    let result =
      List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])
    in
    Hashtbl.replace (M.support_memo m) f result;
    result

let support_union m fs =
  List.sort_uniq compare (List.concat_map (support m) fs)

let rename m f pairs =
  M.with_frozen m @@ fun () ->
  let map = Hashtbl.create 16 in
  List.iter (fun (a, b) -> Hashtbl.replace map a b) pairs;
  let image v = match Hashtbl.find_opt map v with Some b -> b | None -> v in
  let supp = support m f in
  let images = List.map image supp in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | [ _ ] | [] -> true
  in
  if monotone images then begin
    (* Order-preserving on the support: direct O(|f|) rebuild. *)
    let memo = Hashtbl.create 64 in
    let rec go f =
      if M.is_const f then f
      else
        match Hashtbl.find_opt memo f with
        | Some r -> r
        | None ->
          let r =
            M.mk m (image (M.var m f)) (go (M.low m f)) (go (M.high m f))
          in
          Hashtbl.add memo f r;
          r
    in
    go f
  end
  else
    subst m f (fun v ->
        match Hashtbl.find_opt map v with
        | Some b -> Some (var_bdd m b)
        | None -> None)

let size_shared m fs =
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

let size m f = size_shared m [ f ]

let sat_count m f nvars =
  let memo = Hashtbl.create 64 in
  (* fraction of the full space on which f is true *)
  let rec frac f =
    if f = M.zero then 0.0
    else if f = M.one then 1.0
    else
      match Hashtbl.find_opt memo f with
      | Some x -> x
      | None ->
        let x = 0.5 *. (frac (M.low m f) +. frac (M.high m f)) in
        Hashtbl.add memo f x;
        x
  in
  frac f *. (2.0 ** float_of_int nvars)

let eval m f assign =
  let rec go f =
    if f = M.zero then false
    else if f = M.one then true
    else if assign (M.var m f) then go (M.high m f)
    else go (M.low m f)
  in
  go f

let pick_minterm m f vars =
  if f = M.zero then None
  else begin
    (* Walk one satisfying path, then default unconstrained vars to false. *)
    let path = Hashtbl.create 16 in
    let rec go f =
      if not (M.is_const f) then
        if M.low m f = M.zero then begin
          Hashtbl.replace path (M.var m f) true;
          go (M.high m f)
        end
        else begin
          Hashtbl.replace path (M.var m f) false;
          go (M.low m f)
        end
    in
    go f;
    Some
      (List.map
         (fun v ->
           (v, match Hashtbl.find_opt path v with Some b -> b | None -> false))
         vars)
  end
