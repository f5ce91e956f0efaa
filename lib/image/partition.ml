module O = Bdd.Ops

type t = { man : Bdd.Manager.t; parts : int list }

(* constructors and clustering hold part lists the collector cannot see,
   so they run frozen; the finished partition's parts are the caller's to
   pin for however long the partition is used *)
let of_functions man pairs =
  Bdd.Manager.with_frozen man @@ fun () ->
  { man;
    parts = List.map (fun (v, fn) -> O.bxnor man (O.var_bdd man v) fn) pairs }

let of_relations man parts = { man; parts }

(* Support-overlap (Jaccard) affinity of two conjuncts. Constant parts have
   empty support; give them affinity 1 so they merge away for free. *)
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

let cluster_affinity t ~threshold =
  if threshold <= 1 then t
  else begin
    Bdd.Manager.with_frozen t.man @@ fun () ->
    let supp p = List.sort_uniq compare (O.support t.man p) in
    let items = ref (List.map (fun p -> (p, supp p)) t.parts) in
    (* pairs whose conjunction exceeded the threshold, by BDD id *)
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
        let pi = fst arr.(i) and pj = fst arr.(j) in
        let candidate = O.band t.man pi pj in
        if O.size t.man candidate <= threshold then begin
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
    { t with parts = List.map fst !items }
  end

type clustering = No_clustering | Affinity of int

let apply t = function
  | No_clustering -> t
  | Affinity threshold -> cluster_affinity t ~threshold

let describe_clustering = function
  | No_clustering -> "unclustered"
  | Affinity threshold -> Printf.sprintf "affinity:%d" threshold

let monolithic t =
  List.iter (Bdd.Manager.stack_push t.man) t.parts;
  let r = O.conj t.man t.parts in
  Bdd.Manager.stack_drop t.man (List.length t.parts);
  r
