module M = Bdd.Manager
module O = Bdd.Ops
module S = Network.Symbolic

(* one image plan per fixpoint, over the unclustered transition parts *)
let plan strategy (sym : S.t) rs =
  let parts = Partition.of_functions sym.S.man (S.transition_parts sym) in
  Image.plan strategy sym.S.man ~roots:rs parts.Partition.parts
    ~care_support:sym.S.state_vars
    ~quantify:(sym.S.input_vars @ sym.S.state_vars)

let step (sym : S.t) plan care =
  Image.forward_image plan sym.S.man ~ns_to_cs:(S.ns_to_cs sym) ~care

(* Fixpoints protect the loop-carried set and re-pin it at each step, so
   the previous iterate becomes collectable the moment it is superseded. *)
let reachable ?(strategy = Image.default) (sym : S.t) =
  let man = sym.S.man in
  M.with_roots man @@ fun rs ->
  let plan = plan strategy sym rs in
  let r = ref sym.S.init_cube in
  M.protect man !r;
  Fun.protect ~finally:(fun () -> M.release man !r) @@ fun () ->
  let continue = ref true in
  while !continue do
    let img = step sym plan !r in
    M.stack_push man img;
    let r' = O.bor man !r img in
    M.stack_drop man 1;
    if r' = !r then continue := false
    else begin
      M.protect man r';
      M.release man !r;
      r := r'
    end
  done;
  !r

let frontier_reachable (sym : S.t) =
  let man = sym.S.man in
  M.with_roots man @@ fun rs ->
  let plan = plan Image.default sym rs in
  let r = ref sym.S.init_cube and frontier = ref sym.S.init_cube in
  let iters = ref 0 in
  M.protect man !r;
  M.protect man !frontier;
  Fun.protect
    ~finally:(fun () ->
      M.release man !r;
      M.release man !frontier)
  @@ fun () ->
  while !frontier <> M.zero do
    let img = step sym plan !frontier in
    M.stack_push man img;
    let fresh = O.bdiff man img !r in
    M.stack_push man fresh;
    let r' = O.bor man !r fresh in
    M.stack_drop man 2;
    M.protect man r';
    M.release man !r;
    r := r';
    M.protect man fresh;
    M.release man !frontier;
    frontier := fresh;
    incr iters
  done;
  (!r, !iters)

let count_states (sym : S.t) set =
  O.sat_count sym.man set (List.length sym.S.state_vars)
