module M = Bdd.Manager
module O = Bdd.Ops
module S = Network.Symbolic

let transition_partition (sym : S.t) =
  Partition.of_functions sym.man (S.transition_parts sym)

let step strategy sym parts care =
  Image.forward_image strategy parts ~inputs:sym.S.input_vars
    ~state_vars:sym.S.state_vars ~ns_to_cs:(S.ns_to_cs sym) ~care

(* Fixpoints protect the loop-carried set and re-pin it at each step, so
   the previous iterate becomes collectable the moment it is superseded. *)
let reachable ?(strategy = Image.default) (sym : S.t) =
  let man = sym.S.man in
  M.with_roots man @@ fun rs ->
  let parts = transition_partition sym in
  List.iter (fun f -> ignore (M.Roots.add rs f : int)) parts.Partition.parts;
  let r = ref sym.S.init_cube in
  M.protect man !r;
  Fun.protect ~finally:(fun () -> M.release man !r) @@ fun () ->
  let continue = ref true in
  while !continue do
    let img = step strategy sym parts !r in
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
  let parts = transition_partition sym in
  List.iter (fun f -> ignore (M.Roots.add rs f : int)) parts.Partition.parts;
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
    let img = step Image.default sym parts !frontier in
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
