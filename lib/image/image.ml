type strategy = Monolithic | Partitioned of Quantify.order

let default = Partitioned Quantify.Greedy

let c_calls = Obs.Counter.make "image.calls"

let count () = if !Obs.on then Obs.Counter.bump c_calls

type plan = Quantify.plan

(* the only dispatch on the image strategy in the code base *)
let plan strategy m ~roots parts ~care_support ~quantify =
  match strategy with
  | Monolithic ->
    (* one part: the product, built once per plan *)
    let product = Bdd.Ops.conj m parts in
    Quantify.plan m ~order:Quantify.Given ~roots [ product ] ~care_support
      ~quantify
  | Partitioned order ->
    Quantify.plan m ~order ~roots parts ~care_support ~quantify

let apply plan care =
  count ();
  Quantify.apply plan care

(* ∃ distributes over ∨, so the union of the images is the image of the
   union: [∨_g ∃q. care ∧ ∧ parts_g] *)
let apply_union m plans care =
  List.fold_left
    (fun acc plan ->
      Bdd.Manager.stack_push m acc;
      let img = apply plan care in
      Bdd.Manager.stack_push m img;
      let acc = Bdd.Ops.bor m acc img in
      Bdd.Manager.stack_drop m 2;
      acc)
    Bdd.Manager.zero plans

let fused_image m ~cube rel care =
  count ();
  Bdd.Ops.and_exists m cube rel care

let forward_image plan m ~ns_to_cs ~care =
  let img = apply plan care in
  Bdd.Manager.stack_push m img;
  let renamed = Bdd.Ops.rename m img ns_to_cs in
  Bdd.Manager.stack_drop m 1;
  renamed

let preimage plan m ~cs_to_ns ~care =
  let care_ns = Bdd.Ops.rename m care cs_to_ns in
  Bdd.Manager.stack_push m care_ns;
  let pre = apply plan care_ns in
  Bdd.Manager.stack_drop m 1;
  pre
