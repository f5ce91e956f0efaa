type strategy = Monolithic | Partitioned of Quantify.order

let default = Partitioned Quantify.Greedy

let c_calls = Obs.Counter.make "image.calls"

let count () = if !Obs.on then Obs.Counter.bump c_calls

(* the only dispatch on the image strategy in the code base *)
let image strategy m rels ~quantify =
  count ();
  match strategy with
  | Monolithic -> Quantify.monolithic_and_exists m rels ~quantify
  | Partitioned order -> Quantify.and_exists_list m ~order rels ~quantify

let fused_image m ~cube rel care =
  count ();
  Bdd.Ops.and_exists m cube rel care

let forward_image strategy (p : Partition.t) ~inputs ~state_vars ~ns_to_cs
    ~care =
  let m = p.Partition.man in
  let img =
    image strategy m (care :: p.Partition.parts)
      ~quantify:(inputs @ state_vars)
  in
  Bdd.Ops.rename m img ns_to_cs

let preimage strategy (p : Partition.t) ~inputs ~next_state_vars ~cs_to_ns
    ~care =
  let m = p.Partition.man in
  let care_ns = Bdd.Ops.rename m care cs_to_ns in
  image strategy m (care_ns :: p.Partition.parts)
    ~quantify:(inputs @ next_state_vars)
