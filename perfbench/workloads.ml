(* The benchmark's fixed instances, its four workloads, and their set-up.

   Every instance is generated with [Circuits], written as a BLIF file and
   parsed back with [Network.Blif.parse_file], so each solve starts from the
   netlist [lesolve solve FILE] would see. The instances are fixed; the
   workload seed only permutes the order in which they are solved. *)

type flow = Partitioned | Monolithic

type instance = {
  id : string;  (** unique within a workload *)
  circuit : string;  (** netlist and reference-CSF stem *)
  flow : flow;
  node_limit : int;
      (** live-node budget; [default_node_limit] unless the workload is
          about tight budgets *)
}

(* the budgets [lesolve solve] applies when none is given *)
let default_node_limit = 20_000_000
let default_time_limit = 300.0

let part circuit =
  { id = circuit; circuit; flow = Partitioned; node_limit = default_node_limit }

let mono circuit =
  { id = circuit ^ "-mono"; circuit; flow = Monolithic;
    node_limit = default_node_limit }

let tight circuit node_limit =
  { id = Printf.sprintf "%s@%d" circuit node_limit; circuit;
    flow = Partitioned; node_limit }

let workloads =
  [ ("few-big-images", [ part "t526"; part "rl7" ]);
    ( "many-small-images",
      List.map part [ "t444"; "t208"; "t298"; "t349"; "t510" ] );
    ("monolithic", List.map mono [ "t208"; "t298"; "t349" ]);
    ( "tight-budget",
      [ tight "t444" 60_000; tight "t526" 200_000; tight "t349" 10_000;
        tight "t298" 8_000 ] ) ]

let names = List.map fst workloads

let find name = List.assoc_opt name workloads

(* A first-try solve is one whose budget is the CLI default: it never
   descends the ladder, so the traced run can replay its steps one by one. *)
let first_try i = i.node_limit = default_node_limit

let method_of i =
  match i.flow with
  | Partitioned -> Equation.Solve.default_partitioned
  | Monolithic -> Equation.Solve.Monolithic

(* the random-logic instance of [few-big-images]: 107 subset states, a few
   of them with large images *)
let rl7 () =
  Circuits.Generators.random_logic ~seed:7 ~inputs:6 ~outputs:8 ~latches:12
    ~levels:5 ()

let circuits_of instances =
  List.sort_uniq compare (List.map (fun i -> i.circuit) instances)

type circuit = {
  name : string;
  net : Network.Netlist.t;  (** as parsed back from its BLIF file *)
  x_latches : string list;
  parse_s : float;  (** wall seconds of [Network.Blif.parse_file] *)
}

(* Generate, write and parse back every circuit a workload uses. *)
let setup ~dir names =
  let rows = lazy (Circuits.Suite.table1 ()) in
  List.map
    (fun name ->
      let net, x_latches =
        if name = "rl7" then
          (rl7 (), List.init 6 (fun j -> Printf.sprintf "x%d" (6 + j)))
        else
          let r =
            List.find
              (fun (r : Circuits.Suite.row) -> r.name = name)
              (Lazy.force rows)
          in
          (r.net, r.x_latches)
      in
      let path = Filename.concat dir (name ^ ".blif") in
      Network.Blif.write_file path net;
      let t0 = Unix.gettimeofday () in
      let net = Network.Blif.parse_file path in
      { name; net; x_latches; parse_s = Unix.gettimeofday () -. t0 })
    names

let all_circuits = circuits_of (List.concat_map snd workloads)
