type net = int

type element =
  | Input
  | Node of { fanins : net array; fn : Expr.t }
  | Latch of { mutable input : net; init : bool }

type t = {
  name : string;
  drivers : element array;
  net_names : string array;
  inputs : net list;
  outputs : (string * net) list;
  latches : net list;
}

type builder = {
  bname : string;
  mutable elems : element list;  (* reversed *)
  mutable bnames : string list;  (* reversed *)
  mutable count : int;
  mutable binputs : net list;    (* reversed *)
  mutable boutputs : (string * net) list;  (* reversed *)
  mutable blatches : net list;   (* reversed *)
}

let create name =
  { bname = name; elems = []; bnames = []; count = 0; binputs = [];
    boutputs = []; blatches = [] }

let fresh b elem name =
  let id = b.count in
  b.count <- id + 1;
  b.elems <- elem :: b.elems;
  b.bnames <- name :: b.bnames;
  id

let add_input b name =
  let id = fresh b Input name in
  b.binputs <- id :: b.binputs;
  id

let add_node b ?name fn fanins =
  let name = match name with Some s -> s | None -> Printf.sprintf "n%d" b.count in
  fresh b (Node { fanins; fn }) name

let add_latch b ?name ~init () =
  let name = match name with Some s -> s | None -> Printf.sprintf "l%d" b.count in
  let id = fresh b (Latch { input = -1; init }) name in
  b.blatches <- id :: b.blatches;
  id

let set_latch_input b latch data =
  match List.nth (List.rev b.elems) latch with
  | Latch l -> l.input <- data
  | Input | Node _ ->
    invalid_arg "Netlist.set_latch_input: not a latch net"

let add_output b name net = b.boutputs <- (name, net) :: b.boutputs

let const_net b value =
  add_node b ~name:(if value then "const1" else "const0")
    (Expr.Const value) [||]

let freeze b =
  let drivers = Array.of_list (List.rev b.elems) in
  let net_names = Array.of_list (List.rev b.bnames) in
  let n = Array.length drivers in
  (* validation: latch inputs connected and in range, fanins in range *)
  Array.iteri
    (fun id elem ->
      match elem with
      | Input -> ()
      | Latch { input; _ } ->
        if input < 0 || input >= n then
          invalid_arg
            (Printf.sprintf "Netlist.freeze: latch %s disconnected"
               net_names.(id))
      | Node { fanins; _ } ->
        Array.iter
          (fun f ->
            if f < 0 || f >= n then
              invalid_arg "Netlist.freeze: fanin out of range")
          fanins)
    drivers;
  (* acyclicity of the combinational part (latch outputs are sources) *)
  let color = Array.make n 0 in
  let rec visit id =
    match color.(id) with
    | 1 -> invalid_arg "Netlist.freeze: combinational cycle"
    | 2 -> ()
    | _ ->
      (match drivers.(id) with
       | Input | Latch _ -> color.(id) <- 2
       | Node { fanins; _ } ->
         color.(id) <- 1;
         Array.iter visit fanins;
         color.(id) <- 2)
  in
  for id = 0 to n - 1 do visit id done;
  { name = b.bname; drivers; net_names;
    inputs = List.rev b.binputs;
    outputs = List.rev b.boutputs;
    latches = List.rev b.blatches }

let net_name t id = t.net_names.(id)
let num_inputs t = List.length t.inputs
let num_outputs t = List.length t.outputs
let num_latches t = List.length t.latches

let num_nodes t =
  Array.fold_left
    (fun acc e -> match e with Node _ -> acc + 1 | Input | Latch _ -> acc)
    0 t.drivers

let topo_order t =
  let n = Array.length t.drivers in
  let done_ = Array.make n false in
  let order = ref [] in
  let rec visit id =
    if not done_.(id) then begin
      done_.(id) <- true;
      (match t.drivers.(id) with
       | Input | Latch _ -> ()
       | Node { fanins; _ } -> Array.iter visit fanins);
      order := id :: !order
    end
  in
  for id = 0 to n - 1 do visit id done;
  List.rev !order

let latch_init t id =
  match t.drivers.(id) with
  | Latch { init; _ } -> init
  | Input | Node _ -> invalid_arg "Netlist.latch_init: not a latch"

let latch_input t id =
  match t.drivers.(id) with
  | Latch { input; _ } -> input
  | Input | Node _ -> invalid_arg "Netlist.latch_input: not a latch"

type state = bool array

let initial_state t =
  Array.of_list (List.map (latch_init t) t.latches)

(* Evaluate every net once, returning the value array. *)
let eval_all t (st : state) inputs =
  let n = Array.length t.drivers in
  let values = Array.make n false in
  let input_index = Hashtbl.create 16 in
  List.iteri (fun k id -> Hashtbl.replace input_index id k) t.inputs;
  let latch_index = Hashtbl.create 16 in
  List.iteri (fun k id -> Hashtbl.replace latch_index id k) t.latches;
  List.iter
    (fun id ->
      match t.drivers.(id) with
      | Input -> values.(id) <- inputs.(Hashtbl.find input_index id)
      | Latch _ -> values.(id) <- st.(Hashtbl.find latch_index id)
      | Node { fanins; fn } ->
        values.(id) <- Expr.eval (fun k -> values.(fanins.(k))) fn)
    (topo_order t);
  values

let step t st inputs =
  let values = eval_all t st inputs in
  let outputs = Array.of_list (List.map (fun (_, id) -> values.(id)) t.outputs) in
  let next =
    Array.of_list (List.map (fun id -> values.(latch_input t id)) t.latches)
  in
  (outputs, next)

let reachable_states ?(limit = 1 lsl 20) t =
  let ni = num_inputs t in
  if ni > 16 then
    invalid_arg "Netlist.reachable_states: too many inputs to enumerate";
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let init = initial_state t in
  Hashtbl.replace seen init ();
  Queue.add init queue;
  let order = ref [ init ] in
  while not (Queue.is_empty queue) do
    let st = Queue.pop queue in
    for bits = 0 to (1 lsl ni) - 1 do
      let inputs = Array.init ni (fun k -> bits land (1 lsl k) <> 0) in
      let _, st' = step t st inputs in
      if not (Hashtbl.mem seen st') then begin
        if Hashtbl.length seen >= limit then
          invalid_arg "Netlist.reachable_states: limit exceeded";
        Hashtbl.replace seen st' ();
        Queue.add st' queue;
        order := st' :: !order
      end
    done
  done;
  List.rev !order

let pp_stats fmt t =
  Format.fprintf fmt "%s: %d inputs, %d outputs, %d latches, %d nodes"
    t.name (num_inputs t) (num_outputs t) (num_latches t) (num_nodes t)
