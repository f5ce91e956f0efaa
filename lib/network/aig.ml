type lit = int

let lit_false = 0
let lit_true = 1
let lit_not l = l lxor 1

type t = {
  num_inputs : int;
  num_latches : int;
  ands : (lit * lit) array;
  latch_next : lit array;
  latch_init : bool array;
  outputs : lit array;
  input_names : string array;
  latch_names : string array;
  output_names : string array;
}

type builder = {
  b_inputs : string array;
  b_latches : (string * bool) array;
  mutable b_ands : (lit * lit) list; (* reversed *)
  mutable b_count : int;             (* number of AND gates so far *)
  strash : (lit * lit, lit) Hashtbl.t;
  b_next : lit array;
  mutable b_outputs : (string * lit) list; (* reversed *)
}

let create ~inputs ~latches =
  { b_inputs = Array.of_list inputs;
    b_latches = Array.of_list latches;
    b_ands = [];
    b_count = 0;
    strash = Hashtbl.create 64;
    b_next = Array.make (max 1 (List.length latches)) (-1);
    b_outputs = [] }

let input_lit b k =
  if k < 0 || k >= Array.length b.b_inputs then
    invalid_arg "Aig.input_lit: out of range";
  2 * (1 + k)

let latch_lit b k =
  if k < 0 || k >= Array.length b.b_latches then
    invalid_arg "Aig.latch_lit: out of range";
  2 * (1 + Array.length b.b_inputs + k)

let mk_and b a c =
  if a = lit_false || c = lit_false then lit_false
  else if a = lit_true then c
  else if c = lit_true then a
  else if a = c then a
  else if a = lit_not c then lit_false
  else begin
    let key = if a <= c then (a, c) else (c, a) in
    match Hashtbl.find_opt b.strash key with
    | Some l -> l
    | None ->
      let var = 1 + Array.length b.b_inputs + Array.length b.b_latches
                + b.b_count in
      b.b_count <- b.b_count + 1;
      b.b_ands <- key :: b.b_ands;
      let l = 2 * var in
      Hashtbl.replace b.strash key l;
      l
  end

let mk_or b a c = lit_not (mk_and b (lit_not a) (lit_not c))

let mk_xor b a c =
  mk_or b (mk_and b a (lit_not c)) (mk_and b (lit_not a) c)

let mk_ite b s t e = mk_or b (mk_and b s t) (mk_and b (lit_not s) e)

let set_latch_next b k l = b.b_next.(k) <- l

let add_output b name l = b.b_outputs <- (name, l) :: b.b_outputs

let freeze b =
  Array.iteri
    (fun k l ->
      if k < Array.length b.b_latches && l < 0 then
        invalid_arg "Aig.freeze: latch next-state not set")
    b.b_next;
  let outs = List.rev b.b_outputs in
  { num_inputs = Array.length b.b_inputs;
    num_latches = Array.length b.b_latches;
    ands = Array.of_list (List.rev b.b_ands);
    latch_next = Array.sub b.b_next 0 (Array.length b.b_latches);
    latch_init = Array.map snd b.b_latches;
    outputs = Array.of_list (List.map snd outs);
    input_names = b.b_inputs;
    latch_names = Array.map fst b.b_latches;
    output_names = Array.of_list (List.map fst outs) }

let num_ands t = Array.length t.ands

(* --- conversion --------------------------------------------------------- *)

module N = Netlist
module E = Expr

let of_netlist (net : N.t) =
  let inputs = List.map (fun id -> N.net_name net id) net.N.inputs in
  let latches =
    List.map (fun id -> (N.net_name net id, N.latch_init net id)) net.N.latches
  in
  let b = create ~inputs ~latches in
  let lit_of = Hashtbl.create 64 in
  List.iteri (fun k id -> Hashtbl.replace lit_of id (input_lit b k)) net.N.inputs;
  List.iteri (fun k id -> Hashtbl.replace lit_of id (latch_lit b k)) net.N.latches;
  let rec expr_lit fanins = function
    | E.Var k -> Hashtbl.find lit_of fanins.(k)
    | E.Const true -> lit_true
    | E.Const false -> lit_false
    | E.Not e -> lit_not (expr_lit fanins e)
    | E.And (x, y) -> mk_and b (expr_lit fanins x) (expr_lit fanins y)
    | E.Or (x, y) -> mk_or b (expr_lit fanins x) (expr_lit fanins y)
    | E.Xor (x, y) -> mk_xor b (expr_lit fanins x) (expr_lit fanins y)
    | E.Ite (c, x, y) ->
      mk_ite b (expr_lit fanins c) (expr_lit fanins x) (expr_lit fanins y)
  in
  List.iter
    (fun id ->
      match net.N.drivers.(id) with
      | N.Input | N.Latch _ -> ()
      | N.Node { fanins; fn } ->
        Hashtbl.replace lit_of id (expr_lit fanins fn))
    (N.topo_order net);
  List.iteri
    (fun k id ->
      set_latch_next b k (Hashtbl.find lit_of (N.latch_input net id)))
    net.N.latches;
  List.iter
    (fun (name, id) -> add_output b name (Hashtbl.find lit_of id))
    net.N.outputs;
  freeze b

let to_netlist (t : t) =
  let b = N.create "aig" in
  let nets = Hashtbl.create 64 in
  (* nets.(var) = driving net; polarity handled at use sites *)
  Array.iteri
    (fun k name -> Hashtbl.replace nets (1 + k) (N.add_input b name))
    t.input_names;
  Array.iteri
    (fun k name ->
      Hashtbl.replace nets
        (1 + t.num_inputs + k)
        (N.add_latch b ~name ~init:t.latch_init.(k) ()))
    t.latch_names;
  let base = 1 + t.num_inputs + t.num_latches in
  (* materialize a literal as (net, negated?) folded into a small expr *)
  let const0 = lazy (N.const_net b false) in
  (* a variable no input, latch or earlier gate defines: M may exceed
     I + L + A, and gates may reference later ones *)
  let net_of_var v =
    match Hashtbl.find_opt nets v with
    | Some net -> net
    | None ->
      failwith
        (Printf.sprintf "AIGER: variable %d is used but not defined before use"
           v)
  in
  let expr_of_lit l fanin_slot =
    if l land 1 = 0 then E.Var fanin_slot else E.Not (E.Var fanin_slot)
  in
  Array.iteri
    (fun k (a, c) ->
      let var = base + k in
      if a lsr 1 = 0 || c lsr 1 = 0 then begin
        (* gates with constant fanins are already folded by the builder, but
           a parsed AIGER may contain them *)
        let lit_expr l slot =
          if l = lit_false then E.Const false
          else if l = lit_true then E.Const true
          else expr_of_lit l slot
        in
        let fanins =
          [| (if a lsr 1 = 0 then Lazy.force const0 else net_of_var (a lsr 1));
             (if c lsr 1 = 0 then Lazy.force const0 else net_of_var (c lsr 1))
          |]
        in
        let node =
          N.add_node b
            ~name:(Printf.sprintf "g%d" var)
            (E.And (lit_expr a 0, lit_expr c 1))
            fanins
        in
        Hashtbl.replace nets var node
      end
      else begin
        let node =
          N.add_node b
            ~name:(Printf.sprintf "g%d" var)
            (E.And (expr_of_lit a 0, expr_of_lit c 1))
            [| net_of_var (a lsr 1); net_of_var (c lsr 1) |]
        in
        Hashtbl.replace nets var node
      end)
    t.ands;
  let lit_net l tag =
    if l = lit_false then Lazy.force const0
    else if l = lit_true then
      N.add_node b ~name:(tag ^ "_t") (E.Const true) [||]
    else if l land 1 = 0 then net_of_var (l lsr 1)
    else
      N.add_node b ~name:(tag ^ "_n") (E.Not (E.Var 0))
        [| net_of_var (l lsr 1) |]
  in
  Array.iteri
    (fun k l ->
      N.set_latch_input b
        (net_of_var (1 + t.num_inputs + k))
        (lit_net l (Printf.sprintf "ln%d" k)))
    t.latch_next;
  Array.iteri
    (fun k l ->
      N.add_output b t.output_names.(k) (lit_net l (Printf.sprintf "po%d" k)))
    t.outputs;
  N.freeze b

(* --- simulation ---------------------------------------------------------- *)

let eval (t : t) inputs state =
  let nvars = 1 + t.num_inputs + t.num_latches + Array.length t.ands in
  let values = Array.make nvars false in
  Array.iteri (fun k v -> values.(1 + k) <- v) inputs;
  Array.iteri (fun k v -> values.(1 + t.num_inputs + k) <- v) state;
  let lit_val l =
    let v = values.(l lsr 1) in
    if l land 1 = 1 then not v else v
  in
  Array.iteri
    (fun k (a, c) ->
      values.(1 + t.num_inputs + t.num_latches + k) <- lit_val a && lit_val c)
    t.ands;
  ( Array.map lit_val t.outputs,
    Array.map lit_val t.latch_next )

(* --- AIGER ASCII ---------------------------------------------------------- *)

exception Parse_error of int * string

let to_aag (t : t) =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let m = t.num_inputs + t.num_latches + Array.length t.ands in
  pr "aag %d %d %d %d %d\n" m t.num_inputs t.num_latches
    (Array.length t.outputs)
    (Array.length t.ands);
  for k = 0 to t.num_inputs - 1 do
    pr "%d\n" (2 * (1 + k))
  done;
  Array.iteri
    (fun k next ->
      let cur = 2 * (1 + t.num_inputs + k) in
      if t.latch_init.(k) then pr "%d %d 1\n" cur next
      else pr "%d %d\n" cur next)
    t.latch_next;
  Array.iter (fun l -> pr "%d\n" l) t.outputs;
  Array.iteri
    (fun k (a, c) ->
      let lhs = 2 * (1 + t.num_inputs + t.num_latches + k) in
      (* AIGER requires lhs > rhs0 >= rhs1 *)
      let hi = max a c and lo = min a c in
      pr "%d %d %d\n" lhs hi lo)
    t.ands;
  Array.iteri (fun k n -> pr "i%d %s\n" k n) t.input_names;
  Array.iteri (fun k n -> pr "l%d %s\n" k n) t.latch_names;
  Array.iteri (fun k n -> pr "o%d %s\n" k n) t.output_names;
  pr "c\ngenerated by lesolve\n";
  Buffer.contents buf

let of_aag text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let tokens s =
    String.split_on_char ' ' (String.trim s)
    |> List.filter (fun x -> x <> "")
  in
  let header =
    if Array.length lines = 0 then raise (Parse_error (1, "empty file"))
    else tokens lines.(0)
  in
  (* a non-negative decimal on line [k], or a parse error *)
  let num k s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | Some _ | None -> raise (Parse_error (k, "bad number " ^ s))
  in
  let m, i, l, o, a =
    match header with
    | [ "aag"; m; i; l; o; a ] -> (num 1 m, num 1 i, num 1 l, num 1 o, num 1 a)
    | _ -> raise (Parse_error (1, "bad aag header"))
  in
  if m < i + l + a then raise (Parse_error (1, "inconsistent header"));
  let line k =
    if k >= Array.length lines then raise (Parse_error (k + 1, "truncated"))
    else lines.(k)
  in
  let cursor = ref 1 in
  let next_line () =
    let s = line !cursor in
    incr cursor;
    s
  in
  (* a literal on the line just read: its variable must not exceed M *)
  let lit s =
    let n = num !cursor s in
    if n lsr 1 > m then
      raise
        (Parse_error
           (!cursor,
            Printf.sprintf "literal %d names variable %d, above M = %d" n
              (n lsr 1) m));
    n
  in
  (* inputs *)
  for k = 0 to i - 1 do
    match tokens (next_line ()) with
    | [ s ] when num !cursor s = 2 * (1 + k) -> ()
    | _ -> raise (Parse_error (!cursor, "unexpected input literal"))
  done;
  let latch_next = Array.make l 0 in
  let latch_init = Array.make l false in
  for k = 0 to l - 1 do
    match tokens (next_line ()) with
    | cur :: next :: rest ->
      if num !cursor cur <> 2 * (1 + i + k) then
        raise (Parse_error (!cursor, "unexpected latch literal"));
      latch_next.(k) <- lit next;
      (match rest with
       | [] | [ "0" ] -> latch_init.(k) <- false
       | [ "1" ] -> latch_init.(k) <- true
       | _ -> raise (Parse_error (!cursor, "bad latch reset")))
    | _ -> raise (Parse_error (!cursor, "bad latch line"))
  done;
  let outputs = Array.make o 0 in
  for k = 0 to o - 1 do
    match tokens (next_line ()) with
    | [ s ] -> outputs.(k) <- lit s
    | _ -> raise (Parse_error (!cursor, "bad output line"))
  done;
  let ands = Array.make a (0, 0) in
  for k = 0 to a - 1 do
    match tokens (next_line ()) with
    | [ lhs; r0; r1 ] ->
      if num !cursor lhs <> 2 * (1 + i + l + k) then
        raise (Parse_error (!cursor, "non-contiguous and gates"));
      ands.(k) <- (lit r0, lit r1)
    | _ -> raise (Parse_error (!cursor, "bad and line"))
  done;
  (* symbol table *)
  let input_names = Array.init i (fun k -> Printf.sprintf "i%d" k) in
  let latch_names = Array.init l (fun k -> Printf.sprintf "l%d" k) in
  let output_names = Array.init o (fun k -> Printf.sprintf "o%d" k) in
  (try
     while !cursor < Array.length lines do
       let s = String.trim (next_line ()) in
       if s = "c" then raise Exit
       else if s <> "" then begin
         match String.index_opt s ' ' with
         | Some sp ->
           let key = String.sub s 0 sp in
           let name = String.sub s (sp + 1) (String.length s - sp - 1) in
           let idx = int_of_string (String.sub key 1 (String.length key - 1)) in
           (match key.[0] with
            | 'i' when idx < i -> input_names.(idx) <- name
            | 'l' when idx < l -> latch_names.(idx) <- name
            | 'o' when idx < o -> output_names.(idx) <- name
            | _ -> ())
         | None -> ()
       end
     done
   with Exit -> ());
  { num_inputs = i;
    num_latches = l;
    ands;
    latch_next;
    latch_init;
    outputs;
    input_names;
    latch_names;
    output_names }

let write_file path t =
  let oc = open_out path in
  output_string oc (to_aag t);
  close_out oc

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_aag text
