module M = Manager

let dump m roots =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "bdd %d %d\n" (M.num_vars m) (List.length roots);
  for v = 0 to M.num_vars m - 1 do
    pr "var %d %s\n" v (M.var_name m v)
  done;
  (* bottom-up ids: children are emitted before parents *)
  let file_id = Hashtbl.create 64 in
  Hashtbl.replace file_id M.zero 0;
  Hashtbl.replace file_id M.one 1;
  let next = ref 2 in
  let rec walk f =
    if not (Hashtbl.mem file_id f) then begin
      walk (M.low m f);
      walk (M.high m f);
      let id = !next in
      incr next;
      Hashtbl.replace file_id f id;
      pr "node %d %d %d %d\n" id (M.var m f)
        (Hashtbl.find file_id (M.low m f))
        (Hashtbl.find file_id (M.high m f))
    end
  in
  List.iter walk roots;
  pr "roots%s\n"
    (String.concat ""
       (List.map (fun r -> " " ^ string_of_int (Hashtbl.find file_id r)) roots));
  Buffer.contents buf

let load m ?(import_names = false) ?(var_map = fun v -> v) text =
  (* [node_of] holds unpinned ids for the whole parse: run frozen *)
  M.with_frozen m @@ fun () ->
  let node_of = Hashtbl.create 64 in
  Hashtbl.replace node_of 0 M.zero;
  Hashtbl.replace node_of 1 M.one;
  let roots = ref None in
  let int_field what x =
    match int_of_string_opt x with
    | Some n -> n
    | None -> failwith (Printf.sprintf "Serialize.load: bad %s %S" what x)
  in
  let resolve id =
    match Hashtbl.find_opt node_of id with
    | Some n -> n
    | None -> failwith (Printf.sprintf "Serialize.load: undefined node %d" id)
  in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [] | [ "" ] -> ()
      | "bdd" :: _ -> ()
      | "var" :: v :: name when import_names ->
        (* allocate missing variables up to [v] and restore the dumped
           name (names may contain spaces; rejoin the tail) *)
        let v = int_field "variable index" v in
        if v < 0 then failwith "Serialize.load: negative variable index";
        while M.num_vars m <= v do
          ignore (M.new_var m : int)
        done;
        (match String.concat " " name with
         | "" -> ()
         | name -> M.set_var_name m v name)
      | "var" :: _ -> () (* names are informative only *)
      | [ "node"; id; v; lo; hi ] ->
        let id = int_field "node id" id in
        let v = var_map (int_field "variable index" v) in
        if v < 0 || v >= M.num_vars m then
          failwith "Serialize.load: variable out of range";
        (* ite instead of mk: a permuting [var_map] may place the variable
           below its children's levels *)
        let node =
          Ops.ite m (Ops.var_bdd m v)
            (resolve (int_field "node id" hi))
            (resolve (int_field "node id" lo))
        in
        Hashtbl.replace node_of id node
      | "roots" :: ids ->
        roots := Some (List.map (fun id -> resolve (int_field "root id" id)) ids)
      | _ -> failwith ("Serialize.load: bad line: " ^ line))
    (String.split_on_char '\n' text);
  match !roots with
  | Some r -> r
  | None -> failwith "Serialize.load: missing roots line"
