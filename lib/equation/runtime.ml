(* Phase-scoped resource governance and deterministic fault injection for
   the solver: one [t] per solve_split call, re-attached to each attempt's
   manager as the fallback ladder descends. *)

exception Deadline_exceeded

type phase = Build | Subset | Csf | Verify

let phase_name = function
  | Build -> "build"
  | Subset -> "subset"
  | Csf -> "csf"
  | Verify -> "verify"

let phase_of_name = function
  | "build" -> Some Build
  | "subset" -> Some Subset
  | "csf" -> Some Csf
  | "verify" -> Some Verify
  | _ -> None

module Fault = struct
  type kind = Mk_fail of int | Image_fail of int | Deadline_at of phase

  type t = { kind : kind; mutable left : int }

  let make ?(times = 1) kind =
    if times < 1 then invalid_arg "Runtime.Fault.make: times < 1";
    (match kind with
     | Mk_fail n when n < 1 -> invalid_arg "Runtime.Fault.make: mk index < 1"
     | Image_fail k when k < 1 ->
       invalid_arg "Runtime.Fault.make: image index < 1"
     | Mk_fail _ | Image_fail _ | Deadline_at _ -> ());
    { kind; left = times }

  let kind f = f.kind
  let remaining f = f.left

  (* [fire f] consumes one charge; false once the fault is spent. *)
  let fire f =
    if f.left > 0 then begin
      f.left <- f.left - 1;
      true
    end
    else false

  let of_string s =
    let fail () =
      Error
        (Printf.sprintf
           "bad fault %S (expected mk:N | image:K | deadline:PHASE, with an \
            optional :TIMES suffix)"
           s)
    in
    let int_field x =
      match int_of_string_opt x with Some n when n > 0 -> Some n | _ -> None
    in
    let with_times kind = function
      | [] -> Ok (make kind)
      | [ t ] -> (
        match int_field t with
        | Some times -> Ok (make ~times kind)
        | None -> fail ())
      | _ -> fail ()
    in
    match String.split_on_char ':' (String.trim s) with
    | "mk" :: n :: rest -> (
      match int_field n with
      | Some n -> with_times (Mk_fail n) rest
      | None -> fail ())
    | "image" :: k :: rest -> (
      match int_field k with
      | Some k -> with_times (Image_fail k) rest
      | None -> fail ())
    | "deadline" :: ph :: rest -> (
      match phase_of_name ph with
      | Some ph -> with_times (Deadline_at ph) rest
      | None -> fail ())
    | _ -> fail ()

  let to_string f =
    let base =
      match f.kind with
      | Mk_fail n -> Printf.sprintf "mk:%d" n
      | Image_fail k -> Printf.sprintf "image:%d" k
      | Deadline_at ph -> Printf.sprintf "deadline:%s" (phase_name ph)
    in
    if f.left = 1 then base else Printf.sprintf "%s:%d" base f.left

  let env_var = "LESOLVE_FAULT"

  let from_env () =
    match Sys.getenv_opt env_var with
    | None | Some "" -> None
    | Some s -> (
      match of_string s with
      | Ok f -> Some f
      | Error msg -> invalid_arg (env_var ^ ": " ^ msg))
end

type t = {
  deadline : float option;
  node_limit : int option;
  fault : Fault.t option;
  mutable phase : phase;
  mutable ticks : int;
  mutable images : int;
  mutable subset_states : int;
  (* human-readable description of the image kernel the current attempt
     runs with (clustering + schedule), stamped by the solver so failed
     attempts can report which kernel configuration died *)
  mutable kernel : string;
  (* open observability span of the current phase; closed on the next
     [enter_phase], or unwound by the enclosing attempt span when the
     attempt raises (Obs.Span.exit closes abandoned children) *)
  mutable phase_span : Obs.Span.t option;
}

let create ?deadline ?node_limit ?fault () =
  { deadline; node_limit; fault;
    phase = Build; ticks = 0; images = 0; subset_states = 0;
    kernel = ""; phase_span = None }

let check_time rt =
  match rt.deadline with
  | Some d when Sys.time () > d -> raise Deadline_exceeded
  | Some _ | None -> ()

let fire_phase_fault rt =
  match rt.fault with
  | Some ({ Fault.kind = Fault.Deadline_at ph; _ } as f)
    when ph = rt.phase && Fault.fire f ->
    raise Deadline_exceeded
  | Some _ | None -> ()

(* strided: the deadline comparison (a getrusage call) runs every 32nd
   tick; injected phase faults are checked on every tick so they stay
   deterministic *)
let tick rt =
  fire_phase_fault rt;
  rt.ticks <- rt.ticks + 1;
  if rt.ticks land 31 = 0 then check_time rt

let tick_image rt =
  rt.images <- rt.images + 1;
  (match rt.fault with
   | Some ({ Fault.kind = Fault.Image_fail k; _ } as f)
     when rt.images >= k && Fault.fire f ->
     raise Bdd.Manager.Node_limit_exceeded
   | Some _ | None -> ());
  tick rt

let enter_phase rt ph =
  if !Obs.on then begin
    (match rt.phase_span with Some sp -> Obs.Span.exit sp | None -> ());
    rt.phase_span <- Some (Obs.Span.enter ("phase." ^ phase_name ph))
  end;
  rt.phase <- ph;
  fire_phase_fault rt;
  check_time rt

let phase rt = rt.phase

let attach rt man =
  Bdd.Manager.set_node_limit man rt.node_limit;
  (* attach is a safe point between attempts: any temporaries a failed
     attempt left on the GC operation stack are stale *)
  Bdd.Manager.reset_op_stack man;
  rt.images <- 0;
  rt.subset_states <- 0;
  match rt.fault with
  | Some ({ Fault.kind = Fault.Mk_fail n; _ } as f) when f.Fault.left > 0 ->
    let count = ref 0 in
    Bdd.Manager.set_alloc_hook man
      (Some
         (fun () ->
           incr count;
           if !count >= n && Fault.fire f then
             raise Bdd.Manager.Node_limit_exceeded))
  | Some _ | None -> Bdd.Manager.set_alloc_hook man None

let detach _rt man =
  Bdd.Manager.set_node_limit man None;
  Bdd.Manager.set_alloc_hook man None

let note_subset_states rt n =
  if n > rt.subset_states then rt.subset_states <- n

let note_kernel rt desc =
  rt.kernel <- desc;
  if !Obs.on then Obs.Trace.point ~detail:desc "solve.kernel"

let kernel rt = rt.kernel

let subset_states rt = rt.subset_states
let images rt = rt.images
let deadline rt = rt.deadline
let node_limit rt = rt.node_limit

let ticker = function
  | Some rt -> fun () -> tick rt
  | None -> fun () -> ()
