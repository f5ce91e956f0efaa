(* Node store with a flat open-addressing unique table and a lossy
   direct-mapped computed cache (the classic CUDD layout): node creation and
   cache probes are the innermost loops of every algorithm in this
   repository, so they avoid boxed keys and GC traffic entirely.

   Dead nodes are reclaimed in place by a mark-and-sweep collector (see
   DESIGN.md, "Garbage collection"): swept slots go onto a free list that
   [mk] consumes before growing the store, so live node ids are never moved
   and id-keyed memo tables (subset-construction P_zeta memo, support memo)
   stay valid across collections. Reachability is defined by explicitly
   pinned roots: the [protect]/[release] table, registered root sets, and an
   internal operand stack that the recursive operations in [Ops] use to pin
   intermediate results for the duration of a call. *)

type root_set = { mutable rs_ids : int array; mutable rs_n : int }

type t = {
  mutable var_of : int array;
  mutable low_of : int array;
  mutable high_of : int array;
  mutable n_nodes : int;  (* store top: one past the highest id ever used *)
  (* unique table: open addressing into [u_slot], -1 = empty; keys are the
     (var, low, high) of the node stored at the slot. Only live ids appear:
     the table is rebuilt after every sweep. *)
  mutable u_slot : int array;
  mutable u_mask : int;
  (* computed cache: direct-mapped, 4 ints of key + 1 of result per entry;
     grows (emptying itself — it is lossy anyway) as the node count does.
     Invalidated wholesale by every collection: a cached result may name a
     swept id, and a swept slot may be re-filled with a different node. *)
  mutable c_key_op : int array;
  mutable c_key_a : int array;
  mutable c_key_b : int array;
  mutable c_key_c : int array;
  mutable c_res : int array;
  mutable c_mask : int;
  mutable n_vars : int;
  mutable names : string array;
  mutable node_limit : int option;
  (* called on every fresh node allocation, before the node is committed;
     raising from the hook leaves the manager unchanged. Used for
     deterministic fault injection (Equation.Runtime). *)
  mutable alloc_hook : (unit -> unit) option;
  support_memo : (int, int list) Hashtbl.t;
  (* --- garbage collection state --- *)
  mutable n_entries : int;  (* live node count, constants included *)
  mutable peak_live : int;
  mutable free_head : int;  (* free list threaded through [low_of]; -1 = empty *)
  mutable free_count : int;
  pinned : (int, int) Hashtbl.t;  (* node id -> pin count *)
  mutable root_sets : root_set list;
  mutable op_stack : int array;  (* operand pins, LIFO (cf. BuDDy PUSHREF) *)
  mutable op_top : int;
  mutable frozen : int;  (* > 0: allocation may not trigger a collection *)
  mutable auto_gc : bool;
  mutable gc_threshold : float;  (* estimated dead ratio that justifies a GC *)
  mutable live_after_gc : int;  (* live count right after the last sweep *)
  mutable gc_runs : int;
  mutable gc_swept_total : int;
}

exception Node_limit_exceeded

(* Observability cells, registered once at module initialisation. Every
   hot-path update is behind a single [if !Obs.on] branch, so with stats
   disabled the cost is one boolean load per site. Counter names are part
   of the documented snapshot schema (see DESIGN.md, "Observability"). *)
let c_mk = Obs.Counter.make "bdd.mk_calls"
let c_unique_hit = Obs.Counter.make "bdd.unique.hits"
let c_alloc = Obs.Counter.make "bdd.nodes_created"
let c_rehash = Obs.Counter.make "bdd.unique.rehashes"
let c_grow_nodes = Obs.Counter.make "bdd.nodes.grows"
let c_grow_cache = Obs.Counter.make "bdd.cache.grows"
let c_clear = Obs.Counter.make "bdd.cache.clears"
let c_lookup = Obs.Counter.make "bdd.cache.lookups"
let c_hit = Obs.Counter.make "bdd.cache.hits"
let g_peak = Obs.Gauge.make "bdd.peak_nodes"
let c_gc_runs = Obs.Counter.make "bdd.gc.runs"
let c_gc_swept = Obs.Counter.make "bdd.gc.nodes_swept"
let c_gc_live_after = Obs.Counter.make "bdd.gc.live_after"
let g_live = Obs.Gauge.make "bdd.live_nodes"

(* per-operation cache counters, indexed by the [Op] tag below; slot 0 is
   unused and maps to the dummy cell *)
let op_names =
  [| ""; "ite"; "not"; "exists"; "forall"; "and_exists"; "compose";
     "constrain" |]

let per_op prefix =
  Array.mapi
    (fun i n -> if i = 0 then Obs.Counter.dummy else Obs.Counter.make (prefix ^ n))
    op_names

let c_lookup_op = per_op "bdd.cache.lookups."
let c_hit_op = per_op "bdd.cache.hits."

let zero = 0
let one = 1
let terminal_level = max_int

(* variable sentinel marking a swept (free-listed) slot; [low_of] holds the
   next free slot while a slot carries this mark *)
let free_level = -2

let initial_cache_bits = 12
let max_cache_bits = 22
let cache_cap = 1 lsl max_cache_bits

let default_gc_threshold = 0.25

let create ?(initial_capacity = 1024) () =
  let cap = max initial_capacity 16 in
  let usize = 2 * cap in
  (* round up to a power of two *)
  let rec pow2 k = if k >= usize then k else pow2 (2 * k) in
  let usize = pow2 16 in
  let csize = 1 lsl initial_cache_bits in
  let m =
    {
      var_of = Array.make cap terminal_level;
      low_of = Array.make cap (-1);
      high_of = Array.make cap (-1);
      n_nodes = 2;
      u_slot = Array.make usize (-1);
      u_mask = usize - 1;
      c_key_op = Array.make csize (-1);
      c_key_a = Array.make csize 0;
      c_key_b = Array.make csize 0;
      c_key_c = Array.make csize 0;
      c_res = Array.make csize 0;
      c_mask = csize - 1;
      n_vars = 0;
      names = [||];
      node_limit = None;
      alloc_hook = None;
      support_memo = Hashtbl.create 256;
      n_entries = 2;
      peak_live = 2;
      free_head = -1;
      free_count = 0;
      pinned = Hashtbl.create 64;
      root_sets = [];
      op_stack = Array.make 256 0;
      op_top = 0;
      frozen = 0;
      (* collection is opt-in: it is only sound once every id the client
         holds is pinned or reachable from a pinned root, which the solver
         guarantees (and enables GC) but raw-API users need not *)
      auto_gc = false;
      gc_threshold = default_gc_threshold;
      live_after_gc = 2;
      gc_runs = 0;
      gc_swept_total = 0;
    }
  in
  m.low_of.(0) <- 0;
  m.high_of.(0) <- 0;
  m.low_of.(1) <- 1;
  m.high_of.(1) <- 1;
  m

let hash3 v lo hi =
  let h = (v * 0x9e3779b1) lxor (lo * 0x85ebca77) lxor (hi * 0xc2b2ae3d) in
  let h = h lxor (h lsr 15) in
  h land max_int

let grow_nodes m =
  if !Obs.on then Obs.Counter.bump c_grow_nodes;
  let cap = Array.length m.var_of in
  let cap' = 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  m.var_of <- extend m.var_of terminal_level;
  m.low_of <- extend m.low_of (-1);
  m.high_of <- extend m.high_of (-1)

(* the [max_cache_bits] cap is checked by the caller (on the allocation
   path, where paying a call per [mk] just to bounce off the cap inside
   showed up in profiles) *)
let grow_cache m =
  if !Obs.on then Obs.Counter.bump c_grow_cache;
  let size' = 2 * (m.c_mask + 1) in
  m.c_key_op <- Array.make size' (-1);
  m.c_key_a <- Array.make size' 0;
  m.c_key_b <- Array.make size' 0;
  m.c_key_c <- Array.make size' 0;
  m.c_res <- Array.make size' 0;
  m.c_mask <- size' - 1

let rehash_unique m =
  if !Obs.on then Obs.Counter.bump c_rehash;
  let size' = 2 * (m.u_mask + 1) in
  let slot' = Array.make size' (-1) in
  let mask' = size' - 1 in
  Array.iter
    (fun id ->
      if id >= 0 then begin
        let h = ref (hash3 m.var_of.(id) m.low_of.(id) m.high_of.(id) land mask') in
        while slot'.(!h) >= 0 do
          h := (!h + 1) land mask'
        done;
        slot'.(!h) <- id
      end)
    m.u_slot;
  m.u_slot <- slot';
  m.u_mask <- mask'

let num_nodes m = m.n_entries
let live_nodes m = m.n_entries
let peak_live_nodes m = m.peak_live
let store_size m = m.n_nodes
let free_nodes m = m.free_count
let set_node_limit m lim = m.node_limit <- lim
let set_alloc_hook m hook = m.alloc_hook <- hook

(* --- root pinning ------------------------------------------------------- *)

let protect m id =
  if id >= 2 then
    match Hashtbl.find_opt m.pinned id with
    | Some n -> Hashtbl.replace m.pinned id (n + 1)
    | None -> Hashtbl.replace m.pinned id 1

let release m id =
  if id >= 2 then
    match Hashtbl.find_opt m.pinned id with
    | Some 1 -> Hashtbl.remove m.pinned id
    | Some n -> Hashtbl.replace m.pinned id (n - 1)
    | None -> invalid_arg "Manager.release: node is not protected"

let protected m id = id < 2 || Hashtbl.mem m.pinned id

module Roots = struct
  type set = root_set

  let create m =
    let s = { rs_ids = Array.make 16 0; rs_n = 0 } in
    m.root_sets <- s :: m.root_sets;
    s

  let add s id =
    if id >= 2 then begin
      if s.rs_n = Array.length s.rs_ids then begin
        let a = Array.make (2 * s.rs_n) 0 in
        Array.blit s.rs_ids 0 a 0 s.rs_n;
        s.rs_ids <- a
      end;
      s.rs_ids.(s.rs_n) <- id;
      s.rs_n <- s.rs_n + 1
    end;
    id

  let release m s = m.root_sets <- List.filter (fun s' -> s' != s) m.root_sets
end

let with_roots m f =
  let s = Roots.create m in
  Fun.protect ~finally:(fun () -> Roots.release m s) (fun () -> f s)

(* operand stack: recursive operations pin already-computed intermediates
   here across their remaining recursive calls; [mk] pins its own operands
   before triggering a collection, so a pushed id can never be swept while
   an operation still holds it in an OCaml local *)
let stack_push m id =
  if m.op_top = Array.length m.op_stack then begin
    let a = Array.make (2 * m.op_top) 0 in
    Array.blit m.op_stack 0 a 0 m.op_top;
    m.op_stack <- a
  end;
  m.op_stack.(m.op_top) <- id;
  m.op_top <- m.op_top + 1

let stack_drop m n = m.op_top <- max 0 (m.op_top - n)

(* called at ladder safe points (Runtime.attach): an exception that unwound
   through an operation leaves its pins behind, harmlessly conservative
   until the next attempt starts *)
let reset_op_stack m = m.op_top <- 0

let with_frozen m f =
  m.frozen <- m.frozen + 1;
  Fun.protect ~finally:(fun () -> m.frozen <- m.frozen - 1) f

let set_auto_gc m b = m.auto_gc <- b
let auto_gc m = m.auto_gc

let set_gc_threshold m r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg "Manager.set_gc_threshold: ratio outside [0,1]";
  m.gc_threshold <- r

let gc_threshold m = m.gc_threshold
let gc_runs m = m.gc_runs
let gc_nodes_swept m = m.gc_swept_total

(* --- mark and sweep ----------------------------------------------------- *)

let collect m =
  if m.frozen > 0 then invalid_arg "Manager.collect: manager is frozen";
  let top = m.n_nodes in
  let mark = Bytes.make top '\000' in
  Bytes.set mark 0 '\001';
  Bytes.set mark 1 '\001';
  (* iterative DFS from every pinned root; the depth of a BDD is bounded by
     the variable count but sibling chains are not, so use an explicit
     stack rather than recursion *)
  let stack = ref (Array.make 1024 0) in
  let sp = ref 0 in
  let push id =
    if !sp = Array.length !stack then begin
      let a = Array.make (2 * !sp) 0 in
      Array.blit !stack 0 a 0 !sp;
      stack := a
    end;
    !stack.(!sp) <- id;
    incr sp
  in
  let visit root =
    if root >= 2 && root < top && m.var_of.(root) <> free_level then begin
      push root;
      while !sp > 0 do
        decr sp;
        let id = !stack.(!sp) in
        if Bytes.get mark id = '\000' then begin
          Bytes.set mark id '\001';
          let lo = m.low_of.(id) and hi = m.high_of.(id) in
          if Bytes.get mark lo = '\000' then push lo;
          if Bytes.get mark hi = '\000' then push hi
        end
      done
    end
  in
  Hashtbl.iter (fun id _ -> visit id) m.pinned;
  List.iter
    (fun s ->
      for i = 0 to s.rs_n - 1 do
        visit s.rs_ids.(i)
      done)
    m.root_sets;
  for i = 0 to m.op_top - 1 do
    visit m.op_stack.(i)
  done;
  (* sweep: thread dead slots onto the free list (downwards, so the lowest
     dead id is reused first — deterministic and store-compacting in
     tendency even without moving live nodes) *)
  let swept = ref 0 in
  m.free_head <- -1;
  m.free_count <- 0;
  for id = top - 1 downto 2 do
    if m.var_of.(id) = free_level || Bytes.get mark id = '\000' then begin
      if m.var_of.(id) <> free_level then incr swept;
      m.var_of.(id) <- free_level;
      m.low_of.(id) <- m.free_head;
      m.high_of.(id) <- -1;
      m.free_head <- id;
      m.free_count <- m.free_count + 1
    end
  done;
  m.n_entries <- m.n_entries - !swept;
  m.live_after_gc <- m.n_entries;
  m.gc_runs <- m.gc_runs + 1;
  m.gc_swept_total <- m.gc_swept_total + !swept;
  (* rebuild the unique table over the live nodes at its current size *)
  Array.fill m.u_slot 0 (Array.length m.u_slot) (-1);
  let mask = m.u_mask in
  for id = 2 to top - 1 do
    if m.var_of.(id) <> free_level then begin
      let h = ref (hash3 m.var_of.(id) m.low_of.(id) m.high_of.(id) land mask) in
      while m.u_slot.(!h) >= 0 do
        h := (!h + 1) land mask
      done;
      m.u_slot.(!h) <- id
    end
  done;
  (* a cached result may name a dead id; drop the whole (lossy) cache *)
  Array.fill m.c_key_op 0 (Array.length m.c_key_op) (-1);
  (* the support memo is keyed by node id: entries for swept ids would be
     resurrected wrongly when the id is reused *)
  let dead_keys =
    Hashtbl.fold
      (fun id _ acc ->
        if id >= 2 && (id >= top || m.var_of.(id) = free_level) then id :: acc
        else acc)
      m.support_memo []
  in
  List.iter (Hashtbl.remove m.support_memo) dead_keys;
  if !Obs.on then begin
    Obs.Counter.bump c_gc_runs;
    Obs.Counter.add c_gc_swept !swept;
    Obs.Counter.add c_gc_live_after m.n_entries;
    Obs.Gauge.set g_live m.n_entries;
    Obs.Trace.point "bdd.gc"
      ~detail:(Printf.sprintf "swept=%d live=%d" !swept m.n_entries)
  end;
  !swept

(* estimated dead ratio: every allocation since the last sweep is treated
   as potentially dead. Deterministic — it depends only on allocation
   counts, never on wall time or the OCaml heap. *)
let est_dead_ratio m =
  if m.n_entries <= 0 then 0.0
  else
    float_of_int (m.n_entries - m.live_after_gc) /. float_of_int m.n_entries

let may_collect m =
  m.auto_gc && m.frozen = 0 && est_dead_ratio m >= m.gc_threshold

(* a frozen section cannot collect, so a store that enters one nearly full
   of dead nodes doubles instead: offer the collection before it does *)
let collect_at_safe_point m =
  if may_collect m && 4 * m.n_entries >= 3 * Array.length m.var_of then
    collect m
  else 0

let mk m v lo hi =
  if lo = hi then lo
  else begin
    if !Obs.on then Obs.Counter.bump c_mk;
    let mask = m.u_mask in
    let h = ref (hash3 v lo hi land mask) in
    let found = ref (-1) in
    let continue = ref true in
    while !continue do
      let id = m.u_slot.(!h) in
      if id < 0 then continue := false
      else if m.var_of.(id) = v && m.low_of.(id) = lo && m.high_of.(id) = hi
      then begin
        found := id;
        continue := false
      end
      else h := (!h + 1) land mask
    done;
    if !found >= 0 then begin
      if !Obs.on then Obs.Counter.bump c_unique_hit;
      !found
    end
    else begin
      let slot = ref !h in
      (* a collection rebuilds the unique table: re-derive the free slot
         for the pending insertion afterwards *)
      let collect_pinned () =
        (* pin our own operands — the caller cannot know a collection
           happens under this particular [mk] *)
        stack_push m lo;
        stack_push m hi;
        let swept = collect m in
        stack_drop m 2;
        let mask = m.u_mask in
        let h' = ref (hash3 v lo hi land mask) in
        while m.u_slot.(!h') >= 0 do
          h' := (!h' + 1) land mask
        done;
        slot := !h';
        swept
      in
      (* the node budget bounds *live* nodes: when the entry count hits the
         limit, reclaim dead entries first and only fail if the live set
         itself does not fit. [est_dead_ratio] drops to 0 right after a
         collection, so a saturated live set cannot thrash here. *)
      (match m.node_limit with
       | Some lim when m.n_entries >= lim ->
         if may_collect m then begin
           ignore (collect_pinned () : int);
           if m.n_entries >= lim then raise Node_limit_exceeded
         end
         else raise Node_limit_exceeded
       | Some _ | None -> ());
      (match m.alloc_hook with Some f -> f () | None -> ());
      let id =
        if m.free_head >= 0 then begin
          let id = m.free_head in
          m.free_head <- m.low_of.(id);
          m.free_count <- m.free_count - 1;
          id
        end
        else begin
          if m.n_nodes >= Array.length m.var_of then begin
            if may_collect m then begin
              let swept = collect_pinned () in
              (* anti-thrash: a collection that reclaimed under 1/8 of the
                 store would have us collecting again almost immediately *)
              if swept < Array.length m.var_of / 8 then grow_nodes m
            end
            else grow_nodes m
          end;
          if m.free_head >= 0 then begin
            let id = m.free_head in
            m.free_head <- m.low_of.(id);
            m.free_count <- m.free_count - 1;
            id
          end
          else begin
            let id = m.n_nodes in
            m.n_nodes <- id + 1;
            id
          end
        end
      in
      m.n_entries <- m.n_entries + 1;
      if m.n_entries > m.peak_live then m.peak_live <- m.n_entries;
      if !Obs.on then begin
        Obs.Counter.bump c_alloc;
        Obs.Gauge.set_max g_peak m.n_entries;
        Obs.Gauge.set g_live m.n_entries
      end;
      m.var_of.(id) <- v;
      m.low_of.(id) <- lo;
      m.high_of.(id) <- hi;
      m.u_slot.(!slot) <- id;
      (* keep the load factor under 1/2 *)
      if 2 * m.n_entries > m.u_mask then rehash_unique m;
      (* keep the (lossy) computed cache proportional to the live count;
         the [max_cache_bits] cap is checked here, not in [grow_cache] *)
      if m.n_entries > m.c_mask && m.c_mask + 1 < cache_cap then grow_cache m;
      id
    end
  end

let var m id = m.var_of.(id)
let low m id = m.low_of.(id)
let high m id = m.high_of.(id)
let is_const id = id < 2
let num_vars m = m.n_vars

let new_var ?name m =
  let v = m.n_vars in
  m.n_vars <- v + 1;
  (* grow geometrically: the old per-variable copy made registering n
     variables O(n^2) *)
  if v >= Array.length m.names then begin
    let cap' = max 16 (2 * Array.length m.names) in
    let names = Array.make cap' "" in
    Array.blit m.names 0 names 0 v;
    m.names <- names
  end;
  m.names.(v) <-
    (match name with Some s -> s | None -> Printf.sprintf "x%d" v);
  v

let new_vars ?(prefix = "x") m n =
  List.init n (fun k -> new_var ~name:(Printf.sprintf "%s%d" prefix k) m)

let var_name m v =
  if v >= 0 && v < m.n_vars then m.names.(v) else Printf.sprintf "?%d" v

let set_var_name m v s = if v >= 0 && v < m.n_vars then m.names.(v) <- s

let cache_slot m op a b c =
  let h =
    (op * 0x27d4eb2f)
    lxor (a * 0x9e3779b1)
    lxor (b * 0x85ebca77)
    lxor (c * 0xc2b2ae3d)
  in
  let h = h lxor (h lsr 13) in
  h land m.c_mask

let cache_find m op a b c =
  let s = cache_slot m op a b c in
  let hit =
    m.c_key_op.(s) = op && m.c_key_a.(s) = a && m.c_key_b.(s) = b
    && m.c_key_c.(s) = c
  in
  if !Obs.on then begin
    Obs.Counter.bump c_lookup;
    if op > 0 && op < Array.length c_lookup_op then
      Obs.Counter.bump c_lookup_op.(op);
    if hit then begin
      Obs.Counter.bump c_hit;
      if op > 0 && op < Array.length c_hit_op then
        Obs.Counter.bump c_hit_op.(op)
    end
  end;
  if hit then Some m.c_res.(s) else None

let cache_store m op a b c r =
  let s = cache_slot m op a b c in
  m.c_key_op.(s) <- op;
  m.c_key_a.(s) <- a;
  m.c_key_b.(s) <- b;
  m.c_key_c.(s) <- c;
  m.c_res.(s) <- r

let clear_caches m =
  if !Obs.on then begin
    Obs.Counter.bump c_clear;
    Obs.Trace.point "bdd.cache.clear"
  end;
  Array.fill m.c_key_op 0 (Array.length m.c_key_op) (-1);
  Hashtbl.reset m.support_memo

let support_memo m = m.support_memo

module Op = struct
  let ite = 1
  let bnot = 2
  let exists = 3
  let forall = 4
  let and_exists = 5
  let compose = 6
  let constrain = 7
end
