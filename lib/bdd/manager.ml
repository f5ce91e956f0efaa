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
   internal operand stack that the recursive operations (at the end of this
   file, and in [Ops]) use to pin intermediate results for the duration of
   a call. *)

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
  (* --- traversal state --- *)
  (* one byte per store slot, all zero between calls: the collector's mark
     and the visited set of [size_shared]/[support] *)
  mutable mark : Bytes.t;
  (* the collector's DFS stack, and the visit queue of the other walks *)
  mutable walk : int array;
  (* fresh nodes a capped conjunction ([band_capped]) may still create;
     negative when no cap is in force *)
  mutable fresh_left : int;
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

(* computed-cache operation tags, one per cached recursive operation (the
   kernel at the end of this file); they namespace the cache keys and index
   the per-operation counters below *)
let op_ite = 1
let op_not = 2
let op_exists = 3
let op_and_exists = 4
let op_compose = 5
let op_constrain = 6
let op_leq = 7

(* per-operation cache counters, indexed by tag; slot 0 is unused and maps
   to the dummy cell *)
let op_names =
  [| ""; "ite"; "not"; "exists"; "and_exists"; "compose"; "constrain";
     "leq" |]

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
      mark = Bytes.make cap '\000';
      walk = Array.make 1024 0;
      fresh_left = -1;
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
  m.high_of <- extend m.high_of (-1);
  (* no walk is in progress while a node is allocated: every mark is 0 *)
  m.mark <- Bytes.make cap' '\000'

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

let stack_drop m n =
  let top = m.op_top - n in
  m.op_top <- (if top < 0 then 0 else top)

let stack_depth m = m.op_top

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

(* [m.walk] as a stack: push [id], growing the array when full *)
let walk_push m sp id =
  if sp = Array.length m.walk then begin
    let a = Array.make (2 * sp) 0 in
    Array.blit m.walk 0 a 0 sp;
    m.walk <- a
  end;
  m.walk.(sp) <- id

let collect m =
  if m.frozen > 0 then invalid_arg "Manager.collect: manager is frozen";
  let top = m.n_nodes in
  let mark = m.mark in
  Bytes.set mark 0 '\001';
  Bytes.set mark 1 '\001';
  (* iterative DFS from every pinned root; the depth of a BDD is bounded by
     the variable count but sibling chains are not, so use an explicit
     stack rather than recursion *)
  let sp = ref 0 in
  let push id =
    walk_push m !sp id;
    incr sp
  in
  let visit root =
    if root >= 2 && root < top && m.var_of.(root) <> free_level then begin
      push root;
      while !sp > 0 do
        decr sp;
        let id = m.walk.(!sp) in
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
     tendency even without moving live nodes), clearing the marks on the
     way *)
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
    else Bytes.set mark id '\000'
  done;
  Bytes.set mark 0 '\000';
  Bytes.set mark 1 '\000';
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

(* --- mark-buffer walks ------------------------------------------------------

   [size_shared] and [support] share the collector's mark buffer: a walk
   marks each decision node it reaches and queues it in [m.walk], whose
   prefix is then the visited set, and clears exactly those marks before it
   returns. Nothing is allocated per visited node, and no walk allocates a
   BDD node, so no collection can run (and reuse the buffer) mid-walk. *)

(* mark and queue the decision nodes reachable from [roots]; returns how
   many, left marked in [m.walk.(0 .. n-1)] *)
let mark_reachable m roots =
  let mark = m.mark in
  let n = ref 0 in
  let enqueue id =
    if id >= 2 && Bytes.get mark id = '\000' then begin
      Bytes.set mark id '\001';
      walk_push m !n id;
      incr n
    end
  in
  List.iter enqueue roots;
  let i = ref 0 in
  while !i < !n do
    let id = m.walk.(!i) in
    enqueue m.low_of.(id);
    enqueue m.high_of.(id);
    incr i
  done;
  !n

let unmark m n =
  for i = 0 to n - 1 do
    Bytes.set m.mark m.walk.(i) '\000'
  done

let size_shared m roots =
  let n = mark_reachable m roots in
  unmark m n;
  n

let size m f = size_shared m [ f ]

let support m f =
  match Hashtbl.find_opt m.support_memo f with
  | Some vars -> vars
  | None ->
    let n = mark_reachable m [ f ] in
    let top = ref (-1) in
    for i = 0 to n - 1 do
      let v = m.var_of.(m.walk.(i)) in
      if v > !top then top := v
    done;
    let seen = Bytes.make (!top + 1) '\000' in
    for i = 0 to n - 1 do
      Bytes.set seen m.var_of.(m.walk.(i)) '\001'
    done;
    unmark m n;
    let vars = ref [] in
    for v = !top downto 0 do
      if Bytes.get seen v <> '\000' then vars := v :: !vars
    done;
    Hashtbl.replace m.support_memo f !vars;
    !vars

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

(* the unique-table slot holding the node [(v, lo, hi)], or the empty slot
   where it belongs *)
let unique_slot m v lo hi =
  let mask = m.u_mask in
  let h = ref (hash3 v lo hi land mask) in
  let id = ref m.u_slot.(!h) in
  while
    !id >= 0
    && not (m.var_of.(!id) = v && m.low_of.(!id) = lo && m.high_of.(!id) = hi)
  do
    h := (!h + 1) land mask;
    id := m.u_slot.(!h)
  done;
  !h

(* [mk] pins its own operands around a collection: the caller cannot know
   a collection happens under this particular [mk] *)
let collect_pinned m lo hi =
  stack_push m lo;
  stack_push m hi;
  let swept = collect m in
  stack_drop m 2;
  swept

let pop_free m =
  let id = m.free_head in
  m.free_head <- m.low_of.(id);
  m.free_count <- m.free_count - 1;
  id

(* raised by [alloc] when a capped conjunction runs out of fresh nodes;
   caught by [band_capped] *)
exception Cap_reached

(* [mk]'s miss path: commit a fresh node for [(v, lo, hi)], whose empty
   unique-table slot is [slot] unless a collection runs first *)
let alloc m v lo hi slot =
  if m.fresh_left >= 0 then begin
    if m.fresh_left = 0 then raise_notrace Cap_reached;
    m.fresh_left <- m.fresh_left - 1
  end;
  let runs = m.gc_runs in
  (* the node budget bounds *live* nodes: when the entry count hits the
     limit, reclaim dead entries first and only fail if the live set
     itself does not fit. [est_dead_ratio] drops to 0 right after a
     collection, so a saturated live set cannot thrash here. *)
  (match m.node_limit with
   | Some lim when m.n_entries >= lim ->
     if may_collect m then begin
       ignore (collect_pinned m lo hi : int);
       if m.n_entries >= lim then raise Node_limit_exceeded
     end
     else raise Node_limit_exceeded
   | Some _ | None -> ());
  (match m.alloc_hook with Some f -> f () | None -> ());
  let id =
    if m.free_head >= 0 then pop_free m
    else begin
      if m.n_nodes >= Array.length m.var_of then begin
        if may_collect m then begin
          let swept = collect_pinned m lo hi in
          (* anti-thrash: a collection that reclaimed under 1/8 of the
             store would have us collecting again almost immediately *)
          if swept < Array.length m.var_of / 8 then grow_nodes m
        end
        else grow_nodes m
      end;
      if m.free_head >= 0 then pop_free m
      else begin
        let id = m.n_nodes in
        m.n_nodes <- id + 1;
        id
      end
    end
  in
  (* a collection rebuilt the unique table: re-derive the empty slot *)
  let slot = if m.gc_runs = runs then slot else unique_slot m v lo hi in
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
  m.u_slot.(slot) <- id;
  (* keep the load factor under 1/2 *)
  if 2 * m.n_entries > m.u_mask then rehash_unique m;
  (* keep the (lossy) computed cache proportional to the live count;
     the [max_cache_bits] cap is checked here, not in [grow_cache] *)
  if m.n_entries > m.c_mask && m.c_mask + 1 < cache_cap then grow_cache m;
  id

let mk m v lo hi =
  if lo = hi then lo
  else begin
    if !Obs.on then Obs.Counter.bump c_mk;
    let slot = unique_slot m v lo hi in
    let id = m.u_slot.(slot) in
    if id >= 0 then begin
      if !Obs.on then Obs.Counter.bump c_unique_hit;
      id
    end
    else alloc m v lo hi slot
  end

(* --- invariant check ------------------------------------------------------ *)

let check m =
  let fail fmt = Printf.ksprintf failwith ("Manager.check: " ^^ fmt) in
  let top = m.n_nodes in
  let live id =
    id >= 0 && id < top && (id < 2 || m.var_of.(id) <> free_level)
  in
  let live_nodes = ref 2 in
  for id = 2 to top - 1 do
    let v = m.var_of.(id) in
    if v <> free_level then begin
      incr live_nodes;
      let lo = m.low_of.(id) and hi = m.high_of.(id) in
      if not (live lo && live hi) then
        fail "node %d has a child on a free or unallocated slot (%d, %d)" id lo
          hi;
      if lo = hi then fail "node %d is not reduced (both children %d)" id lo;
      if not (v < m.var_of.(lo) && v < m.var_of.(hi)) then
        fail "node %d (level %d) is not above its children %d and %d" id v lo
          hi
    end
  done;
  if !live_nodes <> m.n_entries then
    fail "live count is %d but the store holds %d live nodes" m.n_entries
      !live_nodes;
  let seen = Bytes.make top '\000' in
  let in_table = ref 0 in
  Array.iteri
    (fun slot id ->
      if id >= 0 then begin
        if id < 2 || not (live id) then
          fail "unique-table slot %d holds id %d, which is not a live node" slot
            id;
        if Bytes.get seen id <> '\000' then
          fail "id %d appears twice in the unique table" id;
        Bytes.set seen id '\001';
        incr in_table;
        if unique_slot m m.var_of.(id) m.low_of.(id) m.high_of.(id) <> slot then
          fail "probing the key of node %d does not reach its slot %d" id slot
      end)
    m.u_slot;
  if !in_table <> m.n_entries - 2 then
    fail "the unique table holds %d ids for %d live decision nodes" !in_table
      (m.n_entries - 2);
  let free = ref 0 and id = ref m.free_head in
  while !id >= 0 do
    if !id >= top || m.var_of.(!id) <> free_level then
      fail "free list reaches id %d, which is not a free slot" !id;
    incr free;
    if !free > top then fail "free list has a cycle";
    id := m.low_of.(!id)
  done;
  if !free <> m.free_count then
    fail "free count is %d but the free list holds %d slots" m.free_count !free;
  if m.n_entries + !free <> top then
    fail "%d live and %d free slots do not fill a store of %d" m.n_entries
      !free top;
  Hashtbl.iter
    (fun id n ->
      if n <= 0 then fail "node %d has pin count %d" id n;
      if not (live id) then fail "pinned id %d is not a live node" id)
    m.pinned;
  List.iter
    (fun s ->
      for i = 0 to s.rs_n - 1 do
        if not (live s.rs_ids.(i)) then
          fail "root-set id %d is not a live node" s.rs_ids.(i)
      done)
    m.root_sets;
  for i = 0 to m.op_top - 1 do
    if not (live m.op_stack.(i)) then
      fail "operand-stack id %d is not a live node" m.op_stack.(i)
  done;
  for id = 0 to Bytes.length m.mark - 1 do
    if Bytes.get m.mark id <> '\000' then
      fail "mark byte %d is set between traversals" id
  done;
  if m.fresh_left >= 0 then fail "a fresh-node cap is in force between calls";
  (* key slots [a] and [b] and the result are node ids for every tag *)
  for s = 0 to m.c_mask do
    if m.c_key_op.(s) >= 0
       && not (live m.c_key_a.(s) && live m.c_key_b.(s) && live m.c_res.(s))
    then fail "computed-cache entry %d names a freed id" s
  done;
  Hashtbl.iter
    (fun id _ ->
      if not (live id) then fail "support-memo key %d is not a live node" id)
    m.support_memo

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

let clear_caches m =
  if !Obs.on then begin
    Obs.Counter.bump c_clear;
    Obs.Trace.point "bdd.cache.clear"
  end;
  Array.fill m.c_key_op 0 (Array.length m.c_key_op) (-1);
  Hashtbl.reset m.support_memo

(* --- cached recursive operations ------------------------------------------

   They live here, next to the arrays they read, rather than in [Ops]:
   the default (dev) build compiles every module [-opaque], so a call into
   another module is an unknown-function call that cannot be inlined, and
   every [var]/[low]/[high]/probe/pin from [Ops] cost one (DESIGN.md, "BDD
   kernel"). Here they are direct calls or plain array loads, and nothing
   on the hot path allocates: the cache probe returns [-1] on a miss, not
   an option.

   GC discipline: the caller keeps the operands alive (pinned directly or
   reachable from a pinned root), and each operation pins every
   already-computed intermediate on the operand stack before its next
   recursive call, so a collection triggered by an inner [mk] can never
   sweep a partial result held only in an OCaml local. [mk] pins its own
   two arguments, so results that flow straight into an enclosing [mk]
   need no extra pin. *)

let cache_slot m op a b c =
  let h =
    (op * 0x27d4eb2f)
    lxor (a * 0x9e3779b1)
    lxor (b * 0x85ebca77)
    lxor (c * 0xc2b2ae3d)
  in
  let h = h lxor (h lsr 13) in
  h land m.c_mask

(* The cached result for [(op, a, b, c)], or [-1]. [a b c] are operand
   node ids, or 0 for unused slots in a way that cannot collide for the
   same op. *)
let cache_find m op a b c =
  let s = cache_slot m op a b c in
  let hit =
    m.c_key_op.(s) = op && m.c_key_a.(s) = a && m.c_key_b.(s) = b
    && m.c_key_c.(s) = c
  in
  if !Obs.on then begin
    Obs.Counter.bump c_lookup;
    Obs.Counter.bump c_lookup_op.(op);
    if hit then begin
      Obs.Counter.bump c_hit;
      Obs.Counter.bump c_hit_op.(op)
    end
  end;
  if hit then m.c_res.(s) else -1

(* The cache is a lossy direct-mapped table: a store may overwrite any
   entry, which only costs recomputation. Every collection empties it, so
   a hit can never name a swept id. *)
let cache_store m op a b c r =
  let s = cache_slot m op a b c in
  m.c_key_op.(s) <- op;
  m.c_key_a.(s) <- a;
  m.c_key_b.(s) <- b;
  m.c_key_c.(s) <- c;
  m.c_res.(s) <- r

(* [Stdlib.min] is polymorphic: an external comparison call per use *)
let imin (a : int) b = if a <= b then a else b

let rec bnot m f =
  if f = zero then one
  else if f = one then zero
  else
    let r = cache_find m op_not f 0 0 in
    if r >= 0 then r
    else begin
      let lo = bnot m m.low_of.(f) in
      stack_push m lo;
      let hi = bnot m m.high_of.(f) in
      stack_drop m 1;
      let r = mk m m.var_of.(f) lo hi in
      cache_store m op_not f 0 0 r;
      r
    end

(* [ite] first rewrites its triple to the standard member of its class
   (Brace–Rudell–Bryant): [ite f f h = ite f 1 h], [ite f g f = ite f g 0],
   and the commutative [and] ([h = 0]) and [or] ([g = 1]) put the smaller
   id first, so [band m f g] and [band m g f] share one cache entry. *)
let rec ite m f g h =
  if f = one then g
  else if f = zero then h
  else
    let g = if g = f then one else g in
    let h = if h = f then zero else h in
    if g = h then g
    else if g = one && h = zero then f
    else if h = zero && g < f then ite_step m g f zero
    else if g = one && h < f then ite_step m h one f
    else ite_step m f g h

and ite_step m f g h =
  let r = cache_find m op_ite f g h in
  if r >= 0 then r
  else begin
    let vf = m.var_of.(f) and vg = m.var_of.(g) and vh = m.var_of.(h) in
    let v = imin vf (imin vg vh) in
    let lo =
      ite m
        (if vf = v then m.low_of.(f) else f)
        (if vg = v then m.low_of.(g) else g)
        (if vh = v then m.low_of.(h) else h)
    in
    stack_push m lo;
    let hi =
      ite m
        (if vf = v then m.high_of.(f) else f)
        (if vg = v then m.high_of.(g) else g)
        (if vh = v then m.high_of.(h) else h)
    in
    stack_drop m 1;
    let r = mk m v lo hi in
    cache_store m op_ite f g h r;
    r
  end

(* [cube] with its variables above level [top] skipped *)
let rec cube_from m cube top =
  if cube <> one && m.var_of.(cube) < top then cube_from m m.high_of.(cube) top
  else cube

(* [∃cube. lo ∨ hi] for a quantified top variable, short-circuiting when
   the low branch is already [one] *)
let rec exists m cube f =
  if f < 2 || cube = one then f
  else
    let v = m.var_of.(f) in
    let cube = cube_from m cube v in
    if cube = one then f
    else
      let r = cache_find m op_exists f cube 0 in
      if r >= 0 then r
      else begin
        let r =
          if m.var_of.(cube) = v then begin
            let cube' = m.high_of.(cube) in
            let lo = exists m cube' m.low_of.(f) in
            if lo = one then one
            else begin
              stack_push m lo;
              let hi = exists m cube' m.high_of.(f) in
              stack_push m hi;
              let r = ite m lo one hi in
              stack_drop m 2;
              r
            end
          end
          else begin
            let lo = exists m cube m.low_of.(f) in
            stack_push m lo;
            let hi = exists m cube m.high_of.(f) in
            stack_drop m 1;
            mk m v lo hi
          end
        in
        cache_store m op_exists f cube 0 r;
        r
      end

let rec and_exists m cube f g =
  if f = zero || g = zero then zero
  else if f = one && g = one then one
  else if f = one then exists m cube g
  else if g = one then exists m cube f
  else if f = g then exists m cube f
  else if cube = one then ite m f g zero
  else begin
    let vf = m.var_of.(f) and vg = m.var_of.(g) in
    let top = imin vf vg in
    let cube = cube_from m cube top in
    if cube = one then ite m f g zero
    else if f <= g then and_exists_step m cube f g vf vg top
    (* ∧ commutes: one cache entry for both operand orders *)
    else and_exists_step m cube g f vg vf top
  end

and and_exists_step m cube f g vf vg top =
  let r = cache_find m op_and_exists f g cube in
  if r >= 0 then r
  else begin
    let r =
      if m.var_of.(cube) = top then begin
        let cube' = m.high_of.(cube) in
        let lo =
          and_exists m cube'
            (if vf = top then m.low_of.(f) else f)
            (if vg = top then m.low_of.(g) else g)
        in
        if lo = one then one
        else begin
          stack_push m lo;
          let hi =
            and_exists m cube'
              (if vf = top then m.high_of.(f) else f)
              (if vg = top then m.high_of.(g) else g)
          in
          stack_push m hi;
          let r = ite m lo one hi in
          stack_drop m 2;
          r
        end
      end
      else begin
        let lo =
          and_exists m cube
            (if vf = top then m.low_of.(f) else f)
            (if vg = top then m.low_of.(g) else g)
        in
        stack_push m lo;
        let hi =
          and_exists m cube
            (if vf = top then m.high_of.(f) else f)
            (if vg = top then m.high_of.(g) else g)
        in
        stack_drop m 1;
        mk m top lo hi
      end
    in
    cache_store m op_and_exists f g cube r;
    r
  end

(* [f] with [v := b], where the literal node [lit] keys the cache: walk to
   level [v] and take the branch *)
let rec cofactor_walk m v b lit f =
  if f < 2 then f
  else
    let fv = m.var_of.(f) in
    if fv > v then f
    else if fv = v then if b then m.high_of.(f) else m.low_of.(f)
    else
      let r = cache_find m op_constrain f lit 0 in
      if r >= 0 then r
      else begin
        let lo = cofactor_walk m v b lit m.low_of.(f) in
        stack_push m lo;
        let hi = cofactor_walk m v b lit m.high_of.(f) in
        stack_drop m 1;
        let r = mk m fv lo hi in
        cache_store m op_constrain f lit 0 r;
        r
      end

let cofactor m f v b =
  let lit = if b then mk m v zero one else mk m v one zero in
  cofactor_walk m v b lit f

let rec cofactor_cube m f cube =
  if cube = one || f < 2 then f
  else begin
    let cv = m.var_of.(cube) in
    let branch_high = m.high_of.(cube) <> zero in
    let next_cube = if branch_high then m.high_of.(cube) else m.low_of.(cube) in
    let fv = m.var_of.(f) in
    if cv < fv then cofactor_cube m f next_cube
    else if cv = fv then
      cofactor_cube m
        (if branch_high then m.high_of.(f) else m.low_of.(f))
        next_cube
    else
      let r = cache_find m op_constrain f cube 1 in
      if r >= 0 then r
      else begin
        let lo = cofactor_cube m m.low_of.(f) cube in
        stack_push m lo;
        let hi = cofactor_cube m m.high_of.(f) cube in
        stack_drop m 1;
        let r = mk m fv lo hi in
        cache_store m op_constrain f cube 1 r;
        r
      end
  end

let rec compose m f v g =
  if f < 2 || m.var_of.(f) > v then f
  else if m.var_of.(f) = v then ite m g m.high_of.(f) m.low_of.(f)
  else
    let r = cache_find m op_compose f g v in
    if r >= 0 then r
    else begin
      let lo = compose m m.low_of.(f) v g in
      stack_push m lo;
      let hi = compose m m.high_of.(f) v g in
      stack_push m hi;
      (* [g] may mention variables above [var f], so rebuild with ite *)
      let vb = mk m m.var_of.(f) zero one in
      stack_push m vb;
      let r = ite m vb hi lo in
      stack_drop m 3;
      cache_store m op_compose f g v r;
      r
    end

(* [f ∧ g], or [-1] once it would create more than [max_new] fresh nodes.
   Every node the conjunction creates is reachable from its result, so an
   abort proves [size (f ∧ g) > max_new]. The nodes created before the
   abort stay in the store as garbage; their cache entries are valid. *)
let band_capped m f g ~max_new =
  let top = m.op_top and cap = m.fresh_left in
  let restore () =
    m.op_top <- top;
    m.fresh_left <- cap
  in
  m.fresh_left <- (if max_new < 0 then 0 else max_new);
  match ite m f g zero with
  | r ->
    m.fresh_left <- cap;
    r
  | exception Cap_reached ->
    restore ();
    -1
  | exception e ->
    restore ();
    raise e

(* [f → g] (CUDD's [Cudd_bddLeq]): a walk over the pair of graphs that
   stops at the first cofactor pair where [f] holds and [g] does not. It
   creates no node, so no collection can run inside it, and the cache
   holds its verdict as the constant [one] or [zero]. *)
let rec leq m f g =
  if f = g || f = zero || g = one then true
  else if f = one || g = zero then false
  else
    let r = cache_find m op_leq f g 0 in
    if r >= 0 then r = one
    else begin
      let vf = m.var_of.(f) and vg = m.var_of.(g) in
      let v = imin vf vg in
      let r =
        leq m
          (if vf = v then m.low_of.(f) else f)
          (if vg = v then m.low_of.(g) else g)
        && leq m
             (if vf = v then m.high_of.(f) else f)
             (if vg = v then m.high_of.(g) else g)
      in
      cache_store m op_leq f g 0 (if r then one else zero);
      r
    end
