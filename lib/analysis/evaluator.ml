module Tree = Ctree.Tree

type engine = Elmore_model | Arnoldi | Spice
type transition = Rise | Fall

let flip = function Rise -> Fall | Fall -> Rise

type run = {
  corner : Tech.Corner.t;
  transition : transition;
  latency : float array;
  slew : float array;
  worst_slew : float;
  worst_slew_node : int;
}

type t = {
  runs : run list;
  sinks : int array;
  skew_rise : float;
  skew_fall : float;
  skew : float;
  t_min : float;
  t_max : float;
  clr : float;
  slew_violations : int;
  cap_ok : bool;
  stats : Ctree.Stats.t;
}

(* Atomic: the suite runner fans whole flows out over domains, so the
   process-wide run count is bumped from several domains at once. *)
let counter = Atomic.make 0
let eval_count () = Atomic.get counter
let reset_eval_count () = Atomic.set counter 0

let solve_stage ?step ?mode ?fcache ?fp ?ws engine rc ~r_drv ~s_drv =
  match engine with
  | Elmore_model -> Elmore.solve rc ~r_drv ~s_drv
  | Arnoldi -> Moments.solve rc ~r_drv ~s_drv
  | Spice -> Transient.solve ?step ?mode ?fcache ?fp ?ws rc ~r_drv ~s_drv

(* The inverter's internal switching ramp: mostly a device property, with a
   mild dependence on how slowly the input arrives. Quantised to a ¼ ps
   grid so that last-bit noise in an upstream stage's slew cannot ripple a
   fresh (r_drv, s_drv) cache key into every downstream stage — any
   self-consistent evaluator is admissible (paper §V fn. 2), and both
   [evaluate] and [Incremental.refresh] share this exact function. *)
let internal_ramp_slew ~in_slew =
  let raw = Float.max 2.0 (0.15 *. in_slew) in
  Float.round (raw *. 4.) /. 4.

(* Chain one corner × source-transition pass over the stages. [solve] is
   indexed by the stage position so callers can attach per-stage cached
   state (fingerprints, factorisations) without recomputing it here. *)
let propagate_with ~solve tree stages (corner : Tech.Corner.t)
    source_transition =
  let n = Tree.size tree in
  let tech = Tree.tech tree in
  let latency = Array.make n nan in
  let slew = Array.make n nan in
  (* Per-driver launch state: arrival of the output ramp's 50 % point, the
     output transition, and the slew seen at the driver's input. *)
  let launch = Array.make n nan in
  let out_tr = Array.make n source_transition in
  let in_slew = Array.make n tech.Tech.source_slew in
  launch.(Tree.root tree) <- 0.;
  let worst_slew = ref 0. and worst_node = ref (-1) in
  Array.iteri
    (fun si { Rcnet.driver; rc } ->
      let tr = out_tr.(driver) in
      let r_base =
        match (Tree.node tree driver).Tree.kind with
        | Tree.Source -> tech.Tech.source_r
        | Tree.Buffer b ->
          (match tr with
          | Rise -> Tech.Composite.r_up b
          | Fall -> Tech.Composite.r_down b)
        | Tree.Internal | Tree.Sink _ ->
          invalid_arg "Evaluator: stage driven by a non-driver node"
      in
      let r_drv = r_base *. corner.Tech.Corner.r_scale in
      let s_drv =
        match (Tree.node tree driver).Tree.kind with
        | Tree.Source -> tech.Tech.source_slew
        | _ -> internal_ramp_slew ~in_slew:in_slew.(driver)
      in
      let results = solve si rc ~r_drv ~s_drv in
      Array.iteri
        (fun k (_, tap) ->
          let d, s = results.(k) in
          let arrival = launch.(driver) +. d in
          match tap with
          | Rcnet.Tap_sink id ->
            latency.(id) <- arrival;
            slew.(id) <- s;
            if s > !worst_slew then begin worst_slew := s; worst_node := id end
          | Rcnet.Tap_buffer id ->
            latency.(id) <- arrival;
            slew.(id) <- s;
            if s > !worst_slew then begin worst_slew := s; worst_node := id end;
            (match (Tree.node tree id).Tree.kind with
            | Tree.Buffer b ->
              let gate_delay =
                (Tech.Composite.d_intrinsic b *. corner.Tech.Corner.d_scale)
                +. (Tech.Composite.slew_coeff b *. s)
              in
              launch.(id) <- arrival +. gate_delay;
              in_slew.(id) <- s;
              out_tr.(id) <-
                (if Tech.Composite.inverting b then flip tr else tr)
            | _ -> invalid_arg "Evaluator: buffer tap on non-buffer node"))
        rc.Rcnet.taps)
    stages;
  { corner; transition = source_transition; latency; slew;
    worst_slew = !worst_slew; worst_slew_node = !worst_node }

let propagate ?step ?mode ?fcache ?fps ?ws engine tree stages corner
    source_transition =
  propagate_with
    ~solve:(fun si rc ~r_drv ~s_drv ->
      let fp = Option.map (fun a -> a.(si)) fps in
      solve_stage ?step ?mode ?fcache ?fp ?ws engine rc ~r_drv ~s_drv)
    tree stages corner source_transition

let spread latencies sinks =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun s ->
      let l = latencies.(s) in
      if not (Float.is_nan l) then begin
        if l < !lo then lo := l;
        if l > !hi then hi := l
      end)
    sinks;
  (!lo, !hi)

(* Corners are records; callers legitimately rebuild the corner list (e.g.
   variation sweeps), so identity is the name, not physical equality. *)
let corner_equal (a : Tech.Corner.t) (b : Tech.Corner.t) =
  a.Tech.Corner.name = b.Tech.Corner.name

(* Fold a set of per-corner/transition runs into the summary record.
   Shared verbatim by [evaluate] and [Incremental.refresh] so the two
   entry points cannot drift apart. *)
let summarize tree runs =
  let tech = Tree.tech tree in
  let sinks = Tree.sinks tree in
  let corners = tech.Tech.corners in
  let nominal = List.hd corners in
  let find corner tr =
    List.find
      (fun r -> corner_equal r.corner corner && r.transition = tr)
      runs
  in
  let skew_of r =
    let lo, hi = spread r.latency sinks in
    if Array.length sinks = 0 then 0. else hi -. lo
  in
  let nom_rise = find nominal Rise and nom_fall = find nominal Fall in
  let skew_rise = skew_of nom_rise and skew_fall = skew_of nom_fall in
  let lo_r, hi_r = spread nom_rise.latency sinks in
  let lo_f, hi_f = spread nom_fall.latency sinks in
  (* CLR: slowest corner's max latency minus fastest corner's min latency,
     per source transition. With one corner this degenerates to skew. *)
  let slow_corner =
    List.fold_left
      (fun acc c ->
        if c.Tech.Corner.r_scale > acc.Tech.Corner.r_scale then c else acc)
      nominal corners
  in
  let clr_of tr =
    let _, hi = spread (find slow_corner tr).latency sinks in
    let lo, _ = spread (find nominal tr).latency sinks in
    hi -. lo
  in
  let clr = Float.max (clr_of Rise) (clr_of Fall) in
  (* Last line of defence: a NaN here would silently disable every
     downstream comparison (minimax selection, violation gates). Infinity
     is allowed — truncated transient marches report it intentionally. *)
  let t_min = Float.min lo_r lo_f and t_max = Float.max hi_r hi_f in
  if
    Float.is_nan skew_rise || Float.is_nan skew_fall || Float.is_nan clr
    || Float.is_nan t_min || Float.is_nan t_max
  then
    Numerics.fail
      "evaluator summarize: NaN summary (skew_r=%g skew_f=%g clr=%g)"
      skew_rise skew_fall clr;
  let slew_violations =
    List.fold_left
      (fun acc r ->
        acc
        + Array.fold_left
            (fun acc s ->
              if (not (Float.is_nan s)) && s > tech.Tech.slew_limit then acc + 1
              else acc)
            0 r.slew)
      0 runs
  in
  let stats = Ctree.Stats.compute tree in
  {
    runs;
    sinks;
    skew_rise;
    skew_fall;
    skew = Float.max skew_rise skew_fall;
    t_min;
    t_max;
    clr;
    slew_violations;
    cap_ok = stats.Ctree.Stats.total_cap <= tech.Tech.cap_limit;
    stats;
  }

(* [?flat] selected the flat-arena engine, since removed. The argument
   stays until the benchmark harness stops passing it; [true] raises
   rather than being silently ignored. *)
let reject_flat flat =
  if flat then
    invalid_arg
      "Evaluator: the flat-arena engine was removed; flat must be false"

let evaluate ?(engine = Spice) ?(flat = false) ?seg_len ?transient_step
    ?transient_mode tree =
  reject_flat flat;
  Atomic.incr counter;
  let corners = (Tree.tech tree).Tech.corners in
  let stages = Array.of_list (Rcnet.stages ?seg_len tree) in
  (* Scoped to this call: one workspace and one factorisation cache let
     the corner × transition runs share per-stage factorisations (and,
     in the adaptive modes, the coarse-rate factors) without allocating
     state arrays per stage. Numerics are unchanged — a cached factor is
     bit-identical to a recomputed one. *)
  let fcache, ws, fps =
    match engine with
    | Spice ->
      ( Some (Transient.Fcache.create ()),
        Some (Transient.domain_workspace ()),
        Some (Array.map (fun st -> Rcnet.fingerprint st.Rcnet.rc) stages) )
    | Arnoldi | Elmore_model -> (None, None, None)
  in
  let runs =
    List.concat_map
      (fun corner ->
        List.map
          (propagate ?step:transient_step ?mode:transient_mode ?fcache ?fps
             ?ws engine tree stages corner)
          [ Rise; Fall ])
      corners
  in
  summarize tree runs

let nominal_run t tr =
  let nominal = (List.hd t.runs).corner in
  List.find
    (fun r -> r.transition = tr && corner_equal r.corner nominal)
    t.runs

let ok t = t.slew_violations = 0 && t.cap_ok

let pp_summary ppf t =
  Format.fprintf ppf
    "skew=%.3fps (r %.3f / f %.3f) clr=%.3fps lat=[%.1f,%.1f]ps slewviol=%d%s"
    t.skew t.skew_rise t.skew_fall t.clr t.t_min t.t_max t.slew_violations
    (if t.cap_ok then "" else " CAP-OVER")

type cache_stats = {
  hits : int;
  misses : int;
  refreshes : int;
  fast_refreshes : int;
  dirty_refreshes : int;
  entries : int;
  factored_entries : int;
  store_hits : int;
  store_misses : int;
}

(* A journaled edit, as reported by the tree journal: the revision the
   edit started from and the node ids it touched. Sessions chain hints —
   a hint anchored at the revision the session last saw lets a refresh
   re-extract only the stages those nodes live in. *)
type edit_hint = { base_revision : int; nodes : int list }

module Store = struct
  (* Cross-session stage-result sharing for a long-lived process: the
     same content-derived (fingerprint, r_drv, s_drv) keys the per-slot
     caches use, behind a lock-striped bounded table safe from any
     domain. Result arrays are written once by the solving engine and
     only read afterwards, so handing one array to several sessions is
     race-free. Sessions sharing a store MUST be numerically identical
     (same engine, transient step and mode) — the keys do not encode the
     config, the owner of the store does (the serve daemon keys stores
     per config family, and Flow skips the store on degraded retries). *)
  type key = Int64.t * float * float

  type stripe = {
    lock : Mutex.t;
    tbl : (key, (float * float) array) Hashtbl.t;
  }

  type t = {
    stripes : stripe array;
    stripe_cap : int;
    evictions : int Atomic.t;
    fstore : Transient.Fstore.t;
  }

  (* Per-request view: the shared store plus this request's own hit/miss
     counters (atomic — the parallel corner × transition slots of one
     session bump them from several domains). A miss is counted only by
     the [add] that inserts a key, and a lookup that loses the race to
     another slot's [add] counts as a hit there: two slots meeting one
     key give one miss and one hit whichever runs first, so the counts
     do not depend on scheduling. *)
  type handle = {
    store : t;
    h_hits : int Atomic.t;
    h_misses : int Atomic.t;
  }

  let create ?(stripes = 16) ?(cap = 262_144) () =
    let nstripes = max 1 stripes in
    { stripes =
        Array.init nstripes (fun _ ->
            { lock = Mutex.create (); tbl = Hashtbl.create 1024 });
      stripe_cap = max 16 (cap / nstripes);
      evictions = Atomic.make 0;
      fstore = Transient.Fstore.create () }

  let stripe_of t ((fp, _, _) : key) =
    t.stripes.((Int64.to_int fp land max_int) mod Array.length t.stripes)

  let handle t = { store = t; h_hits = Atomic.make 0; h_misses = Atomic.make 0 }
  let of_handle h = h.store
  let fstore t = t.fstore

  let find h key =
    let s = stripe_of h.store key in
    Mutex.lock s.lock;
    let r = Hashtbl.find_opt s.tbl key in
    Mutex.unlock s.lock;
    if Option.is_some r then Atomic.incr h.h_hits;
    r

  let add h key v =
    let t = h.store in
    let s = stripe_of t key in
    Mutex.lock s.lock;
    let fresh = not (Hashtbl.mem s.tbl key) in
    if fresh then begin
      if Hashtbl.length s.tbl >= t.stripe_cap then begin
        (* Random-subset eviction: drop a quarter of the stripe in hash
           order — effectively random keys, never the one being added. *)
        let drop = max 1 (t.stripe_cap / 4) in
        let doomed = ref [] and k = ref 0 in
        (try
           Hashtbl.iter
             (fun key _ ->
               if !k >= drop then raise Exit;
               doomed := key :: !doomed;
               incr k)
             s.tbl
         with Exit -> ());
        List.iter (Hashtbl.remove s.tbl) !doomed;
        ignore (Atomic.fetch_and_add t.evictions !k)
      end;
      Hashtbl.add s.tbl key v
    end;
    Mutex.unlock s.lock;
    Atomic.incr (if fresh then h.h_misses else h.h_hits)

  let hits h = Atomic.get h.h_hits
  let misses h = Atomic.get h.h_misses

  let length t =
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.lock;
        let n = Hashtbl.length s.tbl in
        Mutex.unlock s.lock;
        acc + n)
      0 t.stripes

  let evictions t = Atomic.get t.evictions

  let clear t =
    Array.iter
      (fun s ->
        Mutex.lock s.lock;
        Hashtbl.reset s.tbl;
        Mutex.unlock s.lock)
      t.stripes;
    Transient.Fstore.clear t.fstore
end

module Incremental = struct
  (* One (corner × source transition) evaluation pass owns its own cache
     so the domain-parallel phase shares no mutable state between jobs:
     results are deterministic regardless of scheduling, and no locks are
     taken on the hot path. The key is the stage's content fingerprint
     plus the driver parameters — correctness does not depend on the tree
     revision counter, which is only a whole-result fast path. *)
  type slot = {
    s_corner : Tech.Corner.t;
    s_transition : transition;
    cache : (Int64.t * float * float, (float * float) array) Hashtbl.t;
    (* Per-slot kernel state: workspaces are mutable scratch and the
       factorisation cache fills lazily (the adaptive kernel factors its
       coarse rates on first use), so each domain-parallel pass owns its
       own pair. The caches read through the session's lock-striped
       {!Transient.Fstore}; a factorisation is a pure function of its
       key, so which slot factors it first never changes a result. *)
    s_fcache : Transient.Fcache.t;
    s_ws : Transient.workspace;
    mutable hits : int;
    mutable misses : int;
  }

  type session = {
    engine : engine;
    seg_len : int option;
    parallel : bool;
    tstep : float option;
    tmode : Transient.mode option;
    (* Shared cross-session store this session reads through (and
       publishes to), or [None] for a self-contained session. *)
    store : Store.handle option;
    (* The slots' shared factorisation table: the store's when there is
       one, else session-local. *)
    fstore : Transient.Fstore.t;
    mutable tree : Tree.t;
    slots : slot array;
    (* Probe calls come from the session's own thread (tests, debugging),
       never from the parallel phase; they get a dedicated cache and
       workspace so they cannot disturb the slots'. *)
    probe_fcache : Transient.Fcache.t;
    probe_ws : Transient.workspace;
    mutable last : t option;
    mutable last_revision : int;
    mutable last_tree : Tree.t;
    mutable refreshes : int;
    mutable fast_refreshes : int;
    mutable dirty_refreshes : int;
    (* Stage caches for the dirty-set fast path. [c_stages]/[c_fps] hold
       the extraction the session last computed; [c_stage_of] maps a tree
       node to the stage owning its parent wire and [c_driven] maps a
       driver node to the stage it drives. [anchor_rev] is the tree
       revision the caches describe, advanced by [note_edits] as journaled
       edits are reported; [pending] accumulates their touched nodes until
       the next refresh. Any unreported mutation breaks the chain and the
       next refresh falls back to a full extraction. *)
    mutable c_stages : Rcnet.stage array;
    mutable c_fps : Int64.t array;
    mutable c_stage_of : int array;
    mutable c_driven : int array;
    mutable stages_tree : Tree.t;
    mutable anchor_rev : int;
    mutable pending : int list;
  }

  (* Reset-on-overflow cap: generous enough that a full Flow run never
     trips it, small enough to bound memory on pathological inputs.
     (Factorisation caches carry their own cap; see Transient.Fcache.) *)
  let cache_cap = 200_000

  let create ?(engine = Spice) ?(flat = false) ?seg_len ?(parallel = true)
      ?transient_step ?transient_mode ?store tree =
    reject_flat flat;
    let corners = (Tree.tech tree).Tech.corners in
    (* Per-slot factorisation caches read through one shared
       factorisation table. The factor excludes the driver conductance,
       so every corner × transition slot that meets a stage at a step
       can use the same one: without a store the table is
       session-local; with one it is the store's, so a repeat request
       re-solves its stages without re-factoring them even when the
       result store has turned the entries over. *)
    let fstore =
      match store with
      | Some h -> Store.fstore (Store.of_handle h)
      | None -> Transient.Fstore.create ()
    in
    let slots =
      Array.of_list
        (List.concat_map
           (fun corner ->
             List.map
               (fun tr ->
                 { s_corner = corner; s_transition = tr;
                   cache = Hashtbl.create 1024;
                   s_fcache = Transient.Fcache.create ~store:fstore ();
                   s_ws = Transient.workspace (); hits = 0; misses = 0 })
               [ Rise; Fall ])
           corners)
    in
    { engine; seg_len; parallel; tstep = transient_step;
      tmode = transient_mode; store; fstore; tree; slots;
      probe_fcache = Transient.Fcache.create ();
      probe_ws = Transient.workspace (); last = None; last_revision = -1;
      last_tree = tree; refreshes = 0; fast_refreshes = 0;
      dirty_refreshes = 0; c_stages = [||]; c_fps = [||];
      c_stage_of = [||]; c_driven = [||]; stages_tree = tree;
      anchor_rev = -1; pending = [] }

  let run_slot session stages fps slot =
    let solve si rc ~r_drv ~s_drv =
      let key = (fps.(si), r_drv, s_drv) in
      match Hashtbl.find_opt slot.cache key with
      | Some r ->
        slot.hits <- slot.hits + 1;
        r
      | None ->
        slot.misses <- slot.misses + 1;
        let r =
          (* Local miss: another request may already have solved this
             exact stage — consult the shared store before the engine. *)
          match Option.bind session.store (fun h -> Store.find h key) with
          | Some r -> r
          | None ->
            let r =
              match session.engine with
              | Spice ->
                Transient.solve ?step:session.tstep ?mode:session.tmode
                  ~fcache:slot.s_fcache ~fp:fps.(si) ~ws:slot.s_ws rc ~r_drv
                  ~s_drv
              | Arnoldi ->
                (* Newton-polished crossings: same roots as [Moments.solve]
                   to ~1e-12 ps at a fraction of the cost (see moments.mli). *)
                Moments.solve_fast rc ~r_drv ~s_drv
              | Elmore_model -> solve_stage session.engine rc ~r_drv ~s_drv
            in
            (match session.store with
            | Some h -> Store.add h key r
            | None -> ());
            r
        in
        if Hashtbl.length slot.cache >= cache_cap then Hashtbl.reset slot.cache;
        Hashtbl.add slot.cache key r;
        r
    in
    propagate_with ~solve session.tree stages slot.s_corner slot.s_transition

  let run_all session =
    let stages = session.c_stages and fps = session.c_fps in
    let runs =
      if session.parallel && Array.length session.slots > 1 then
        Domain_pool.map (Domain_pool.global ())
          (run_slot session stages fps)
          session.slots
      else Array.map (run_slot session stages fps) session.slots
    in
    summarize session.tree (Array.to_list runs)

  (* Node → stage maps for the dirty fast path: a stage is dirtied when
     a node whose parent wire it contains (or a buffer whose drive it
     provides) is edited. Unreachable (detached) nodes keep -1, which
     forces any edit touching them back to a full extraction. *)
  let stage_maps tree stages =
    let n = Tree.size tree in
    let stage_of = Array.make n (-1) in
    let driven = Array.make n (-1) in
    Array.iteri (fun si st -> driven.(st.Rcnet.driver) <- si) stages;
    Array.iter
      (fun id ->
        let nd = Tree.node tree id in
        if nd.Tree.parent >= 0 then
          stage_of.(id) <-
            (if driven.(nd.Tree.parent) >= 0 then driven.(nd.Tree.parent)
             else stage_of.(nd.Tree.parent)))
      (Tree.topo_order tree);
    (stage_of, driven)

  let full_refresh session =
    let tree = session.tree in
    let stages = Array.of_list (Rcnet.stages ?seg_len:session.seg_len tree) in
    let fps = Array.map (fun st -> Rcnet.fingerprint st.Rcnet.rc) stages in
    let stage_of, driven = stage_maps tree stages in
    session.c_stages <- stages;
    session.c_fps <- fps;
    session.c_stage_of <- stage_of;
    session.c_driven <- driven;
    session.stages_tree <- tree;
    session.anchor_rev <- Tree.revision tree;
    session.pending <- [];
    run_all session

  (* Which stage indices does the accumulated dirty set cover? [None]
     means the hint chain cannot be trusted (broken anchor, unmapped
     node, tree rebound or resized) and a full extraction is needed. *)
  let dirty_plan session ~edits ~rev =
    if
      session.stages_tree != session.tree
      || session.anchor_rev < 0
      || Array.length session.c_stage_of <> Tree.size session.tree
    then None
    else
      let nodes =
        match edits with
        | Some e ->
          if e.base_revision = session.anchor_rev then
            Some (List.rev_append e.nodes session.pending)
          else None
        | None -> if session.anchor_rev = rev then Some session.pending else None
      in
      match nodes with
      | None -> None
      | Some nodes ->
        let rec go acc = function
          | [] -> Some (List.sort_uniq compare acc)
          | id :: rest ->
            if id < 0 || id >= Tree.size session.tree then None
            else
              let si = session.c_stage_of.(id) in
              if si < 0 then None
              else begin
                match (Tree.node session.tree id).Tree.kind with
                | Tree.Buffer _ ->
                  (* A rescaled buffer changes its input cap (upstream
                     stage) and its drive (the stage it owns). *)
                  let di = session.c_driven.(id) in
                  if di < 0 then None else go (di :: si :: acc) rest
                | _ -> go (si :: acc) rest
              end
        in
        go [] (List.sort_uniq compare nodes)

  (* Re-extract only the dirty stages; every slot then re-propagates over
     the cached stage array, hitting its solve cache on the clean ones
     (the downstream-latency cone is handled by the propagation itself —
     arrival chaining is recomputed for free, only dirty-stage solves
     miss). *)
  let dirty_refresh session dirty rev =
    session.dirty_refreshes <- session.dirty_refreshes + 1;
    List.iter
      (fun si ->
        let driver = session.c_stages.(si).Rcnet.driver in
        let st = Rcnet.stage_for ?seg_len:session.seg_len session.tree ~driver in
        session.c_stages.(si) <- st;
        session.c_fps.(si) <- Rcnet.fingerprint st.Rcnet.rc)
      dirty;
    session.anchor_rev <- rev;
    session.pending <- [];
    run_all session

  let refresh ?tree ?edits session =
    (match tree with Some t -> session.tree <- t | None -> ());
    Atomic.incr counter;
    session.refreshes <- session.refreshes + 1;
    let rev = Tree.revision session.tree in
    match session.last with
    | Some res when session.last_tree == session.tree && session.last_revision = rev ->
      session.fast_refreshes <- session.fast_refreshes + 1;
      res
    | _ ->
      let res =
        match dirty_plan session ~edits ~rev with
        | Some dirty -> dirty_refresh session dirty rev
        | None -> full_refresh session
      in
      session.last <- Some res;
      session.last_revision <- Tree.revision session.tree;
      session.last_tree <- session.tree;
      res

  let note_edits session ~edits ~new_revision =
    match edits with
    | Some e
      when session.stages_tree == session.tree
           && session.anchor_rev >= 0
           && e.base_revision = session.anchor_rev ->
      session.pending <- List.rev_append e.nodes session.pending;
      session.anchor_rev <- new_revision
    | _ ->
      (* Unreported or unanchored mutation: the next refresh must
         re-extract everything. *)
      session.anchor_rev <- -1;
      session.pending <- []

  let probe session rc ~r_drv ~s_drv ~node ~times =
    Transient.probe ?step:session.tstep ~fcache:session.probe_fcache
      ~ws:session.probe_ws rc ~r_drv ~s_drv ~node ~times

  let stats session =
    let hits = Array.fold_left (fun a s -> a + s.hits) 0 session.slots in
    let misses = Array.fold_left (fun a s -> a + s.misses) 0 session.slots in
    let entries =
      Array.fold_left (fun a s -> a + Hashtbl.length s.cache) 0 session.slots
    in
    let factored_entries =
      Transient.Fcache.length session.probe_fcache
      + Array.fold_left
          (fun a s ->
            a + Transient.Fcache.length s.s_fcache)
          0 session.slots
    in
    let store_hits, store_misses =
      match session.store with
      | Some h -> (Store.hits h, Store.misses h)
      | None -> (0, 0)
    in
    { hits; misses; refreshes = session.refreshes;
      fast_refreshes = session.fast_refreshes;
      dirty_refreshes = session.dirty_refreshes; entries; factored_entries;
      store_hits; store_misses }

  let invalidate session =
    Array.iter
      (fun s ->
        Hashtbl.reset s.cache;
        Transient.Fcache.clear s.s_fcache;
        s.hits <- 0;
        s.misses <- 0)
      session.slots;
    Transient.Fcache.clear session.probe_fcache;
    (* A store's table belongs to the store; a session-local one goes. *)
    if Option.is_none session.store then Transient.Fstore.clear session.fstore;
    session.last <- None;
    session.last_revision <- -1;
    session.anchor_rev <- -1;
    session.pending <- []
end
