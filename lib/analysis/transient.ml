(* Backward Euler on the MNA of an RC tree:
     (C/h + G) v_{t+h} = (C/h) v_t + i_src(t+h)
   where G is the conductance Laplacian of the tree edges plus the driver
   conductance at the root. Because the matrix is tree-structured and
   constant, a single leaf-elimination factorisation is computed up front
   and every step costs two O(n) sweeps. Conductances are in 1/Ω, caps in
   fF, time in ps: i = C dv/dt gives (fF/ps) · V = mA·10⁻³... all terms are
   scaled consistently by expressing capacitance as cap·1e-3 fF/ps units
   (Ω·fF = 10⁻³ ps).

   The driver conductance 1/r_drv appears only in the root's diagonal
   entry, and the leaf elimination (children before parents) never reads
   the root diagonal while eliminating. The factorisation below therefore
   excludes the driver term entirely: the effective root diagonal is
   reconstructed as [dfact.(0) +. g0] at solve time, which lets one
   factorisation be shared across arbitrary driver resistances.

   Stepping controller (the adaptive modes). A fixed fine march spends
   most of its steps where nothing observable happens: the input ramp is
   over within a few ps, and each watched node only needs fine resolution
   inside the windows that contain its 10/50/90 % crossings. The adaptive
   march therefore:

     1. fine-steps through the driver ramp plus four coarse windows (the
        input kink and the fast modes it excites live here);
     2. runs THREE coarse backward-Euler marches in lockstep, with steps
        a = mult·h, b = a/2 and c = a/4, from the shared fine state.
        Backward Euler's global error has an asymptotic expansion in
        powers of the step size, so at every coarse boundary the three
        states are extrapolated in the step down to the fine step h by
        the quadratic Lagrange fit through (a, v_a), (b, v_b), (c, v_c).
        The extrapolated state tracks the fixed-fine-step march to
        O(a·b·c) — not merely the exact solution, which the fine march
        itself misses by O(h);
     3. scans only the live frontier of watched nodes at each boundary.
        When an extrapolated value brackets a pending threshold, the
        window is rewound: the full extrapolated entry state is rebuilt
        and the window re-integrated at the fine step, firing crossings
        exactly like the reference march. All coarse marches restart
        from the fine exit state.

   Crossing-time agreement with the fixed-fine reference is set by the
   extrapolation residual. For a single pole τ the backward-Euler march
   at step h follows exp with effective constant τ_eff = h/ln(1+h/τ)
   = τ·(1 + x/2 − x²/12 + x³/24 − …), x = h/τ; the quadratic fit
   cancels the x and x² terms, leaving a slew residual
   ≈ ln 9·(a·b·c)/(24·τ²) ≈ 0.011·a³/τ² ps. The Auto controller picks
   a ≈ 0.8·τ^⅔ (both in ps), keeping that residual ≈ 0.006 ps — an
   order under the documented 0.05 ps tolerance — while a quiet window
   costs 7 solves instead of mult, saving ~mult/7 outside crossing
   windows. *)

type factored = {
  g : float array;      (* edge conductance to parent; g.(0) unused (0.) *)
  dfact : float array;  (* factored diagonal, WITHOUT the driver term at 0 *)
  c_over_h : float array;
  h : float;            (* the timestep the factorisation assumed *)
}

let default_step = 0.5

let factor ?(step = default_step) (rc : Rcnet.t) =
  let n = rc.size in
  let g = Array.make n 0. in
  for i = 1 to n - 1 do
    (* Zero-length wires can produce 0 Ω segments; clamp for stability. *)
    g.(i) <- 1. /. Float.max rc.res.(i) 1e-6
  done;
  let c_over_h = Array.map (fun c -> c *. Tech.Units.rc_to_ps /. step) rc.cap in
  let dfact = Array.make n 0. in
  for i = 0 to n - 1 do
    dfact.(i) <- c_over_h.(i) +. g.(i)
  done;
  (* Children contribute g to their parent's diagonal. *)
  for i = 1 to n - 1 do
    dfact.(rc.parent.(i)) <- dfact.(rc.parent.(i)) +. g.(i)
  done;
  (* Leaf elimination, children before parents (indices are topological). *)
  for i = n - 1 downto 1 do
    let p = rc.parent.(i) in
    dfact.(p) <- dfact.(p) -. (g.(i) *. g.(i) /. dfact.(i))
  done;
  { g; dfact; c_over_h; h = step }

(* One implicit step from state [vin] to state [vout] (they may alias):
   source voltage vs at t+h, driver conductance g0 = 1/r_drv. [vin] is
   only read by the forward sweep, so in-place stepping is safe.

   The three sweeps read and write without bounds checks. Callers pay
   for that once per march instead ([check_stage], [check_factored]):
   [rc.parent] and every factored array hold at least [rc.size] entries,
   [0 <= parent.(i) < i], and [r]/[vin]/[vout] are workspace or probe
   buffers of at least [rc.size] entries. The arithmetic and its order
   are those of the checked sweeps, so results are bit-identical to
   them. *)
let step_solve (rc : Rcnet.t) f ~g0 ~vs ~vin ~vout ~r =
  let n = rc.size in
  let parent = rc.parent in
  let c_over_h = f.c_over_h and g = f.g and dfact = f.dfact in
  for i = 0 to n - 1 do
    Array.unsafe_set r i
      (Array.unsafe_get c_over_h i *. Array.unsafe_get vin i)
  done;
  r.(0) <- r.(0) +. (g0 *. vs);
  for i = n - 1 downto 1 do
    let p = Array.unsafe_get parent i in
    Array.unsafe_set r p
      (Array.unsafe_get r p
      +. (Array.unsafe_get g i /. Array.unsafe_get dfact i
         *. Array.unsafe_get r i))
  done;
  vout.(0) <- r.(0) /. (dfact.(0) +. g0);
  for i = 1 to n - 1 do
    Array.unsafe_set vout i
      ((Array.unsafe_get r i
       +. (Array.unsafe_get g i
          *. Array.unsafe_get vout (Array.unsafe_get parent i)))
      /. Array.unsafe_get dfact i)
  done

(* The once-per-march validation behind [step_solve]'s unchecked sweeps. *)
let check_stage (rc : Rcnet.t) =
  let n = rc.size in
  if Array.length rc.parent < n || Array.length rc.res < n
     || Array.length rc.cap < n
  then invalid_arg "Transient: RC arrays shorter than the stage size";
  for i = 1 to n - 1 do
    let p = rc.parent.(i) in
    if p < 0 || p >= i then
      invalid_arg "Transient: RC parent indices not topological"
  done

(* A factorisation from another stage — a stale [~factored], or an
   [Fcache] key collision between 64-bit fingerprints — must raise, not
   read past the end of its arrays. *)
let check_factored (rc : Rcnet.t) f =
  let n = rc.size in
  if Array.length f.g < n || Array.length f.dfact < n
     || Array.length f.c_over_h < n
  then invalid_arg "Transient: factorisation smaller than the stage"

let ramp_voltage ~ramp t = if t <= 0. then 0. else if t >= ramp then 1. else t /. ramp

let default_max_steps = 2_000_000

let thresholds = [| 0.1; 0.5; 0.9 |]

(* ------------------------------------------------------------------ *)
(* Workspace                                                           *)
(* ------------------------------------------------------------------ *)

type workspace = {
  mutable cap_n : int;          (* capacity of the node-sized arrays *)
  mutable v : float array;      (* fine-march state *)
  mutable r : float array;      (* solve residual *)
  mutable va0 : float array;    (* a-march: window entry / exit (swapped) *)
  mutable va1 : float array;
  mutable vb0 : float array;    (* b-march: entry / exit *)
  mutable vb1 : float array;
  mutable vc0 : float array;    (* c-march: entry / exit *)
  mutable vc1 : float array;
  mutable cap_w : int;          (* capacity of the watch-sized arrays *)
  mutable prev : float array;   (* last scanned value per watch slot *)
  mutable nextk : int array;    (* next pending threshold per watch slot *)
  mutable live : int array;     (* compact frontier of uncrossed slots *)
}

let workspace () =
  { cap_n = 0; v = [||]; r = [||]; va0 = [||]; va1 = [||]; vb0 = [||];
    vb1 = [||]; vc0 = [||]; vc1 = [||]; cap_w = 0; prev = [||];
    nextk = [||]; live = [||] }

(* One lazily-created workspace per domain — the fallback when a caller
   passes no [?ws], so ad-hoc solves on a pool worker (the regional
   flow's per-region extractions, one-off probes) reuse the grown state
   arrays across calls instead of reallocating them. *)
let domain_workspace_key = Domain.DLS.new_key workspace
let domain_workspace () = Domain.DLS.get domain_workspace_key

let grow ws ~n ~w =
  if ws.cap_n < n then begin
    let c = Int.max n (Int.max 64 (2 * ws.cap_n)) in
    ws.v <- Array.make c 0.;
    ws.r <- Array.make c 0.;
    ws.va0 <- Array.make c 0.;
    ws.va1 <- Array.make c 0.;
    ws.vb0 <- Array.make c 0.;
    ws.vb1 <- Array.make c 0.;
    ws.vc0 <- Array.make c 0.;
    ws.vc1 <- Array.make c 0.;
    ws.cap_n <- c
  end;
  if ws.cap_w < w then begin
    let c = Int.max w (Int.max 16 (2 * ws.cap_w)) in
    ws.prev <- Array.make c 0.;
    ws.nextk <- Array.make c 0;
    ws.live <- Array.make c 0;
    ws.cap_w <- c
  end

(* ------------------------------------------------------------------ *)
(* Factorisation cache                                                 *)
(* ------------------------------------------------------------------ *)

(* Second-chance ("clock") eviction shared by the bounded factorisation
   caches. The old behaviour at capacity was [Hashtbl.reset] — harmless
   in a one-shot flow whose working set never reaches the cap, but in a
   long-lived server it dumps every warm factorisation at once and then
   thrashes at the cap boundary. Instead, entries carry a [used] bit set
   on every hit; insertion at capacity rotates a FIFO ring, giving used
   entries a second chance (clearing the bit) and evicting the first
   cold one. The entry being inserted is never a candidate — it joins
   the ring only after room has been made. *)
type 'v centry = { cv : 'v; mutable used : bool }

let clock_find tbl key =
  match Hashtbl.find_opt tbl key with
  | Some e ->
    e.used <- true;
    Some e.cv
  | None -> None

let clock_insert tbl ring ~cap key v =
  if Hashtbl.length tbl >= cap then begin
    (* Terminates: a full rotation clears every [used] flag it sees, so
       within 2·|ring| pops a cold entry is found. *)
    let budget = ref (2 * Queue.length ring) in
    let evicted = ref false in
    while (not !evicted) && !budget > 0 do
      decr budget;
      match Queue.pop ring with
      | exception Queue.Empty -> evicted := true
      | k -> (
        match Hashtbl.find_opt tbl k with
        | Some e when e.used ->
          e.used <- false;
          Queue.add k ring
        | Some _ ->
          Hashtbl.remove tbl k;
          evicted := true
        | None -> ())
    done
  end;
  Hashtbl.add tbl key { cv = v; used = false };
  Queue.add key ring

(* Factorisation store shared across independent caches (the slots of
   an evaluator session and, in the serve daemon, requests): a
   lock-striped bounded table safe to touch from any domain. [factored]
   values are immutable after {!factor} returns, so sharing them across
   domains is free of data races; only the stripe tables need the
   locks. *)
module Fstore = struct
  type stripe = {
    lock : Mutex.t;
    tbl : (int64 * float, factored) Hashtbl.t;
  }

  type t = {
    stripes : stripe array;
    stripe_cap : int;
    evictions : int Atomic.t;
  }

  let create ?(stripes = 16) ?(cap = 16384) () =
    let nstripes = Int.max 1 stripes in
    {
      stripes =
        Array.init nstripes (fun _ ->
            { lock = Mutex.create (); tbl = Hashtbl.create 64 });
      stripe_cap = Int.max 1 (cap / nstripes);
      evictions = Atomic.make 0;
    }

  let stripe t ((fp, _) : int64 * float) =
    t.stripes.((Int64.to_int fp land max_int) mod Array.length t.stripes)

  let find t key =
    let s = stripe t key in
    Mutex.lock s.lock;
    let r = Hashtbl.find_opt s.tbl key in
    Mutex.unlock s.lock;
    r

  let add t key f =
    let s = stripe t key in
    Mutex.lock s.lock;
    if not (Hashtbl.mem s.tbl key) then begin
      if Hashtbl.length s.tbl >= t.stripe_cap then begin
        (* Random-subset eviction: drop a quarter of the stripe in hash
           order — bounded, incremental, and never the entry about to be
           inserted. *)
        let drop = Int.max 1 (t.stripe_cap / 4) in
        let doomed = ref [] and n = ref 0 in
        (try
           Hashtbl.iter
             (fun k _ ->
               if !n >= drop then raise Exit;
               doomed := k :: !doomed;
               incr n)
             s.tbl
         with Exit -> ());
        List.iter (Hashtbl.remove s.tbl) !doomed;
        ignore (Atomic.fetch_and_add t.evictions !n)
      end;
      Hashtbl.add s.tbl key f
    end;
    Mutex.unlock s.lock

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
      t.stripes
end

module Fcache = struct
  type nonrec t = {
    tbl : (int64 * float, factored centry) Hashtbl.t;
    ring : (int64 * float) Queue.t;
    cap : int;
    store : Fstore.t option;
  }

  let create ?(cap = 4096) ?store () =
    { tbl = Hashtbl.create 64; ring = Queue.create (); cap; store }

  let get c ?fp rc ~step =
    let fp = match fp with Some f -> f | None -> Rcnet.fingerprint rc in
    let key = (fp, step) in
    match clock_find c.tbl key with
    | Some f -> f
    | None -> (
      (* A cached factor is bit-identical to a recomputed one, so the
         shared store changes wall-clock only, never numerics. *)
      match Option.bind c.store (fun s -> Fstore.find s key) with
      | Some f ->
        clock_insert c.tbl c.ring ~cap:c.cap key f;
        f
      | None ->
        let f = factor ~step rc in
        clock_insert c.tbl c.ring ~cap:c.cap key f;
        Option.iter (fun s -> Fstore.add s key f) c.store;
        f)

  let length c = Hashtbl.length c.tbl

  let clear c =
    Hashtbl.reset c.tbl;
    Queue.clear c.ring
end

(* Steps composed arithmetically (mult *. step /. mult, corner scaling…)
   may differ from the factorisation's in the last bits; accept them
   within a relative epsilon instead of tripping on exact inequality. *)
let step_matches f step =
  Float.abs (f.h -. step) <= 1e-9 *. Float.max (Float.abs f.h) (Float.abs step)

let get_factored ?factored ?fcache ?fp ~step rc =
  match factored with
  | Some f ->
    if not (step_matches f step) then
      invalid_arg "Transient: factored timestep mismatch";
    f
  | None -> (
    match fcache with
    | Some c -> Fcache.get c ?fp rc ~step
    | None -> factor ~step rc)

(* ------------------------------------------------------------------ *)
(* Stepping controller                                                 *)
(* ------------------------------------------------------------------ *)

type mode =
  | Fixed
  | Adaptive of { mult : int }
  | Auto of { max_mult : int }

let default_mode = Auto { max_mult = 32 }

(* Coarse window target a ≈ coeff·τ^⅔ keeps the extrapolation residual
   ≈ 0.011·coeff³ ps regardless of τ (see the header note); 0.8 leaves
   an order of magnitude under the 0.05 ps tolerance for multi-pole
   stages whose residual constants exceed the single-pole estimate. *)
let auto_window_coeff = 0.8

(* Smallest watched first moment (≈ the fastest tap's dominant time
   constant, driver included), using caller scratch to stay
   allocation-free. *)
let stage_tau (rc : Rcnet.t) ~r_drv ~watch ~down ~m =
  let n = rc.size in
  Array.blit rc.cap 0 down 0 n;
  for i = n - 1 downto 1 do
    down.(rc.parent.(i)) <- down.(rc.parent.(i)) +. down.(i)
  done;
  m.(0) <- Tech.Units.ps_of_rc r_drv down.(0);
  for i = 1 to n - 1 do
    m.(i) <- m.(rc.parent.(i)) +. Tech.Units.ps_of_rc rc.res.(i) down.(i)
  done;
  let tau = ref infinity in
  Array.iter (fun wi -> if m.(wi) < !tau then tau := m.(wi)) watch;
  if Float.is_finite !tau then !tau else 0.

let resolve_mult mode (rc : Rcnet.t) ~r_drv ~watch ~step ~down ~m =
  match mode with
  | Fixed -> 1
  | Adaptive { mult } -> if mult < 2 then 1 else 2 * (mult / 2)
  | Auto { max_mult } ->
    if Array.length watch = 0 then 1
    else begin
      let tau = stage_tau rc ~r_drv ~watch ~down ~m in
      let target =
        auto_window_coeff *. Float.pow (Float.max tau 0.) (2. /. 3.) /. step
      in
      let cap = Int.max 2 (2 * (max_mult / 2)) in
      let mult =
        if Float.is_finite target then Int.min (int_of_float target) cap
        else cap
      in
      (* Below 12 the 7-solve window overhead eats the saving. *)
      if mult < 12 then 1 else 2 * (mult / 2)
    end

(* ------------------------------------------------------------------ *)
(* Cross-call telemetry                                                *)
(* ------------------------------------------------------------------ *)

type march = { solves : int; fine_equiv : int; truncated : bool }

type counters = {
  total_solves : int;
  total_saved : int;
  total_truncations : int;
}

let solves_ctr = Atomic.make 0
let saved_ctr = Atomic.make 0
let trunc_ctr = Atomic.make 0

let counters () =
  { total_solves = Atomic.get solves_ctr;
    total_saved = Atomic.get saved_ctr;
    total_truncations = Atomic.get trunc_ctr }

let reset_counters () =
  Atomic.set solves_ctr 0;
  Atomic.set saved_ctr 0;
  Atomic.set trunc_ctr 0

(* ------------------------------------------------------------------ *)
(* The march                                                           *)
(* ------------------------------------------------------------------ *)

(* The three-rate march controller, generic over the per-step kernel:
   [fine] is the fine-step factorisation, [rate stp] produces (or looks
   up) a coarse-rate one, and [solve f ~vs ~vin ~vout] advances one
   implicit step — the driver conductance and the residual scratch are
   captured inside the closure. The closure dispatch costs one indirect
   call per *step*; the per-node work stays inside [solve]. *)
let march_core ~step ~mult ~fine ~rate ~solve ~ws ~n ~ramp ~watch ~on_cross
    ~max_steps =
  (* [watch] : rc node indices to monitor; [on_cross] called with
     (watch_slot, threshold_index, time). Thresholds are 0.1, 0.5, 0.9. *)
  begin
    let nwatch = Array.length watch in
    let v = ws.v in
    Array.fill v 0 n 0.;
    let prev = ws.prev and nextk = ws.nextk and live = ws.live in
    for w0 = 0 to nwatch - 1 do
      prev.(w0) <- 0.;
      nextk.(w0) <- 0;
      live.(w0) <- w0
    done;
    let nlive = ref nwatch in
    let remaining = ref (nwatch * 3) in
    let solves = ref 0 in
    let fine_equiv = ref 0 in
    let truncated = ref false in
    (* Scan the live frontier against [v] after a fine step t0 → t0+h;
       nodes with all three thresholds crossed leave the frontier. *)
    let scan ~t0 ~h =
      let idx = ref 0 in
      while !idx < !nlive do
        let w0 = live.(!idx) in
        let vw = v.(watch.(w0)) in
        let k = ref nextk.(w0) in
        while !k < 3 && vw >= thresholds.(!k) do
          (* Linear interpolation inside the step. *)
          let frac =
            if vw -. prev.(w0) <= 0. then 1.
            else (thresholds.(!k) -. prev.(w0)) /. (vw -. prev.(w0))
          in
          on_cross w0 !k (t0 +. (frac *. h));
          decr remaining;
          incr k
        done;
        nextk.(w0) <- !k;
        if !k > 2 then begin
          decr nlive;
          live.(!idx) <- live.(!nlive);
          live.(!nlive) <- w0
        end
        else begin
          prev.(w0) <- vw;
          incr idx
        end
      done
    in
    let t = ref 0. in
    (* Up to [budget] fine steps from the current state; accounted in
       both [solves] and [fine_equiv]. *)
    let fine_steps budget =
      let taken = ref 0 in
      while !remaining > 0 && !taken < budget do
        incr taken;
        incr solves;
        let t1 = !t +. step in
        solve fine ~vs:(ramp_voltage ~ramp t1) ~vin:v ~vout:v;
        scan ~t0:!t ~h:step;
        t := t1
      done;
      fine_equiv := !fine_equiv + !taken
    in
    if mult <= 1 then begin
      fine_steps max_steps;
      truncated := !remaining > 0
    end
    else begin
      let step_a = step *. float_of_int mult in
      let step_b = step_a /. 2. in
      let step_c = step_a /. 4. in
      let fa = rate step_a and fb = rate step_b and fc = rate step_c in
      (* Quadratic Lagrange extrapolation in the step size, evaluated at
         the fine step: v̂ = wa·v_a + wb·v_b + wc·v_c. *)
      let wa =
        (step -. step_b) *. (step -. step_c)
        /. ((step_a -. step_b) *. (step_a -. step_c))
      in
      let wb =
        (step -. step_a) *. (step -. step_c)
        /. ((step_b -. step_a) *. (step_b -. step_c))
      in
      let wc =
        (step -. step_a) *. (step -. step_b)
        /. ((step_c -. step_a) *. (step_c -. step_b))
      in
      (* Lead-in: fine through the input ramp plus four coarse windows, so
         the kink and the fast modes it excites are resolved — and mostly
         decayed — before the step-size extrapolation starts. *)
      let lead = int_of_float (ceil (ramp /. step)) + (4 * mult) in
      fine_steps (Int.min lead max_steps);
      if !remaining > 0 then
        if !fine_equiv + mult > max_steps then truncated := true
        else begin
          Array.blit v 0 ws.va0 0 n;
          Array.blit v 0 ws.vb0 0 n;
          Array.blit v 0 ws.vc0 0 n;
          let continue_ = ref true in
          while !remaining > 0 && !continue_ do
            if !fine_equiv + mult > max_steps then begin
              continue_ := false;
              truncated := true
            end
            else begin
              let t1 = !t +. step_a in
              incr solves;
              solve fa ~vs:(ramp_voltage ~ramp t1) ~vin:ws.va0 ~vout:ws.va1;
              incr solves;
              solve fb ~vs:(ramp_voltage ~ramp (!t +. step_b)) ~vin:ws.vb0
                ~vout:ws.vb1;
              incr solves;
              solve fb ~vs:(ramp_voltage ~ramp t1) ~vin:ws.vb1 ~vout:ws.vb1;
              incr solves;
              solve fc ~vs:(ramp_voltage ~ramp (!t +. step_c)) ~vin:ws.vc0
                ~vout:ws.vc1;
              for q = 2 to 4 do
                incr solves;
                solve fc
                  ~vs:(ramp_voltage ~ramp (!t +. (float_of_int q *. step_c)))
                  ~vin:ws.vc1 ~vout:ws.vc1
              done;
              (* Bracket test on the extrapolated frontier values. *)
              let hot = ref false in
              for idx = 0 to !nlive - 1 do
                let w0 = live.(idx) in
                let wi = watch.(w0) in
                if (wa *. ws.va1.(wi)) +. (wb *. ws.vb1.(wi))
                   +. (wc *. ws.vc1.(wi))
                   >= thresholds.(nextk.(w0))
                then hot := true
              done;
              if !hot then begin
                (* Rewind: rebuild the extrapolated entry state and
                   re-integrate the window at the fine rate. [prev]
                   already holds these values for the frontier (the same
                   extrapolation was committed there last boundary). *)
                for i = 0 to n - 1 do
                  v.(i) <-
                    (wa *. ws.va0.(i)) +. (wb *. ws.vb0.(i))
                    +. (wc *. ws.vc0.(i))
                done;
                fine_steps mult;
                if !remaining > 0 then begin
                  (* All coarse marches restart from the fine state. *)
                  t := t1;
                  Array.blit v 0 ws.va0 0 n;
                  Array.blit v 0 ws.vb0 0 n;
                  Array.blit v 0 ws.vc0 0 n
                end
              end
              else begin
                for idx = 0 to !nlive - 1 do
                  let w0 = live.(idx) in
                  let wi = watch.(w0) in
                  prev.(w0) <-
                    (wa *. ws.va1.(wi)) +. (wb *. ws.vb1.(wi))
                    +. (wc *. ws.vc1.(wi))
                done;
                (* Commit: window-exit states become the next entry. *)
                let tmp = ws.va0 in
                ws.va0 <- ws.va1;
                ws.va1 <- tmp;
                let tmp = ws.vb0 in
                ws.vb0 <- ws.vb1;
                ws.vb1 <- tmp;
                let tmp = ws.vc0 in
                ws.vc0 <- ws.vc1;
                ws.vc1 <- tmp;
                t := t1;
                fine_equiv := !fine_equiv + mult
              end
            end
          done
        end
    end;
    ignore (Atomic.fetch_and_add solves_ctr !solves);
    ignore (Atomic.fetch_and_add saved_ctr (!fine_equiv - !solves));
    if !truncated then Atomic.incr trunc_ctr;
    { solves = !solves; fine_equiv = !fine_equiv; truncated = !truncated }
  end

let simulate ?(step = default_step) ?(mode = default_mode) ?factored ?fcache
    ?fp ?ws ?(max_steps = default_max_steps) (rc : Rcnet.t) ~r_drv ~s_drv
    ~watch ~on_cross =
  let n = rc.size in
  (* The march reads watched voltages from a workspace that may have grown
     past [n] for an earlier, larger stage: an out-of-range watch would
     read stale values and never cross. *)
  Array.iter
    (fun wi ->
      if wi < 0 || wi >= n then
        invalid_arg "Transient.simulate: watch index outside the stage")
    watch;
  if n = 0 then { solves = 0; fine_equiv = 0; truncated = false }
  else begin
    let ws = match ws with Some w -> w | None -> domain_workspace () in
    grow ws ~n ~w:(Array.length watch);
    let g0 = 1. /. r_drv in
    let ramp = s_drv /. 0.8 in
    check_stage rc;
    let mult =
      resolve_mult mode rc ~r_drv ~watch ~step ~down:ws.va0 ~m:ws.vb0
    in
    let fine = get_factored ?factored ?fcache ?fp ~step rc in
    check_factored rc fine;
    let rate stp =
      let f =
        match fcache with
        | Some c -> Fcache.get c ?fp rc ~step:stp
        | None -> factor ~step:stp rc
      in
      check_factored rc f;
      f
    in
    let r = ws.r in
    let solve f ~vs ~vin ~vout = step_solve rc f ~g0 ~vs ~vin ~vout ~r in
    march_core ~step ~mult ~fine ~rate ~solve ~ws ~n ~ramp ~watch ~on_cross
      ~max_steps
  end

let solve ?step ?mode ?factored ?fcache ?fp ?ws (rc : Rcnet.t) ~r_drv ~s_drv =
  let ntaps = Array.length rc.taps in
  let watch = Array.map fst rc.taps in
  let times = Array.make (ntaps * 3) nan in
  let res =
    simulate ?step ?mode ?factored ?fcache ?fp ?ws rc ~r_drv ~s_drv ~watch
      ~on_cross:(fun w k t -> times.((w * 3) + k) <- t)
  in
  let ramp = s_drv /. 0.8 in
  Array.init ntaps (fun w ->
      let t10 = times.(w * 3) and t50 = times.((w * 3) + 1)
      and t90 = times.((w * 3) + 2) in
      if Float.is_nan t90 then begin
        (* A truncated march legitimately never reached 90 %; anything
           else means the waveform itself went non-finite. *)
        if not res.truncated then
          Numerics.fail "transient solve: NaN crossing at tap node %d"
            (fst rc.taps.(w));
        (infinity, infinity)
      end
      else begin
        let delay = t50 -. (ramp /. 2.) and slew = t90 -. t10 in
        if Float.is_nan delay || Float.is_nan slew then
          Numerics.fail "transient solve: NaN result at tap node %d"
            (fst rc.taps.(w));
        (delay, slew)
      end)

let probe ?(step = default_step) ?factored ?fcache ?fp ?ws (rc : Rcnet.t)
    ~r_drv ~s_drv ~node ~times =
  check_stage rc;
  if node < 0 || node >= rc.size then
    invalid_arg "Transient.probe: node outside the stage";
  let f = get_factored ?factored ?fcache ?fp ~step rc in
  check_factored rc f;
  let g0 = 1. /. r_drv in
  let n = rc.size in
  let v, r =
    match ws with
    | Some w ->
      grow w ~n ~w:0;
      (w.v, w.r)
    | None -> (Array.make (Int.max n 1) 0., Array.make (Int.max n 1) 0.)
  in
  Array.fill v 0 n 0.;
  let ramp = s_drv /. 0.8 in
  let nt = Array.length times in
  let out = Array.make nt 0. in
  (* Visit probe times in ascending order regardless of caller ordering,
     scattering results back through the sort permutation. *)
  let order = Array.init nt (fun i -> i) in
  Array.sort (fun a b -> Float.compare times.(a) times.(b)) order;
  let t_end = if nt = 0 then 0. else times.(order.(nt - 1)) in
  let t = ref 0. in
  let k = ref 0 in
  while !t < t_end && !k < nt do
    let t1 = !t +. step in
    step_solve rc f ~g0 ~vs:(ramp_voltage ~ramp t1) ~vin:v ~vout:v ~r;
    while !k < nt && times.(order.(!k)) <= t1 do
      out.(order.(!k)) <- v.(node);
      incr k
    done;
    t := t1
  done;
  (* Probe times at or past the final simulated step (including duplicates
     of t_end when step granularity skips them) take the last computed
     node voltage instead of silently reading 0. *)
  while !k < nt do
    out.(order.(!k)) <- v.(node);
    incr k
  done;
  out
