(* Adaptive multi-rate transient kernel vs the fixed-fine-step reference:
   across random stages, driver resistances, and corner-style scalings,
   every reported 50 % latency and 10–90 % slew must agree within the
   documented 0.05 ps tolerance (ISSUE 2 / doc/EXTENDING.md). Plus
   regression tests for the workspace, factorisation cache, epsilon step
   matching, and the truncation signal. *)

module Tr = Analysis.Transient
module Rcnet = Analysis.Rcnet

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tolerance = 0.05 (* ps *)

(* ---------- random stage generator ---------- *)

(* A random RC tree in the kernel's native representation: random
   topology (each node hangs off an earlier one, so indices stay
   topological), random segment electricals spanning on-chip wire and
   via-ish values, and a random subset of nodes watched as taps. *)
let random_rc rng =
  let n = 2 + Random.State.int rng 220 in
  let parent = Array.make n (-1) in
  let res = Array.make n 0. in
  let cap = Array.make n 0. in
  for i = 1 to n - 1 do
    (* Bias towards recent nodes: long chains with occasional branching,
       like segmented routed wires. *)
    parent.(i) <-
      (if Random.State.bool rng then i - 1
       else Random.State.int rng i);
    res.(i) <- 10. +. Random.State.float rng 900.;
    cap.(i) <- 0.5 +. Random.State.float rng 20.
  done;
  cap.(0) <- 0.5 +. Random.State.float rng 5.;
  let ntaps = 1 + Random.State.int rng 6 in
  let taps =
    Array.init ntaps (fun k ->
        (1 + Random.State.int rng (n - 1), Rcnet.Tap_sink k))
  in
  { Rcnet.parent; res; cap; taps; size = n }

let random_drive rng =
  let r_drv = 20. +. Random.State.float rng 2000. in
  (* Corner-style resistance scaling, as Evaluator applies per corner. *)
  let r_scale = 0.8 +. Random.State.float rng 0.5 in
  let s_drv = 4. +. Random.State.float rng 60. in
  (r_drv *. r_scale, s_drv)

let check_close ~label ~step ref_results results =
  Array.iteri
    (fun k (d_ref, s_ref) ->
      let d, s = results.(k) in
      if Float.is_finite d_ref || Float.is_finite d then begin
        let dd = Float.abs (d -. d_ref) and ds = Float.abs (s -. s_ref) in
        if not (dd <= tolerance && ds <= tolerance) then
          Alcotest.failf
            "%s step=%.2g tap=%d: delay %.6f vs %.6f (Δ=%.4f), slew %.6f \
             vs %.6f (Δ=%.4f)"
            label step k d d_ref dd s s_ref ds
      end)
    ref_results

(* The accuracy property at one fine step: Fixed at [step] is the
   reference; every adaptive mode must track it within [tolerance]. *)
let accuracy_at ~samples ~step ~seed () =
  let rng = Random.State.make [| seed |] in
  let ws = Tr.workspace () in
  let fcache = Tr.Fcache.create () in
  for i = 1 to samples do
    let rc = random_rc rng in
    let r_drv, s_drv = random_drive rng in
    let reference = Tr.solve ~step ~mode:Tr.Fixed ~fcache ~ws rc ~r_drv ~s_drv in
    List.iter
      (fun (name, mode) ->
        let adaptive = Tr.solve ~step ~mode ~fcache ~ws rc ~r_drv ~s_drv in
        check_close
          ~label:(Printf.sprintf "sample %d %s" i name)
          ~step reference adaptive)
      [
        ("adaptive×8", Tr.Adaptive { mult = 8 });
        ("adaptive×16", Tr.Adaptive { mult = 16 });
        ("adaptive×32", Tr.Adaptive { mult = 32 });
        ("auto", Tr.Auto { max_mult = 32 });
      ]
  done

let test_accuracy_default_step () = accuracy_at ~samples:120 ~step:0.5 ~seed:7 ()
let test_accuracy_fine_reference () = accuracy_at ~samples:40 ~step:0.1 ~seed:11 ()

(* ---------- adaptive actually saves work ---------- *)

let long_chain_rc n =
  let parent = Array.init n (fun i -> i - 1) in
  let res = Array.make n 100. in
  let cap = Array.make n 4. in
  res.(0) <- 0.;
  { Rcnet.parent; res; cap;
    taps = [| (n - 1, Rcnet.Tap_sink 0) |]; size = n }

let test_auto_saves_solves () =
  let rc = long_chain_rc 400 in
  let run mode =
    Tr.simulate ~mode rc ~r_drv:150. ~s_drv:20.
      ~watch:(Array.map fst rc.Rcnet.taps)
      ~on_cross:(fun _ _ _ -> ())
  in
  let fixed = run Tr.Fixed in
  let auto = run (Tr.Auto { max_mult = 32 }) in
  check_bool "fixed does fine_equiv solves" true
    (fixed.Tr.solves = fixed.Tr.fine_equiv);
  check_bool "auto covers the same span" true
    (auto.Tr.fine_equiv >= (fixed.Tr.fine_equiv * 9 / 10));
  check_bool
    (Printf.sprintf "auto saves >2x (%d vs %d solves)" auto.Tr.solves
       fixed.Tr.solves)
    true
    (auto.Tr.solves * 2 < fixed.Tr.solves)

(* ---------- cross-call counters ---------- *)

let test_counters () =
  let rc = long_chain_rc 100 in
  let c0 = Tr.counters () in
  ignore (Tr.solve ~mode:(Tr.Auto { max_mult = 32 }) rc ~r_drv:150. ~s_drv:20.);
  let c1 = Tr.counters () in
  check_bool "solves advance" true
    (c1.Tr.total_solves > c0.Tr.total_solves);
  check_bool "saved advances on an adaptive march" true
    (c1.Tr.total_saved > c0.Tr.total_saved)

(* ---------- truncation signal ---------- *)

let test_truncation_signalled () =
  let rc = long_chain_rc 200 in
  let watch = Array.map fst rc.Rcnet.taps in
  let nothing _ _ _ = () in
  let short =
    Tr.simulate ~max_steps:40 rc ~r_drv:150. ~s_drv:20. ~watch
      ~on_cross:nothing
  in
  check_bool "budget too small => truncated" true short.Tr.truncated;
  check_bool "budget respected" true (short.Tr.fine_equiv <= 40);
  let full =
    Tr.simulate rc ~r_drv:150. ~s_drv:20. ~watch ~on_cross:nothing
  in
  check_bool "default budget completes" false full.Tr.truncated;
  let c0 = Tr.counters () in
  ignore
    (Tr.simulate ~max_steps:10 rc ~r_drv:150. ~s_drv:20. ~watch
       ~on_cross:nothing);
  check_int "truncation counted" (c0.Tr.total_truncations + 1)
    (Tr.counters ()).Tr.total_truncations

(* ---------- workspace reuse ---------- *)

let test_workspace_reuse_identical () =
  let rng = Random.State.make [| 23 |] in
  let ws = Tr.workspace () in
  for _ = 1 to 30 do
    let rc = random_rc rng in
    let r_drv, s_drv = random_drive rng in
    let fresh = Tr.solve rc ~r_drv ~s_drv in
    let reused = Tr.solve ~ws rc ~r_drv ~s_drv in
    Array.iteri
      (fun k (d, s) ->
        let d', s' = reused.(k) in
        check_bool "workspace reuse is bit-identical" true
          (d = d' && s = s'))
      fresh
  done

(* ---------- factorisation cache ---------- *)

let test_fcache_identical_and_bounded () =
  let rng = Random.State.make [| 31 |] in
  let fcache = Tr.Fcache.create ~cap:64 () in
  for _ = 1 to 40 do
    let rc = random_rc rng in
    let r_drv, s_drv = random_drive rng in
    let plain = Tr.solve rc ~r_drv ~s_drv in
    let cached = Tr.solve ~fcache rc ~r_drv ~s_drv in
    let cached2 = Tr.solve ~fcache rc ~r_drv ~s_drv in
    Array.iteri
      (fun k (d, s) ->
        let d1, s1 = cached.(k) and d2, s2 = cached2.(k) in
        check_bool "cached factor changes nothing" true
          (d = d1 && s = s1 && d = d2 && s = s2))
      plain;
    check_bool "cache stays within cap" true (Tr.Fcache.length fcache <= 64)
  done;
  check_bool "cache holds entries" true (Tr.Fcache.length fcache > 0);
  Tr.Fcache.clear fcache;
  check_int "clear empties" 0 (Tr.Fcache.length fcache)

(* ---------- epsilon step matching (satellite bugfix) ---------- *)

let test_step_epsilon_match () =
  let rc = long_chain_rc 20 in
  (* A step recomposed through float arithmetic differs from the literal
     in the last bits; the kernel must accept the pairing anyway. *)
  let exact = 0.5 in
  let recomposed = exact /. 3. *. 3. in
  check_bool "steps differ in the last bits or match" true
    (Float.abs (recomposed -. exact) < 1e-12);
  let f = Tr.factor ~step:exact rc in
  let r =
    Tr.solve ~step:recomposed ~factored:f ~mode:Tr.Fixed rc ~r_drv:150.
      ~s_drv:20.
  in
  check_bool "recomposed step accepted" true (Array.length r = 1);
  (match
     Tr.solve ~step:1.0 ~factored:f ~mode:Tr.Fixed rc ~r_drv:150. ~s_drv:20.
   with
  | _ -> Alcotest.fail "genuine mismatch must raise"
  | exception Invalid_argument _ -> ());
  (* Probe takes ?factored now too (satellite): same acceptance rule. *)
  let v =
    Tr.probe ~step:recomposed ~factored:f rc ~r_drv:150. ~s_drv:20. ~node:19
      ~times:[| 100.; 400. |]
  in
  check_int "probe with shared factorisation" 2 (Array.length v)

(* ---------- session probe uses the cache (satellite) ---------- *)

let test_session_probe () =
  let module Ev = Analysis.Evaluator in
  let tech = Tech.default45 () in
  let tree =
    Ctree.Tree.create ~tech ~source_pos:(Geometry.Point.make 0 0)
  in
  ignore
    (Ctree.Tree.add_node tree
       ~kind:(Ctree.Tree.Sink { Ctree.Tree.cap = 15.; parity = 0; label = "s" })
       ~pos:(Geometry.Point.make 200_000 0) ~parent:(Ctree.Tree.root tree) ());
  let session = Ev.Incremental.create tree in
  let rc = long_chain_rc 50 in
  let direct =
    Tr.probe rc ~r_drv:150. ~s_drv:20. ~node:49 ~times:[| 50.; 200.; 800. |]
  in
  let via_session =
    Ev.Incremental.probe session rc ~r_drv:150. ~s_drv:20. ~node:49
      ~times:[| 50.; 200.; 800. |]
  in
  Array.iteri
    (fun i v ->
      check_bool "session probe matches direct" true (v = via_session.(i)))
    direct;
  check_bool "probe populated the session factor cache" true
    ((Ev.Incremental.stats session).Ev.factored_entries > 0)

(* ---------- bit-identity oracle for the unchecked sweeps ---------- *)

(* A test-local copy of the boxed march with bounds-checked sweeps: the
   factorisation, the three-sweep step, the Auto rate choice and the
   three-rate controller, with every float operation in the kernel's
   order. The library's unchecked sweeps must reproduce it bit for bit
   ([=], not a tolerance). *)
module Reference = struct
  type factored = {
    g : float array;
    dfact : float array;
    c_over_h : float array;
  }

  let factor ~step (rc : Rcnet.t) =
    let n = rc.size in
    let g = Array.make n 0. in
    for i = 1 to n - 1 do
      g.(i) <- 1. /. Float.max rc.res.(i) 1e-6
    done;
    let c_over_h =
      Array.map (fun c -> c *. Tech.Units.rc_to_ps /. step) rc.cap
    in
    let dfact = Array.make n 0. in
    for i = 0 to n - 1 do
      dfact.(i) <- c_over_h.(i) +. g.(i)
    done;
    for i = 1 to n - 1 do
      dfact.(rc.parent.(i)) <- dfact.(rc.parent.(i)) +. g.(i)
    done;
    for i = n - 1 downto 1 do
      let p = rc.parent.(i) in
      dfact.(p) <- dfact.(p) -. (g.(i) *. g.(i) /. dfact.(i))
    done;
    { g; dfact; c_over_h }

  let step_solve (rc : Rcnet.t) f ~g0 ~vs ~vin ~vout ~r =
    let n = rc.size in
    for i = 0 to n - 1 do
      r.(i) <- f.c_over_h.(i) *. vin.(i)
    done;
    r.(0) <- r.(0) +. (g0 *. vs);
    for i = n - 1 downto 1 do
      let p = rc.parent.(i) in
      r.(p) <- r.(p) +. (f.g.(i) /. f.dfact.(i) *. r.(i))
    done;
    vout.(0) <- r.(0) /. (f.dfact.(0) +. g0);
    for i = 1 to n - 1 do
      vout.(i) <- (r.(i) +. (f.g.(i) *. vout.(rc.parent.(i)))) /. f.dfact.(i)
    done

  let ramp_voltage ~ramp t =
    if t <= 0. then 0. else if t >= ramp then 1. else t /. ramp

  let thresholds = [| 0.1; 0.5; 0.9 |]

  let auto_mult (rc : Rcnet.t) ~r_drv ~watch ~step ~max_mult =
    let n = rc.size in
    let down = Array.copy rc.cap and m = Array.make n 0. in
    for i = n - 1 downto 1 do
      down.(rc.parent.(i)) <- down.(rc.parent.(i)) +. down.(i)
    done;
    m.(0) <- Tech.Units.ps_of_rc r_drv down.(0);
    for i = 1 to n - 1 do
      m.(i) <- m.(rc.parent.(i)) +. Tech.Units.ps_of_rc rc.res.(i) down.(i)
    done;
    let tau = ref infinity in
    Array.iter (fun wi -> if m.(wi) < !tau then tau := m.(wi)) watch;
    let tau = if Float.is_finite !tau then !tau else 0. in
    let target = 0.8 *. Float.pow (Float.max tau 0.) (2. /. 3.) /. step in
    let cap = Int.max 2 (2 * (max_mult / 2)) in
    let mult =
      if Float.is_finite target then Int.min (int_of_float target) cap
      else cap
    in
    if mult < 12 then 1 else 2 * (mult / 2)

  (* Crossing times of every watched node: [times.(3w + k)]. *)
  let march ~step ~mult (rc : Rcnet.t) ~r_drv ~s_drv ~watch =
    let n = rc.size in
    let g0 = 1. /. r_drv and ramp = s_drv /. 0.8 in
    let r = Array.make n 0. in
    let solve f ~vs ~vin ~vout = step_solve rc f ~g0 ~vs ~vin ~vout ~r in
    let nwatch = Array.length watch in
    let times = Array.make (nwatch * 3) nan in
    let v = Array.make n 0. in
    let prev = Array.make nwatch 0. and nextk = Array.make nwatch 0 in
    let live = Array.init nwatch Fun.id in
    let nlive = ref nwatch and remaining = ref (nwatch * 3) in
    let scan ~t0 ~h =
      let idx = ref 0 in
      while !idx < !nlive do
        let w0 = live.(!idx) in
        let vw = v.(watch.(w0)) in
        let k = ref nextk.(w0) in
        while !k < 3 && vw >= thresholds.(!k) do
          let frac =
            if vw -. prev.(w0) <= 0. then 1.
            else (thresholds.(!k) -. prev.(w0)) /. (vw -. prev.(w0))
          in
          times.((w0 * 3) + !k) <- t0 +. (frac *. h);
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
    let fine = factor ~step rc in
    let t = ref 0. in
    let fine_steps budget =
      let taken = ref 0 in
      while !remaining > 0 && !taken < budget do
        incr taken;
        let t1 = !t +. step in
        solve fine ~vs:(ramp_voltage ~ramp t1) ~vin:v ~vout:v;
        scan ~t0:!t ~h:step;
        t := t1
      done
    in
    if mult <= 1 then fine_steps 2_000_000
    else begin
      let step_a = step *. float_of_int mult in
      let step_b = step_a /. 2. and step_c = step_a /. 4. in
      let fa = factor ~step:step_a rc and fb = factor ~step:step_b rc
      and fc = factor ~step:step_c rc in
      let wa =
        (step -. step_b) *. (step -. step_c)
        /. ((step_a -. step_b) *. (step_a -. step_c))
      and wb =
        (step -. step_a) *. (step -. step_c)
        /. ((step_b -. step_a) *. (step_b -. step_c))
      and wc =
        (step -. step_a) *. (step -. step_b)
        /. ((step_c -. step_a) *. (step_c -. step_b))
      in
      fine_steps (int_of_float (ceil (ramp /. step)) + (4 * mult));
      let va0 = ref (Array.copy v) and va1 = ref (Array.make n 0.) in
      let vb0 = ref (Array.copy v) and vb1 = ref (Array.make n 0.) in
      let vc0 = ref (Array.copy v) and vc1 = ref (Array.make n 0.) in
      let extrapolate i =
        (wa *. !va1.(i)) +. (wb *. !vb1.(i)) +. (wc *. !vc1.(i))
      in
      while !remaining > 0 do
        let t1 = !t +. step_a in
        solve fa ~vs:(ramp_voltage ~ramp t1) ~vin:!va0 ~vout:!va1;
        solve fb ~vs:(ramp_voltage ~ramp (!t +. step_b)) ~vin:!vb0 ~vout:!vb1;
        solve fb ~vs:(ramp_voltage ~ramp t1) ~vin:!vb1 ~vout:!vb1;
        solve fc ~vs:(ramp_voltage ~ramp (!t +. step_c)) ~vin:!vc0 ~vout:!vc1;
        for q = 2 to 4 do
          solve fc
            ~vs:(ramp_voltage ~ramp (!t +. (float_of_int q *. step_c)))
            ~vin:!vc1 ~vout:!vc1
        done;
        let hot = ref false in
        for idx = 0 to !nlive - 1 do
          let w0 = live.(idx) in
          if extrapolate watch.(w0) >= thresholds.(nextk.(w0)) then hot := true
        done;
        if !hot then begin
          for i = 0 to n - 1 do
            v.(i) <-
              (wa *. !va0.(i)) +. (wb *. !vb0.(i)) +. (wc *. !vc0.(i))
          done;
          fine_steps mult;
          t := t1;
          va0 := Array.copy v;
          vb0 := Array.copy v;
          vc0 := Array.copy v
        end
        else begin
          for idx = 0 to !nlive - 1 do
            let w0 = live.(idx) in
            prev.(w0) <- extrapolate watch.(w0)
          done;
          let swap a b =
            let tmp = !a in
            a := !b;
            b := tmp
          in
          swap va0 va1;
          swap vb0 vb1;
          swap vc0 vc1;
          t := t1
        end
      done
    end;
    times

  let solve ~step ~mode (rc : Rcnet.t) ~r_drv ~s_drv =
    let watch = Array.map fst rc.taps in
    let mult =
      match mode with
      | Tr.Fixed -> 1
      | Tr.Auto { max_mult } -> auto_mult rc ~r_drv ~watch ~step ~max_mult
      | Tr.Adaptive _ -> invalid_arg "Reference.solve: Adaptive"
    in
    let times = march ~step ~mult rc ~r_drv ~s_drv ~watch in
    let ramp = s_drv /. 0.8 in
    Array.mapi
      (fun w _ ->
        let t10 = times.(w * 3) and t50 = times.((w * 3) + 1)
        and t90 = times.((w * 3) + 2) in
        (t50 -. (ramp /. 2.), t90 -. t10))
      watch
end

let test_unchecked_sweeps_bit_identical () =
  let rng = Random.State.make [| 41 |] in
  let ws = Tr.workspace () in
  let fcache = Tr.Fcache.create () in
  for i = 1 to 60 do
    let rc = random_rc rng in
    let r_drv, s_drv = random_drive rng in
    let step = if i mod 3 = 0 then 0.25 else 0.5 in
    List.iter
      (fun (name, mode) ->
        let expected = Reference.solve ~step ~mode rc ~r_drv ~s_drv in
        let got =
          if i mod 2 = 0 then Tr.solve ~step ~mode ~fcache ~ws rc ~r_drv ~s_drv
          else Tr.solve ~step ~mode rc ~r_drv ~s_drv
        in
        Array.iteri
          (fun k (d, s) ->
            let d', s' = got.(k) in
            if not (d = d' && s = s') then
              Alcotest.failf
                "sample %d %s tap %d: (%h, %h) vs checked reference (%h, %h)"
                i name k d' s' d s)
          expected)
      [ ("fixed", Tr.Fixed); ("auto", Tr.Auto { max_mult = 32 }) ]
  done

(* ---------- unchecked-sweep preconditions raise ---------- *)

let expect_invalid label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument _ -> ()

(* Each entry point the sweeps run under — a default-mode [simulate] and
   a fixed-rate [probe] — must reject the stage before stepping. *)
let both_entry_points label ?factored ?fcache ?fp (rc : Rcnet.t) =
  let node = Int.max 0 (Int.min (rc.size - 1) (Array.length rc.cap - 1)) in
  expect_invalid (label ^ " (simulate)") (fun () ->
      Tr.simulate ?factored ?fcache ?fp rc ~r_drv:150. ~s_drv:20.
        ~watch:[| node |] ~on_cross:(fun _ _ _ -> ()));
  expect_invalid (label ^ " (probe)") (fun () ->
      Tr.probe ?factored ?fcache ?fp rc ~r_drv:150. ~s_drv:20. ~node
        ~times:[| 10.; 100. |])

let test_unchecked_preconditions () =
  let rc = long_chain_rc 40 in
  let with_parent i p =
    let parent = Array.copy rc.Rcnet.parent in
    parent.(i) <- p;
    { rc with Rcnet.parent }
  in
  both_entry_points "parent.(i) = i" (with_parent 17 17);
  both_entry_points "parent.(i) > i" (with_parent 17 30);
  both_entry_points "parent.(i) < 0" (with_parent 17 (-1));
  let short = Array.sub rc.Rcnet.parent 0 30 in
  both_entry_points "parent shorter than size" { rc with Rcnet.parent = short };
  both_entry_points "res shorter than size"
    { rc with Rcnet.res = Array.sub rc.Rcnet.res 0 30 };
  both_entry_points "cap shorter than size"
    { rc with Rcnet.cap = Array.sub rc.Rcnet.cap 0 30 };
  let small = long_chain_rc 12 in
  both_entry_points "factored from a smaller stage"
    ~factored:(Tr.factor small) rc;
  (* Two different-size stages forced onto one cache key: the smaller
     stage's factorisation must not be read as the larger one's. *)
  let fcache = Tr.Fcache.create () in
  ignore (Tr.solve ~fcache ~fp:42L small ~r_drv:150. ~s_drv:20.);
  both_entry_points "fcache key collision" ~fcache ~fp:42L rc;
  (* The well-formed stage still runs through the same cache. *)
  check_int "valid stage unaffected" 1
    (Array.length (Tr.solve ~fcache rc ~r_drv:150. ~s_drv:20.));
  (* A workspace grown by the 40-node stage holds 40 voltages, so a watch
     or probe node past a 10-node stage's end stays inside the arrays: it
     must be rejected, not read stale values (or march the whole budget
     waiting for a crossing that never comes). *)
  let ws = Tr.workspace () in
  ignore (Tr.solve ~ws rc ~r_drv:150. ~s_drv:20.);
  let ten = long_chain_rc 10 in
  List.iter
    (fun node ->
      expect_invalid (Printf.sprintf "watch %d of a 10-node stage" node)
        (fun () ->
          Tr.simulate ~ws ~max_steps:2_000 ten ~r_drv:150. ~s_drv:20.
            ~watch:[| 9; node |] ~on_cross:(fun _ _ _ -> ()));
      expect_invalid (Printf.sprintf "probe node %d of a 10-node stage" node)
        (fun () ->
          Tr.probe ~ws ten ~r_drv:150. ~s_drv:20. ~node ~times:[| 10.; 100. |]))
    [ 30; 10; -1 ]

let () =
  Alcotest.run "transient-adaptive"
    [
      ( "accuracy",
        [
          Alcotest.test_case "vs fixed 0.5ps reference" `Quick
            test_accuracy_default_step;
          Alcotest.test_case "vs fixed 0.1ps reference" `Quick
            test_accuracy_fine_reference;
        ] );
      ( "budget",
        [
          Alcotest.test_case "auto saves solves" `Quick test_auto_saves_solves;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "truncation signal" `Quick
            test_truncation_signalled;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "workspace reuse" `Quick
            test_workspace_reuse_identical;
          Alcotest.test_case "fcache" `Quick test_fcache_identical_and_bounded;
          Alcotest.test_case "step epsilon" `Quick test_step_epsilon_match;
          Alcotest.test_case "session probe" `Quick test_session_probe;
        ] );
      ( "unchecked sweeps",
        [
          Alcotest.test_case "bit-identical to checked march" `Quick
            test_unchecked_sweeps_bit_identical;
          Alcotest.test_case "preconditions raise" `Quick
            test_unchecked_preconditions;
        ] );
    ]
