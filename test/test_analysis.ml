open Geometry
module Tree = Ctree.Tree
module Ev = Analysis.Evaluator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_near tol = Alcotest.(check (float tol))

let tech = Tech.default45 ()

(* A lumped RC: R=1000 Ω into C=100 fF, tau = 100 ps. *)
let lumped_rc () =
  { Analysis.Rcnet.parent = [| -1; 0 |]; res = [| 0.; 1000. |];
    cap = [| 0.; 100. |]; taps = [| (1, Analysis.Rcnet.Tap_sink 7) |]; size = 2 }

(* Distributed line: nseg segments + lumped load at the end. *)
let line ~nseg ~seg_r ~seg_c ~load =
  let size = nseg + 2 in
  {
    Analysis.Rcnet.parent = Array.init size (fun i -> i - 1);
    res = Array.init size (fun i -> if i = 0 then 0. else if i <= nseg then seg_r else 1e-3);
    cap = Array.init size (fun i -> if i = 0 then 0. else if i <= nseg then seg_c else load);
    taps = [| (size - 1, Analysis.Rcnet.Tap_sink 0) |];
    size;
  }

(* ---------- Analytic checks on the lumped RC ---------- *)

let test_lumped_elmore () =
  let d, s = (Analysis.Elmore.solve (lumped_rc ()) ~r_drv:1e-3 ~s_drv:0.1).(0) in
  check_near 0.1 "elmore delay = tau" 100. d;
  check_near 1. "elmore slew ~ tau ln9" (100. *. log 9.) s

let test_lumped_moments () =
  (* Exact single pole: t50 = tau ln2, slew = tau ln9. *)
  let d, s = (Analysis.Moments.solve (lumped_rc ()) ~r_drv:1e-3 ~s_drv:0.1).(0) in
  check_near 0.5 "t50 = tau ln2" (100. *. log 2.) d;
  check_near 0.5 "slew = tau ln9" (100. *. log 9.) s

let test_lumped_transient () =
  let d, s =
    (Analysis.Transient.solve ~step:0.05 (lumped_rc ()) ~r_drv:1e-3 ~s_drv:0.1).(0)
  in
  check_near 0.5 "t50" (100. *. log 2.) d;
  check_near 1.0 "slew" (100. *. log 9.) s

let test_transient_probe_waveform () =
  (* v(t) = 1 - exp(-t/tau) for a step input. *)
  let rc = lumped_rc () in
  let times = [| 50.; 100.; 200.; 400. |] in
  let v = Analysis.Transient.probe ~step:0.05 rc ~r_drv:1e-3 ~s_drv:0.1 ~node:1 ~times in
  Array.iteri
    (fun i t ->
      check_near 0.01 (Printf.sprintf "v(%g)" t) (1. -. exp (-.t /. 100.)) v.(i))
    times

let test_engines_agree_distributed () =
  (* On a distributed line the two accurate engines agree within ~10 %,
     while Elmore overestimates the delay. *)
  let rc = line ~nseg:10 ~seg_r:100. ~seg_c:10. ~load:60. in
  let de, _ = (Analysis.Elmore.solve rc ~r_drv:50. ~s_drv:30.).(0) in
  let dm, _ = (Analysis.Moments.solve rc ~r_drv:50. ~s_drv:30.).(0) in
  let dt, _ = (Analysis.Transient.solve ~step:0.1 rc ~r_drv:50. ~s_drv:30.).(0) in
  check_bool "elmore is an upper bound" true (de > dt);
  check_bool "moments close to transient" true
    (Float.abs (dm -. dt) /. dt < 0.12)

let test_moments_values () =
  (* m1 of the lumped RC equals (r_drv + R) * C. *)
  let m1, m2, _ = Analysis.Moments.moments (lumped_rc ()) ~r_drv:500. in
  check_near 1e-6 "m1 at tap" 150. m1.(1);
  check_near 1e-6 "m2 = m1^2 (single pole)" (150. *. 150.) m2.(1)

let test_resistive_shielding () =
  (* A long resistive wire shields the far cap: near-tap delay is much
     less than Elmore suggests; transient sees it, so transient < elmore
     more strongly at the near node than at the far node. *)
  let rc = line ~nseg:20 ~seg_r:200. ~seg_c:20. ~load:10. in
  let near = 1 and far = 21 in
  let rc = { rc with Analysis.Rcnet.taps = [| (near, Analysis.Rcnet.Tap_sink 0); (far, Analysis.Rcnet.Tap_sink 1) |] } in
  let e = Analysis.Elmore.solve rc ~r_drv:20. ~s_drv:10. in
  let t = Analysis.Transient.solve ~step:0.2 rc ~r_drv:20. ~s_drv:10. in
  let ratio i = fst t.(i) /. fst e.(i) in
  check_bool "near node shielded more" true (ratio 0 < ratio 1)

(* ---------- Rcnet stage extraction ---------- *)

let buf8 = Tech.Composite.make Tech.Device.small_inverter 8

let staged_tree () =
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let b1 =
    Tree.add_node t ~kind:(Tree.Buffer buf8) ~pos:(Point.make 500_000 0)
      ~parent:(Tree.root t) ()
  in
  let mid = Tree.add_node t ~kind:Tree.Internal ~pos:(Point.make 1_000_000 0) ~parent:b1 () in
  let _s1 =
    Tree.add_node t
      ~kind:(Tree.Sink { Tree.cap = 12.; parity = 1; label = "s1" })
      ~pos:(Point.make 1_500_000 0) ~parent:mid ()
  in
  let _s2 =
    Tree.add_node t
      ~kind:(Tree.Sink { Tree.cap = 20.; parity = 1; label = "s2" })
      ~pos:(Point.make 1_000_000 400_000) ~parent:mid ()
  in
  t

let test_stages () =
  let t = staged_tree () in
  let stages = Analysis.Rcnet.stages ~seg_len:100_000 t in
  check_int "two stages" 2 (List.length stages);
  let s0 = List.hd stages and s1 = List.nth stages 1 in
  check_int "source drives stage 0" 0 s0.Analysis.Rcnet.driver;
  check_int "stage 0 has one tap (the buffer)" 1
    (Array.length s0.Analysis.Rcnet.rc.Analysis.Rcnet.taps);
  check_int "stage 1 has two taps" 2
    (Array.length s1.Analysis.Rcnet.rc.Analysis.Rcnet.taps);
  (* Stage 0 cap: 500 um of wide wire + buffer cin. *)
  let wide = Tech.wire tech (Tech.widest_wire tech) in
  check_near 1e-6 "stage0 cap"
    (Tech.Wire.cap wide 500_000 +. Tech.Composite.c_in buf8)
    (Analysis.Rcnet.total_cap s0.Analysis.Rcnet.rc);
  (* Stage 1 cap: 500+500+400 um of wire + sink loads. *)
  check_near 1e-6 "stage1 cap"
    (Tech.Wire.cap wide 1_400_000 +. 32.)
    (Analysis.Rcnet.total_cap s1.Analysis.Rcnet.rc)

(* ---------- Evaluator ---------- *)

let test_evaluator_basics () =
  let t = staged_tree () in
  Ev.reset_eval_count ();
  let ev = Ev.evaluate ~engine:Ev.Spice t in
  check_int "eval counted" 1 (Ev.eval_count ());
  check_int "runs = corners x transitions" 4 (List.length ev.Ev.runs);
  check_bool "latencies positive" true (ev.Ev.t_min > 0.);
  check_bool "skew small two-sink" true (ev.Ev.skew < 50.);
  check_bool "clr >= skew" true (ev.Ev.clr >= ev.Ev.skew -. 1e-9);
  check_bool "no violations" true (Ev.ok ev)

let test_evaluator_corners () =
  let t = staged_tree () in
  let ev = Ev.evaluate ~engine:Ev.Spice t in
  let nominal = Ev.nominal_run ev Ev.Rise in
  let slow =
    List.find
      (fun (r : Ev.run) ->
        r.Ev.transition = Ev.Rise
        && r.Ev.corner.Tech.Corner.r_scale > 1.0)
      ev.Ev.runs
  in
  let s = (Tree.sinks t).(0) in
  check_bool "slow corner is slower" true
    (slow.Ev.latency.(s) > nominal.Ev.latency.(s))

let test_evaluator_rise_fall () =
  let t = staged_tree () in
  let ev = Ev.evaluate ~engine:Ev.Spice t in
  let rise = Ev.nominal_run ev Ev.Rise and fall = Ev.nominal_run ev Ev.Fall in
  let s = (Tree.sinks t).(0) in
  (* Asymmetric pull-up/pull-down: rise and fall latencies differ, a
     little. *)
  check_bool "rise <> fall" true
    (Float.abs (rise.Ev.latency.(s) -. fall.Ev.latency.(s)) > 0.001);
  check_bool "but not wildly" true
    (Float.abs (rise.Ev.latency.(s) -. fall.Ev.latency.(s)) < 20.)

let test_evaluator_slew_violation () =
  (* A sink 8 mm from a weak source with no buffers must violate slew. *)
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let _ =
    Tree.add_node t
      ~kind:(Tree.Sink { Tree.cap = 20.; parity = 0; label = "far" })
      ~pos:(Point.make 8_000_000 0) ~parent:(Tree.root t) ()
  in
  let ev = Ev.evaluate ~engine:Ev.Spice t in
  check_bool "violates" true (ev.Ev.slew_violations > 0);
  check_bool "not ok" false (Ev.ok ev)

let test_engine_consistency_tree () =
  let t = staged_tree () in
  let sp = Ev.evaluate ~engine:Ev.Spice t in
  let ar = Ev.evaluate ~engine:Ev.Arnoldi t in
  let s = (Tree.sinks t).(0) in
  let lat e = (Ev.nominal_run e Ev.Rise).Ev.latency.(s) in
  check_bool "arnoldi within 10% of spice" true
    (Float.abs (lat sp -. lat ar) /. lat sp < 0.10)

let transient_qcheck =
  QCheck.Test.make ~name:"transient matches moments on random RC lines"
    ~count:30
    QCheck.(triple (int_range 2 12) (int_range 10 300) (int_range 5 120))
    (fun (nseg, r, c) ->
      let rc =
        line ~nseg ~seg_r:(float_of_int r) ~seg_c:(float_of_int c) ~load:30.
      in
      let dm, _ = (Analysis.Moments.solve rc ~r_drv:40. ~s_drv:20.).(0) in
      let dt, _ = (Analysis.Transient.solve ~step:0.2 rc ~r_drv:40. ~s_drv:20.).(0) in
      Float.abs (dm -. dt) /. Float.max 1. dt < 0.15)

let monotone_qcheck =
  QCheck.Test.make ~name:"transient: more load, more delay" ~count:30
    QCheck.(pair (int_range 10 200) (int_range 10 200))
    (fun (load1, extra) ->
      let solve load =
        let rc = line ~nseg:6 ~seg_r:150. ~seg_c:15. ~load in
        fst (Analysis.Transient.solve ~step:0.2 rc ~r_drv:60. ~s_drv:20.).(0)
      in
      solve (float_of_int (load1 + extra)) > solve (float_of_int load1))

let test_three_corners () =
  let typ = Tech.Corner.make ~name:"typ@1.1V" ~vdd:1.1 () in
  let tech3 =
    Tech.make ~wires:tech.Tech.wires ~devices:tech.Tech.devices
      ~slew_limit:100. ~cap_limit:infinity
      ~corners:[ Tech.Corner.fast; typ; Tech.Corner.slow ] ()
  in
  let t = Tree.create ~tech:tech3 ~source_pos:(Point.make 0 0) in
  let b = Tree.add_node t ~kind:(Tree.Buffer buf8) ~pos:(Point.make 400_000 0)
      ~parent:(Tree.root t) () in
  ignore (Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 15.; parity = 1; label = "s" })
            ~pos:(Point.make 900_000 0) ~parent:b ());
  let ev = Ev.evaluate ~engine:Ev.Spice t in
  check_int "6 runs (3 corners x 2 transitions)" 6 (List.length ev.Ev.runs);
  (* Latency ordering follows supply ordering. *)
  let s = (Tree.sinks t).(0) in
  let lat c =
    (List.find
       (fun (r : Ev.run) ->
         r.Ev.transition = Ev.Rise && r.Ev.corner.Tech.Corner.name = c)
       ev.Ev.runs)
      .Ev.latency.(s)
  in
  check_bool "fast < typ < slow" true
    (lat "fast@1.2V" < lat "typ@1.1V" && lat "typ@1.1V" < lat "slow@1.0V")

let evaluator_snake_qcheck =
  QCheck.Test.make
    ~name:"evaluator: snaking a sink wire slows it most" ~count:20
    QCheck.(int_range 100_000 400_000)
    (fun extra ->
      let t = staged_tree () in
      let sinks = Tree.sinks t in
      let before = Ev.evaluate ~engine:Ev.Spice t in
      let brun = Ev.nominal_run before Ev.Rise in
      (Tree.node t sinks.(0)).Tree.snake <- extra;
      let after = Ev.evaluate ~engine:Ev.Spice t in
      let arun = Ev.nominal_run after Ev.Rise in
      (* the snaked sink slows; sharing only through the driver stage, the
         sibling moves far less *)
      let d0 = arun.Ev.latency.(sinks.(0)) -. brun.Ev.latency.(sinks.(0)) in
      let d1 =
        Float.abs (arun.Ev.latency.(sinks.(1)) -. brun.Ev.latency.(sinks.(1)))
      in
      d0 > 0.05 && d1 < d0)

let test_local_skew () =
  (* Three sinks: two adjacent with close latencies, one far with a very
     different latency. Local skew at a small radius must ignore the far
     pair. *)
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let mid = Tree.add_node t ~kind:Tree.Internal ~pos:(Point.make 500_000 0)
      ~parent:(Tree.root t) () in
  let add label pos =
    Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 10.; parity = 0; label })
      ~pos ~parent:mid ()
  in
  let a = add "a" (Point.make 600_000 0) in
  let b = add "b" (Point.make 650_000 0) in
  let c = add "c" (Point.make 3_000_000 0) in
  let ev = Ev.evaluate ~engine:Ev.Spice t in
  let run = Ev.nominal_run ev Ev.Rise in
  let local = Analysis.Localskew.compute run ~tree:t ~radius:100_000 in
  let near_gap = Float.abs (run.Ev.latency.(a) -. run.Ev.latency.(b)) in
  let far_gap = Float.abs (run.Ev.latency.(a) -. run.Ev.latency.(c)) in
  check_near 1e-9 "local = near pair gap" near_gap local;
  check_bool "far pair bigger" true (far_gap > local);
  (* a radius covering everything reproduces the global spread *)
  let global = Analysis.Localskew.compute run ~tree:t ~radius:10_000_000 in
  check_near 1e-9 "global radius = global skew" ev.Ev.skew_rise global;
  (* profile is monotone in radius *)
  let prof = Analysis.Localskew.profile run ~tree:t ~radii:[ 100_000; 10_000_000 ] in
  (match prof with
  | [ (_, small); (_, big) ] -> check_bool "monotone" true (small <= big)
  | _ -> Alcotest.fail "profile shape")

let test_montecarlo () =
  let t = staged_tree () in
  let spec = { Analysis.Montecarlo.default_spec with Analysis.Montecarlo.trials = 10 } in
  let r = Analysis.Montecarlo.run spec t in
  check_bool "nominal finite" true (Float.is_finite r.Analysis.Montecarlo.nominal_skew);
  check_bool "variation raises effective skew" true
    (r.Analysis.Montecarlo.max_skew >= r.Analysis.Montecarlo.nominal_skew -. 1e-9);
  check_bool "std positive" true (r.Analysis.Montecarlo.std_skew > 0.);
  (* deterministic given the seed *)
  let r2 = Analysis.Montecarlo.run spec (staged_tree ()) in
  check_near 1e-9 "deterministic" r.Analysis.Montecarlo.mean_skew
    r2.Analysis.Montecarlo.mean_skew

let test_montecarlo_stronger_buffers_help () =
  (* Paper §IV-H claim (ii): stronger buffers reduce variation impact.
     Same tree structure with 4x vs 16x composites under the same relative
     sigma: the stronger tree's skew spread must be no larger. *)
  (* One independent buffer per branch: common-mode variation cancels in
     skew, per-branch variation does not — that is what buffer strength
     mitigates. *)
  let build count =
    let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
    let buf = Tech.Composite.make Tech.Device.small_inverter count in
    let mid = Tree.add_node t ~kind:Tree.Internal ~pos:(Point.make 400_000 0)
        ~parent:(Tree.root t) () in
    let branch dy label =
      let b = Tree.add_node t ~kind:(Tree.Buffer buf)
          ~pos:(Point.make 700_000 dy) ~parent:mid () in
      ignore (Tree.add_node t
                ~kind:(Tree.Sink { Tree.cap = 40.; parity = 1; label })
                ~pos:(Point.make 1_200_000 dy) ~parent:b ())
    in
    branch 0 "a";
    branch 400_000 "b";
    t
  in
  let spread count =
    let spec =
      { Analysis.Montecarlo.default_spec with
        Analysis.Montecarlo.trials = 25; sigma_wire = 0. }
    in
    (Analysis.Montecarlo.run spec (build count)).Analysis.Montecarlo.std_skew
  in
  check_bool "16x spread <= 4x spread" true (spread 16 <= spread 4 +. 1e-6)

let test_montecarlo_wire_sigma () =
  (* Wire jitter alone must also produce spread. *)
  let t = staged_tree () in
  let spec =
    { Analysis.Montecarlo.default_spec with
      Analysis.Montecarlo.trials = 10; sigma_buffer = 0.; sigma_wire = 0.05 }
  in
  let r = Analysis.Montecarlo.run spec t in
  check_bool "wire-only spread" true (r.Analysis.Montecarlo.std_skew > 0.)

let () =
  let q = Qseed.to_alcotest in
  Alcotest.run "analysis"
    [
      ("engines-lumped",
       [ Alcotest.test_case "elmore" `Quick test_lumped_elmore;
         Alcotest.test_case "moments" `Quick test_lumped_moments;
         Alcotest.test_case "transient" `Quick test_lumped_transient;
         Alcotest.test_case "waveform" `Quick test_transient_probe_waveform ]);
      ("engines-distributed",
       [ Alcotest.test_case "agreement" `Quick test_engines_agree_distributed;
         Alcotest.test_case "moment values" `Quick test_moments_values;
         Alcotest.test_case "resistive shielding" `Quick test_resistive_shielding;
         q transient_qcheck; q monotone_qcheck ]);
      ("rcnet", [ Alcotest.test_case "stages" `Quick test_stages ]);
      ("evaluator",
       [ Alcotest.test_case "basics" `Quick test_evaluator_basics;
         Alcotest.test_case "corners" `Quick test_evaluator_corners;
         Alcotest.test_case "rise/fall" `Quick test_evaluator_rise_fall;
         Alcotest.test_case "slew violation" `Quick test_evaluator_slew_violation;
         Alcotest.test_case "engine consistency" `Quick test_engine_consistency_tree ]);
      ("corners3",
       [ Alcotest.test_case "three corners" `Quick test_three_corners;
         q evaluator_snake_qcheck ]);
      ("localskew", [ Alcotest.test_case "windowed" `Quick test_local_skew ]);
      ("montecarlo",
       [ Alcotest.test_case "distribution" `Quick test_montecarlo;
         Alcotest.test_case "stronger buffers help" `Quick test_montecarlo_stronger_buffers_help;
         Alcotest.test_case "wire sigma" `Quick test_montecarlo_wire_sigma ]);
    ]
