let check_f = Alcotest.(check (float 1e-9))
let check_fa tol = Alcotest.(check (float tol))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Units ---------- *)

let test_units () =
  check_f "ohm*fF = 1e-3 ps" 1e-3 Tech.Units.rc_to_ps;
  check_f "ps_of_rc" 0.1 (Tech.Units.ps_of_rc 100. 1.);
  check_int "nm_of_um" 1500 (Tech.Units.nm_of_um 1.5);
  check_f "um_of_nm" 1.5 (Tech.Units.um_of_nm 1500);
  check_fa 1e-6 "ln9" (log 9.) Tech.Units.ln9

(* ---------- Wire ---------- *)

let test_wire () =
  let w = Tech.Wire.make ~name:"t" ~res_per_nm:1e-4 ~cap_per_nm:2e-4 in
  check_f "res" 100. (Tech.Wire.res w 1_000_000);
  check_f "cap" 200. (Tech.Wire.cap w 1_000_000);
  (* Elmore of 1mm driving 100fF: 100*(100+100)*1e-3 = 20ps *)
  check_f "elmore" 20. (Tech.Wire.elmore_ps w 1_000_000 ~load:100.);
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Wire.make: nonpositive unit parasitics") (fun () ->
      ignore (Tech.Wire.make ~name:"bad" ~res_per_nm:0. ~cap_per_nm:1.))

(* ---------- Device: Table I values ---------- *)

let test_table1_devices () =
  let l = Tech.Device.large_inverter and s = Tech.Device.small_inverter in
  check_f "large cin" 35. l.Tech.Device.c_in;
  check_f "large cout" 80. l.Tech.Device.c_out;
  check_fa 1e-6 "large rout" 61.2 (Tech.Device.r_out l);
  check_f "small cin" 4.2 s.Tech.Device.c_in;
  check_f "small cout" 6.1 s.Tech.Device.c_out;
  check_fa 1e-6 "small rout" 440. (Tech.Device.r_out s);
  check_bool "inverting" true l.Tech.Device.inverting;
  (* rise/fall asymmetry present *)
  check_bool "r_up > r_down" true (l.Tech.Device.r_up > l.Tech.Device.r_down)

(* ---------- Composite: the paper's 8x-small observation ---------- *)

let test_composite_scaling () =
  let c8 = Tech.Composite.make Tech.Device.small_inverter 8 in
  check_fa 1e-9 "8x cin" 33.6 (Tech.Composite.c_in c8);
  check_fa 1e-9 "8x cout" 48.8 (Tech.Composite.c_out c8);
  check_fa 1e-9 "8x rout" 55. (Tech.Composite.r_out c8);
  Alcotest.(check string) "name" "8xINV_S" (Tech.Composite.name c8);
  Alcotest.check_raises "count<1" (Invalid_argument "Composite.make: count < 1")
    (fun () -> ignore (Tech.Composite.make Tech.Device.small_inverter 0))

let test_composite_dominance () =
  (* Table I's point: 8 small inverters dominate 1 large on every axis. *)
  let c8 = Tech.Composite.make Tech.Device.small_inverter 8 in
  let l1 = Tech.Composite.make Tech.Device.large_inverter 1 in
  check_bool "cin" true (Tech.Composite.c_in c8 < Tech.Composite.c_in l1);
  check_bool "cout" true (Tech.Composite.c_out c8 < Tech.Composite.c_out l1);
  check_bool "rout" true (Tech.Composite.r_out c8 < Tech.Composite.r_out l1);
  let all =
    Tech.Composite.enumerate
      [ Tech.Device.small_inverter; Tech.Device.large_inverter ]
      ~max_count:16
  in
  let front = Tech.Composite.non_dominated all in
  (* 1x and 2x large are dominated by 8x/16x small; 8x small survives.
     (Large composites at high counts remain non-dominated: no available
     small count matches their drive.) *)
  check_bool "weak larges dominated" true
    (List.for_all
       (fun c ->
         c.Tech.Composite.base.Tech.Device.name <> "INV_L"
         || c.Tech.Composite.count > 2)
       front);
  check_bool "8x small on frontier" true
    (List.exists
       (fun c ->
         c.Tech.Composite.base.Tech.Device.name = "INV_S"
         && c.Tech.Composite.count = 8)
       front);
  (* Frontier is sorted by cin and strictly improving in rout. *)
  let rec sorted = function
    | a :: b :: rest ->
      Tech.Composite.c_in a < Tech.Composite.c_in b
      && Tech.Composite.r_out a > Tech.Composite.r_out b
      && sorted (b :: rest)
    | _ -> true
  in
  check_bool "frontier sorted/pareto" true (sorted front)

let test_composite_scale_rounding () =
  let c8 = Tech.Composite.make Tech.Device.small_inverter 8 in
  check_int "scale 1.25 of 8 = 10" 10
    (Tech.Composite.scale c8 1.25).Tech.Composite.count;
  check_int "scale down floors at 1" 1
    (Tech.Composite.scale (Tech.Composite.make Tech.Device.small_inverter 2) 0.1)
      .Tech.Composite.count

let composite_qcheck =
  QCheck.Test.make ~name:"composite: parallel law (cap*n, r/n)" ~count:200
    QCheck.(int_range 1 64)
    (fun n ->
      let c = Tech.Composite.make Tech.Device.small_inverter n in
      let fn = float_of_int n in
      Float.abs (Tech.Composite.c_in c -. (4.2 *. fn)) < 1e-9
      && Float.abs (Tech.Composite.r_out c -. (440. /. fn)) < 1e-9)

(* ---------- Corner ---------- *)

let test_corners () =
  check_f "fast is nominal" 1.0 Tech.Corner.fast.Tech.Corner.r_scale;
  check_bool "slow slower" true (Tech.Corner.slow.Tech.Corner.r_scale > 1.0);
  check_bool "slow within sane band" true
    (Tech.Corner.slow.Tech.Corner.r_scale < 1.2);
  check_bool "d_scale tracks" true
    (Tech.Corner.slow.Tech.Corner.d_scale > 1.0
    && Tech.Corner.slow.Tech.Corner.d_scale
       < Tech.Corner.slow.Tech.Corner.r_scale +. 0.01);
  Alcotest.check_raises "vdd <= vth" (Invalid_argument "Corner: vdd <= vth")
    (fun () -> ignore (Tech.Corner.make ~name:"x" ~vdd:0.1 ()))

let test_corner_monotone () =
  (* Lower supply => higher resistance scale. *)
  let r v = (Tech.Corner.make ~name:"v" ~vdd:v ()).Tech.Corner.r_scale in
  check_bool "monotone" true (r 0.9 > r 1.0 && r 1.0 > r 1.1 && r 1.1 > r 1.2)

(* ---------- Tech bundle ---------- *)

let test_tech_bundle () =
  let t = Tech.default45 () in
  check_int "two wire classes" 2 (Array.length t.Tech.wires);
  check_bool "wide has lower res" true
    ((Tech.wire t (Tech.widest_wire t)).Tech.Wire.res_per_nm
    < (Tech.wire t (Tech.narrowest_wire t)).Tech.Wire.res_per_nm);
  check_bool "wide has higher cap" true
    ((Tech.wire t (Tech.widest_wire t)).Tech.Wire.cap_per_nm
    > (Tech.wire t (Tech.narrowest_wire t)).Tech.Wire.cap_per_nm);
  check_f "slew limit" 100. t.Tech.slew_limit;
  check_int "two corners" 2 (List.length t.Tech.corners);
  check_bool "unlimited cap default" true (t.Tech.cap_limit = infinity);
  let t2 = Tech.default45 ~cap_limit:5000. () in
  check_f "cap limit set" 5000. t2.Tech.cap_limit

let () =
  let q = Qseed.to_alcotest in
  Alcotest.run "tech"
    [
      ("units", [ Alcotest.test_case "conversions" `Quick test_units ]);
      ("wire", [ Alcotest.test_case "parasitics" `Quick test_wire ]);
      ("device", [ Alcotest.test_case "table1" `Quick test_table1_devices ]);
      ("composite",
       [ Alcotest.test_case "scaling" `Quick test_composite_scaling;
         Alcotest.test_case "dominance" `Quick test_composite_dominance;
         Alcotest.test_case "scale rounding" `Quick test_composite_scale_rounding;
         q composite_qcheck ]);
      ("corner",
       [ Alcotest.test_case "defaults" `Quick test_corners;
         Alcotest.test_case "monotone" `Quick test_corner_monotone ]);
      ("bundle", [ Alcotest.test_case "default45" `Quick test_tech_bundle ]);
    ]
