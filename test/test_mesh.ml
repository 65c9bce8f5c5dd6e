open Geometry

let check_bool = Alcotest.(check bool)
let check_near tol = Alcotest.(check (float tol))

let tech = Tech.default45 ()

(* ---------- Network: CG transient vs. analytic / tree solver ---------- *)

let test_network_single_rc () =
  (* R=1000, C=100: tau = 100 ps; matches the analytic single pole. *)
  let net = Mesh.Network.create () in
  let n = Mesh.Network.add_node net ~cap:100. in
  let results =
    Mesh.Network.transient net
      ~sources:[ { Mesh.Network.node = n; r_drv = 1000.; t0 = 0.; ramp = 0.1 } ]
      ~watch:[| n |] ~step:0.1 ()
  in
  let t50, slew = results.(0) in
  check_near 0.7 "t50 = tau ln2" (100. *. log 2.) t50;
  check_near 1.5 "slew = tau ln9" (100. *. log 9.) slew

let test_network_matches_tree_solver () =
  (* A ladder without loops must agree with the tree transient engine:
     mirror the rc structure node for node. *)
  let nseg = 6 in
  let seg_r = 150. and seg_c = 20. and load = 50. in
  let s_drv = 25. in
  let rc =
    { Analysis.Rcnet.parent = Array.init (nseg + 2) (fun i -> i - 1);
      res =
        Array.init (nseg + 2) (fun i ->
            if i = 0 then 0. else if i <= nseg then seg_r else 1e-3);
      cap =
        Array.init (nseg + 2) (fun i ->
            if i = 0 then 0. else if i <= nseg then seg_c else load);
      taps = [| (nseg + 1, Analysis.Rcnet.Tap_sink 0) |];
      size = nseg + 2 }
  in
  let net = Mesh.Network.create () in
  let nodes =
    Array.init (nseg + 2) (fun i -> Mesh.Network.add_node net ~cap:rc.Analysis.Rcnet.cap.(i))
  in
  for i = 1 to nseg + 1 do
    Mesh.Network.add_res net nodes.(i - 1) nodes.(i) rc.Analysis.Rcnet.res.(i)
  done;
  let ramp = s_drv /. 0.8 in
  let t50_net, slew_net =
    (Mesh.Network.transient net
       ~sources:[ { Mesh.Network.node = nodes.(0); r_drv = 40.; t0 = 0.; ramp } ]
       ~watch:[| nodes.(nseg + 1) |] ~step:0.2 ()).(0)
  in
  let d_tree, slew_tree =
    (Analysis.Transient.solve ~step:0.2 rc ~r_drv:40. ~s_drv).(0)
  in
  (* The tree engine reports delay from the ramp's 50 % point; the network
     reports absolute time. *)
  check_near 1.0 "t50 agree" (d_tree +. (ramp /. 2.)) t50_net;
  check_near 2.0 "slew agree" slew_tree slew_net

let test_network_loop () =
  (* Two parallel resistive paths halve the effective resistance. *)
  let solve_with both =
    let net = Mesh.Network.create () in
    let a = Mesh.Network.add_node net ~cap:0. in
    let b = Mesh.Network.add_node net ~cap:200. in
    Mesh.Network.add_res net a b 400.;
    if both then Mesh.Network.add_res net a b 400.;
    fst
      (Mesh.Network.transient net
         ~sources:[ { Mesh.Network.node = a; r_drv = 1.; t0 = 0.; ramp = 0.1 } ]
         ~watch:[| b |] ~step:0.2 ()).(0)
  in
  let single = solve_with false and double = solve_with true in
  check_near 2.0 "parallel halves delay" (single /. 2.) double

let test_network_errors () =
  let net = Mesh.Network.create () in
  let a = Mesh.Network.add_node net ~cap:1. in
  Alcotest.check_raises "bad res"
    (Invalid_argument "Network.add_res: nonpositive resistance") (fun () ->
      Mesh.Network.add_res net a a 0.);
  check_bool "no sources rejected" true
    (try
       ignore (Mesh.Network.transient net ~sources:[] ~watch:[| a |] ());
       false
     with Invalid_argument _ -> true)

(* ---------- Grid mesh ---------- *)

let region = Rect.make ~lx:0 ~ly:0 ~hx:2_000_000 ~hy:2_000_000

let some_sinks n =
  let rng = Suite.Rng.create 5 in
  Array.init n (fun _ ->
      ( Point.make (Suite.Rng.int rng 2_000_000) (Suite.Rng.int rng 2_000_000),
        10. ))

let test_mesh_build () =
  let m = Mesh.Grid_mesh.build ~tech ~region ~nx:5 ~ny:5 ~sinks:(some_sinks 30) in
  check_bool "mesh cap positive" true (Mesh.Grid_mesh.wire_cap m > 0.);
  (* 2mm x 2mm, 5x5: 2 x 5 lines x 2mm of wide wire. *)
  let expected =
    Tech.Wire.cap (Tech.wire tech (Tech.widest_wire tech)) (2 * 5 * 2_000_000)
  in
  check_bool "mesh wire cap >= grid wires" true
    (Mesh.Grid_mesh.wire_cap m >= expected)

let test_mesh_taps () =
  let m = Mesh.Grid_mesh.build ~tech ~region ~nx:9 ~ny:9 ~sinks:(some_sinks 10) in
  let taps = Mesh.Grid_mesh.tap_points m ~k:3 in
  check_bool "9 taps" true (Array.length taps = 9);
  (* Taps lie in the region, corners included. *)
  Array.iter (fun p -> check_bool "in region" true (Rect.contains region p)) taps;
  check_bool "corner tap" true
    (Array.exists (fun p -> Point.equal p (Point.make 0 0)) taps)

let test_mesh_equalises () =
  (* Spread tap arrivals over 40 ps; the mesh must deliver much less sink
     skew, and a denser mesh must absorb more. *)
  let sinks = some_sinks 60 in
  let skew_of nx =
    let m = Mesh.Grid_mesh.build ~tech ~region ~nx ~ny:nx ~sinks in
    let rng = Suite.Rng.create 9 in
    let taps =
      Array.to_list (Mesh.Grid_mesh.tap_points m ~k:3)
      |> List.map (fun pos ->
             { Mesh.Grid_mesh.pos;
               arrival = 200. +. Suite.Rng.float rng *. 40.;
               r_drv = 14.; ramp = 25. })
    in
    (Mesh.Grid_mesh.evaluate m ~taps ()).Mesh.Grid_mesh.skew
  in
  let sparse = skew_of 5 and dense = skew_of 12 in
  check_bool "mesh absorbs most of 40ps" true (sparse < 30.);
  check_bool "denser absorbs more" true (dense < sparse)

let test_mesh_hybrid () =
  let m = Mesh.Grid_mesh.build ~tech ~region ~nx:8 ~ny:8 ~sinks:(some_sinks 40) in
  let res, flow =
    Mesh.Grid_mesh.hybrid ~tech ~source:(Point.make 0 1_000_000) ~k:3 m
  in
  check_bool "tree is tight" true
    (flow.Core.Flow.final.Analysis.Evaluator.skew < 10.);
  check_bool "mesh skew finite" true (Float.is_finite res.Mesh.Grid_mesh.skew);
  check_bool "all sinks reached" true
    (Array.for_all Float.is_finite res.Mesh.Grid_mesh.latencies);
  check_bool "latencies after tree delay" true
    (res.Mesh.Grid_mesh.t_min > 100.)

let test_mesh_single_tap () =
  let m = Mesh.Grid_mesh.build ~tech ~region ~nx:5 ~ny:5 ~sinks:(some_sinks 12) in
  let taps = Mesh.Grid_mesh.tap_points m ~k:1 in
  check_bool "single centre tap" true (Array.length taps = 1);
  let res =
    Mesh.Grid_mesh.evaluate m
      ~taps:[ { Mesh.Grid_mesh.pos = taps.(0); arrival = 100.; r_drv = 10.; ramp = 20. } ]
      ()
  in
  check_bool "arrivals after launch" true (res.Mesh.Grid_mesh.t_min >= 100.);
  check_bool "skew sane" true
    (res.Mesh.Grid_mesh.skew >= 0. && res.Mesh.Grid_mesh.skew < 200.)

let test_mesh_rejects () =
  check_bool "nx<2 rejected" true
    (try ignore (Mesh.Grid_mesh.build ~tech ~region ~nx:1 ~ny:5 ~sinks:(some_sinks 3)); false
     with Invalid_argument _ -> true);
  check_bool "no sinks rejected" true
    (try ignore (Mesh.Grid_mesh.build ~tech ~region ~nx:4 ~ny:4 ~sinks:[||]); false
     with Invalid_argument _ -> true)

let test_crosslink () =
  (* Two sinks in different stages with jittered launches: the link must
     reduce the mean divergence; candidates must be nearby pairs. *)
  let rng = Suite.Rng.create 31 in
  let sinks =
    Array.init 24 (fun i ->
        { Dme.Zst.pos =
            Point.make (Suite.Rng.int rng 2_000_000) (Suite.Rng.int rng 2_000_000);
          cap = 10.; parity = 0; label = Printf.sprintf "s%d" i })
  in
  let tree = Dme.Zst.build ~tech ~source:(Point.make 0 1_000_000) sinks in
  let buf = Tech.Composite.make Tech.Device.small_inverter 16 in
  let tree =
    Buffering.Fast_vg.insert tree ~buf
      ~cap_ceiling:(Route.Slewcap.wire_aware ~tech ~buf ()) ()
  in
  ignore (Core.Polarity.correct tree ~buf ~strategy:Core.Polarity.Minimal);
  let eval = Analysis.Evaluator.evaluate tree in
  (* pick a candidate whose sinks live in different driver stages —
     same-stage pairs see only common-mode jitter, where a link correctly
     buys nothing *)
  let rec driver_of i =
    let nd = Ctree.Tree.node tree i in
    if nd.Ctree.Tree.parent < 0 then i
    else
      match (Ctree.Tree.node tree nd.Ctree.Tree.parent).Ctree.Tree.kind with
      | Ctree.Tree.Buffer _ | Ctree.Tree.Source -> nd.Ctree.Tree.parent
      | _ -> driver_of nd.Ctree.Tree.parent
  in
  let cands = Mesh.Crosslink.candidates tree ~radius:1_500_000 ~limit:20 () in
  match List.find_opt (fun (a, b) -> driver_of a <> driver_of b) cands with
  | None -> Alcotest.fail "no cross-stage candidate pair"
  | Some (a, b) ->
    let pa = (Ctree.Tree.node tree a).Ctree.Tree.pos in
    let pb = (Ctree.Tree.node tree b).Ctree.Tree.pos in
    check_bool "candidates nearby" true (Point.dist pa pb <= 800_000);
    let r = Mesh.Crosslink.evaluate tree ~eval ~pair:(a, b) ~sigma:5. ~trials:12 () in
    check_bool "link reduces divergence" true
      (r.Mesh.Crosslink.linked < r.Mesh.Crosslink.unlinked);
    check_bool "link cap positive" true (r.Mesh.Crosslink.link_cap > 0.);
    (* determinism *)
    let r2 = Mesh.Crosslink.evaluate tree ~eval ~pair:(a, b) ~sigma:5. ~trials:12 () in
    check_near 1e-9 "deterministic" r.Mesh.Crosslink.linked r2.Mesh.Crosslink.linked

let network_qcheck =
  QCheck.Test.make ~name:"network: adding load never speeds a node up"
    ~count:20
    QCheck.(pair (int_range 50 400) (int_range 10 200))
    (fun (r, extra) ->
      let t50 load =
        let net = Mesh.Network.create () in
        let a = Mesh.Network.add_node net ~cap:10. in
        let b = Mesh.Network.add_node net ~cap:load in
        Mesh.Network.add_res net a b (float_of_int r);
        fst
          (Mesh.Network.transient net
             ~sources:[ { Mesh.Network.node = a; r_drv = 30.; t0 = 0.; ramp = 10. } ]
             ~watch:[| b |] ~step:0.5 ()).(0)
      in
      t50 (float_of_int (100 + extra)) >= t50 100. -. 0.5)

let () =
  let q = Qseed.to_alcotest in
  Alcotest.run "mesh"
    [
      ("network",
       [ Alcotest.test_case "single RC" `Quick test_network_single_rc;
         Alcotest.test_case "matches tree solver" `Quick test_network_matches_tree_solver;
         Alcotest.test_case "resistive loop" `Quick test_network_loop;
         Alcotest.test_case "errors" `Quick test_network_errors;
         q network_qcheck ]);
      ("grid-mesh",
       [ Alcotest.test_case "build" `Quick test_mesh_build;
         Alcotest.test_case "taps" `Quick test_mesh_taps;
         Alcotest.test_case "equalises" `Quick test_mesh_equalises;
         Alcotest.test_case "single tap" `Quick test_mesh_single_tap;
         Alcotest.test_case "rejects" `Quick test_mesh_rejects;
         Alcotest.test_case "hybrid" `Slow test_mesh_hybrid ]);
      ("crosslink", [ Alcotest.test_case "link gain" `Slow test_crosslink ]);
    ]
