open Geometry
module Tree = Ctree.Tree

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tech = Tech.default45 ()

(* ---------- Slewcap ---------- *)

let test_slewcap_lumped () =
  let weak = Tech.Composite.make Tech.Device.small_inverter 2 in
  let strong = Tech.Composite.make Tech.Device.small_inverter 16 in
  let cw = Route.Slewcap.lumped ~tech ~buf:weak () in
  let cs = Route.Slewcap.lumped ~tech ~buf:strong () in
  check_bool "positive" true (cw > 0.);
  check_bool "stronger drives more" true (cs > 2. *. cw)

let test_slewcap_simulated () =
  let buf = Tech.Composite.make Tech.Device.small_inverter 8 in
  let lumped = Route.Slewcap.lumped ~tech ~buf ~margin:1.0 () in
  let sim = Route.Slewcap.simulated ~tech ~buf () in
  check_bool "same order of magnitude" true
    (sim > 0.2 *. lumped && sim < 3. *. lumped)

(* ---------- Obstacle ---------- *)

let test_obstacle_compound () =
  let a = Rect.make ~lx:0 ~ly:0 ~hx:100 ~hy:100 in
  let b = Rect.make ~lx:100 ~ly:20 ~hx:180 ~hy:80 in
  let c = Rect.make ~lx:500 ~ly:500 ~hx:600 ~hy:600 in
  let comps = Route.Obstacle.compounds [ a; b; c ] in
  check_int "two compounds" 2 (List.length comps);
  let big =
    List.find (fun o -> List.length o.Route.Obstacle.rects = 2) comps
  in
  check_bool "inside union" true (Route.Obstacle.inside big (Point.make 150 50));
  check_bool "boundary not inside" false
    (Route.Obstacle.inside big (Point.make 0 50));
  check_bool "shared edge interior" true
    (Route.Obstacle.inside big (Point.make 100 50));
  check_int "polyline overlap" 90
    (Route.Obstacle.polyline_overlap big
       [ Point.make 120 (-10); Point.make 120 50; Point.make 500 50 ])

(* ---------- Detour machinery ---------- *)

let sink label pos cap = (label, pos, cap)

(* Tree whose Steiner structure sits inside a 2x2 mm obstacle while the
   sinks are outside. *)
let enclosed_case () =
  let obstacle = Rect.make ~lx:1_000_000 ~ly:1_000_000 ~hx:3_000_000 ~hy:3_000_000 in
  let t = Tree.create ~tech ~source_pos:(Point.make 0 2_000_000) in
  let inner =
    Tree.add_node t ~kind:Tree.Internal ~pos:(Point.make 2_000_000 2_000_000)
      ~parent:(Tree.root t) ()
  in
  let add (label, pos, cap) =
    ignore
      (Tree.add_node t ~kind:(Tree.Sink { Tree.cap = cap; parity = 0; label })
         ~pos ~parent:inner ())
  in
  List.iter add
    [ sink "n" (Point.make 2_000_000 3_500_000) 10.;
      sink "e" (Point.make 3_500_000 2_000_000) 10.;
      sink "s" (Point.make 2_000_000 500_000) 10. ];
  (t, obstacle, inner)

let test_enclosed_roots () =
  let t, obstacle, inner = enclosed_case () in
  let compound = List.hd (Route.Obstacle.compounds [ obstacle ]) in
  Alcotest.(check (list int)) "inner found" [ inner ]
    (Route.Detour.enclosed_roots t compound)

let test_subtree_cap () =
  let t, _, inner = enclosed_case () in
  let cap = Route.Detour.subtree_cap t inner in
  let stats = Ctree.Stats.compute t in
  Alcotest.(check (float 1e-6)) "equals full tree cap here"
    stats.Ctree.Stats.total_cap cap

let test_detour_apply () =
  let t, obstacle, inner = enclosed_case () in
  let compound = List.hd (Route.Obstacle.compounds [ obstacle ]) in
  let result = Route.Detour.apply t compound ~root:inner in
  check_int "three attachments" 3 result.Route.Detour.attachments;
  let t, _ = Tree.compact t in
  Alcotest.(check (list string)) "valid after detour" [] (Ctree.Validate.check t);
  check_int "sinks preserved" 3 (Array.length (Tree.sinks t));
  (* No wire crosses the obstacle interior any more. *)
  let overlap = ref 0 in
  Tree.iter t (fun nd ->
      if nd.Tree.parent >= 0 then begin
        let pts =
          match nd.Tree.route with
          | [] -> [ (Tree.node t nd.Tree.parent).Tree.pos; nd.Tree.pos ]
          | r -> r
        in
        overlap := !overlap + Route.Obstacle.polyline_overlap compound pts
      end);
  check_int "no interior overlap" 0 !overlap

let test_detour_cut_farthest () =
  (* Source attaches on the west side; the detour must wrap both ways and
     cut an arc on the east (far) side: total chain stays below the full
     perimeter. *)
  let t, obstacle, inner = enclosed_case () in
  let compound = List.hd (Route.Obstacle.compounds [ obstacle ]) in
  let result = Route.Detour.apply t compound ~root:inner in
  let perim = Contour.perimeter compound.Route.Obstacle.contour in
  check_bool "chain shorter than perimeter" true
    (result.Route.Detour.chain_wirelength < perim);
  let cut_lo, cut_hi = result.Route.Detour.cut in
  let west, _ = Contour.project compound.Route.Obstacle.contour (Point.make 0 2_000_000) in
  (* the removed arc is far from the west attachment *)
  check_bool "cut not at the source side" true
    (Contour.dist_along compound.Route.Obstacle.contour west cut_lo > 0
     || Contour.dist_along compound.Route.Obstacle.contour west cut_hi > 0)

let test_slewcap_wire_aware () =
  let buf = Tech.Composite.make Tech.Device.small_inverter 16 in
  let wa = Route.Slewcap.wire_aware ~tech ~buf () in
  let lu = Route.Slewcap.lumped ~tech ~buf ~margin:0.8 () in
  check_bool "wire-aware positive" true (wa > 0.);
  (* wire resistance only makes the bound tighter than the lumped one *)
  check_bool "wire-aware <= lumped" true (wa <= lu +. 1.);
  let strong = Tech.Composite.make Tech.Device.small_inverter 64 in
  check_bool "monotone in strength" true
    (Route.Slewcap.wire_aware ~tech ~buf:strong () > wa)

let test_detour_sink_inside () =
  (* A sink strictly inside the obstacle becomes an attachment itself;
     the wire to it legitimately crosses the boundary. *)
  let obstacle = Rect.make ~lx:1_000_000 ~ly:1_000_000 ~hx:3_000_000 ~hy:3_000_000 in
  let t = Tree.create ~tech ~source_pos:(Point.make 0 2_000_000) in
  let inner =
    Tree.add_node t ~kind:Tree.Internal ~pos:(Point.make 2_000_000 2_000_000)
      ~parent:(Tree.root t) ()
  in
  ignore
    (Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 10.; parity = 0; label = "in" })
       ~pos:(Point.make 1_500_000 1_500_000) ~parent:inner ());
  ignore
    (Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 10.; parity = 0; label = "out" })
       ~pos:(Point.make 3_500_000 2_000_000) ~parent:inner ());
  let compound = List.hd (Route.Obstacle.compounds [ obstacle ]) in
  let result = Route.Detour.apply t compound ~root:inner in
  check_int "both attachments" 2 result.Route.Detour.attachments;
  let t, _ = Tree.compact t in
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check t);
  check_int "sinks kept" 2 (Array.length (Tree.sinks t))

(* ---------- Repair ---------- *)

let test_repair_bend_flip () =
  (* A bent wire whose XY configuration crosses an obstacle flips to YX. *)
  let obstacle = Rect.make ~lx:800_000 ~ly:(-200_000) ~hx:1_200_000 ~hy:800_000 in
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let s =
    Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 10.; parity = 0; label = "s" })
      ~pos:(Point.make 2_000_000 1_000_000) ~parent:(Tree.root t)
      ~bend:Segment.L.XY ()
  in
  let repaired, report = Route.Repair.run t ~obstacles:[ obstacle ] ~drivable_cap:1e9 in
  check_int "one flip" 1 report.Route.Repair.bend_flips;
  check_int "no remaining overlap" 0 report.Route.Repair.remaining_overlap;
  check_bool "bend changed" true ((Tree.node repaired s).Tree.bend = Segment.L.YX)

let test_repair_drivable_skip () =
  (* Small enclosed subtree under the cap bound: left alone. *)
  let t, obstacle, _ = enclosed_case () in
  let _, report = Route.Repair.run t ~obstacles:[ obstacle ] ~drivable_cap:1e9 in
  check_int "skipped" 1 report.Route.Repair.drivable_skips;
  check_int "no detour" 0 report.Route.Repair.detours

let test_repair_detours_heavy () =
  let t, obstacle, _ = enclosed_case () in
  let _, report = Route.Repair.run t ~obstacles:[ obstacle ] ~drivable_cap:10. in
  check_int "detoured" 1 report.Route.Repair.detours

let test_repair_preserves_sinks () =
  let t, obstacle, _ = enclosed_case () in
  let before = Array.length (Tree.sinks t) in
  let repaired, _ = Route.Repair.run t ~obstacles:[ obstacle ] ~drivable_cap:10. in
  check_int "sinks preserved" before (Array.length (Tree.sinks repaired));
  Alcotest.(check (list string)) "valid" [] (Ctree.Validate.check repaired)

let test_illegal_buffers () =
  let obstacle = Rect.make ~lx:400_000 ~ly:(-100_000) ~hx:600_000 ~hy:100_000 in
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let s =
    Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 10.; parity = 0; label = "s" })
      ~pos:(Point.make 1_000_000 0) ~parent:(Tree.root t) ()
  in
  check_int "none yet" 0
    (List.length (Route.Repair.illegal_buffers t ~obstacles:[ obstacle ]));
  let buf = Tech.Composite.make Tech.Device.small_inverter 4 in
  ignore (Tree.insert_buffer_on_wire t s ~at:500_000 ~buf);
  check_int "one illegal" 1
    (List.length (Route.Repair.illegal_buffers t ~obstacles:[ obstacle ]))

let repair_qcheck =
  QCheck.Test.make
    ~name:"repair: random obstacle fields keep trees valid, sinks intact"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Suite.Rng.create seed in
      let obstacles =
        List.init 3 (fun _ ->
            let lx = 500_000 + Suite.Rng.int rng 2_000_000 in
            let ly = 500_000 + Suite.Rng.int rng 2_000_000 in
            Rect.make ~lx ~ly ~hx:(lx + 300_000 + Suite.Rng.int rng 700_000)
              ~hy:(ly + 300_000 + Suite.Rng.int rng 700_000))
      in
      let inside p = List.exists (fun r -> Rect.contains_open r p) obstacles in
      let rec pos () =
        let p =
          Point.make (Suite.Rng.int rng 4_000_000) (Suite.Rng.int rng 4_000_000)
        in
        if inside p then pos () else p
      in
      let sinks =
        Array.init 25 (fun i ->
            { Dme.Zst.pos = pos (); cap = 10.; parity = 0;
              label = Printf.sprintf "s%d" i })
      in
      let tree = Dme.Zst.build ~tech ~source:(Point.make 0 2_000_000) sinks in
      let repaired, _ =
        Route.Repair.run tree ~obstacles ~drivable_cap:300.
      in
      Ctree.Validate.check repaired = []
      && Array.length (Tree.sinks repaired) = 25)

let () =
  let q = Qseed.to_alcotest in
  Alcotest.run "route"
    [
      ("slewcap",
       [ Alcotest.test_case "lumped" `Quick test_slewcap_lumped;
         Alcotest.test_case "simulated" `Quick test_slewcap_simulated;
         Alcotest.test_case "wire-aware" `Quick test_slewcap_wire_aware ]);
      ("obstacle", [ Alcotest.test_case "compound" `Quick test_obstacle_compound ]);
      ("detour",
       [ Alcotest.test_case "enclosed roots" `Quick test_enclosed_roots;
         Alcotest.test_case "sink inside" `Quick test_detour_sink_inside;
         Alcotest.test_case "subtree cap" `Quick test_subtree_cap;
         Alcotest.test_case "apply" `Quick test_detour_apply;
         Alcotest.test_case "cut farthest" `Quick test_detour_cut_farthest ]);
      ("repair",
       [ Alcotest.test_case "bend flip" `Quick test_repair_bend_flip;
         Alcotest.test_case "drivable skip" `Quick test_repair_drivable_skip;
         Alcotest.test_case "detours heavy" `Quick test_repair_detours_heavy;
         Alcotest.test_case "preserves sinks" `Quick test_repair_preserves_sinks;
         Alcotest.test_case "illegal buffers" `Quick test_illegal_buffers;
         q repair_qcheck ]);
    ]
