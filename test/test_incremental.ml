(* Incremental-evaluation correctness: the session API must be bit-for-bit
   interchangeable with from-scratch evaluation through arbitrary edit
   sequences — the cache-correctness oracle — plus regression tests for
   the corner-identity and probe bugs fixed alongside it. *)

open Geometry
module Tree = Ctree.Tree
module Ev = Analysis.Evaluator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_near tol = Alcotest.(check (float tol))

let tech = Tech.default45 ()
let buf8 = Tech.Composite.make Tech.Device.small_inverter 8

(* Source → buffer → branch point → two buffered subtrees, four sinks:
   enough stages that localized edits leave most of the tree untouched. *)
let rich_tree () =
  let t = Tree.create ~tech ~source_pos:(Point.make 0 0) in
  let a =
    Tree.add_node t ~kind:(Tree.Buffer buf8) ~pos:(Point.make 300_000 0)
      ~parent:(Tree.root t) ()
  in
  let mid =
    Tree.add_node t ~kind:Tree.Internal ~pos:(Point.make 600_000 0) ~parent:a ()
  in
  let b =
    Tree.add_node t ~kind:(Tree.Buffer buf8) ~pos:(Point.make 900_000 0)
      ~parent:mid ()
  in
  let c =
    Tree.add_node t ~kind:(Tree.Buffer buf8) ~pos:(Point.make 600_000 300_000)
      ~parent:mid ()
  in
  let sink label pos parent =
    ignore
      (Tree.add_node t ~kind:(Tree.Sink { Tree.cap = 15.; parity = 0; label })
         ~pos ~parent ())
  in
  sink "s1" (Point.make 1_200_000 0) b;
  sink "s2" (Point.make 900_000 300_000) b;
  sink "s3" (Point.make 600_000 600_000) c;
  sink "s4" (Point.make 900_000 450_000) c;
  t

let same_float a b =
  (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) <= 1e-9

let check_same_eval label (fresh : Ev.t) (inc : Ev.t) =
  let ok = ref true in
  let expect cond = if not cond then ok := false in
  expect (same_float fresh.Ev.skew inc.Ev.skew);
  expect (same_float fresh.Ev.skew_rise inc.Ev.skew_rise);
  expect (same_float fresh.Ev.skew_fall inc.Ev.skew_fall);
  expect (same_float fresh.Ev.clr inc.Ev.clr);
  expect (same_float fresh.Ev.t_min inc.Ev.t_min);
  expect (same_float fresh.Ev.t_max inc.Ev.t_max);
  expect (fresh.Ev.slew_violations = inc.Ev.slew_violations);
  expect (fresh.Ev.cap_ok = inc.Ev.cap_ok);
  expect (List.length fresh.Ev.runs = List.length inc.Ev.runs);
  List.iter2
    (fun (fr : Ev.run) (ir : Ev.run) ->
      expect (fr.Ev.corner.Tech.Corner.name = ir.Ev.corner.Tech.Corner.name);
      expect (fr.Ev.transition = ir.Ev.transition);
      expect (Array.length fr.Ev.latency = Array.length ir.Ev.latency);
      Array.iteri
        (fun i l -> expect (same_float l ir.Ev.latency.(i)))
        fr.Ev.latency;
      Array.iteri (fun i s -> expect (same_float s ir.Ev.slew.(i))) fr.Ev.slew)
    fresh.Ev.runs inc.Ev.runs;
  check_bool label true !ok

(* Apply one random structural or electrical edit. *)
let random_edit rng tree =
  let n_wires = Array.length tech.Tech.wires in
  let pick_wire_node () =
    (* any non-root node *)
    1 + Random.State.int rng (Tree.size tree - 1)
  in
  match Random.State.int rng 5 with
  | 0 ->
    let id = pick_wire_node () in
    Tree.set_snake tree id (Random.State.int rng 60_000)
  | 1 ->
    let id = pick_wire_node () in
    Tree.set_wire_class tree id (Random.State.int rng n_wires)
  | 2 -> (
    (* rescale a random existing buffer *)
    let bufs = Tree.buffer_ids tree in
    match Array.length bufs with
    | 0 -> ()
    | nb -> (
      let id = bufs.(Random.State.int rng nb) in
      match (Tree.node tree id).Tree.kind with
      | Tree.Buffer b ->
        let f = 0.5 +. Random.State.float rng 1.5 in
        Tree.set_buffer tree id (Tech.Composite.scale b f)
      | _ -> ()))
  | 3 ->
    (* insert a buffer mid-wire when the wire is long enough *)
    let id = pick_wire_node () in
    let nd = Tree.node tree id in
    if nd.Tree.geom_len > 20_000 then
      ignore
        (Tree.insert_buffer_on_wire tree id
           ~at:(10_000 + Random.State.int rng (nd.Tree.geom_len - 20_000))
           ~buf:buf8)
  | _ -> (
    (* remove a buffer, but keep at least two so stages remain *)
    let bufs = Tree.buffer_ids tree in
    if Array.length bufs > 2 then
      Tree.remove_buffer tree bufs.(Random.State.int rng (Array.length bufs)))

let oracle_for engine () =
  let tree = rich_tree () in
  let seg_len = 30_000 in
  let session = Ev.Incremental.create ~engine ~seg_len tree in
  let rng = Random.State.make [| 42 |] in
  let fresh0 = Ev.evaluate ~engine ~seg_len tree in
  check_same_eval "initial refresh matches evaluate" fresh0
    (Ev.Incremental.refresh session);
  for i = 1 to 25 do
    random_edit rng tree;
    let fresh = Ev.evaluate ~engine ~seg_len tree in
    let inc = Ev.Incremental.refresh session in
    check_same_eval (Printf.sprintf "edit %d matches" i) fresh inc
  done;
  let st = Ev.Incremental.stats session in
  check_bool "cache produced hits" true (st.Ev.hits > 0)

let test_oracle_spice () = oracle_for Ev.Spice ()
let test_oracle_arnoldi () = oracle_for Ev.Arnoldi ()

let test_refresh_after_copy_and_compact () =
  (* ?tree rebinding: caches are content-keyed, so a compacted clone (new
     node numbering) must still evaluate identically and mostly from
     cache. *)
  let tree = rich_tree () in
  let session = Ev.Incremental.create ~engine:Ev.Spice tree in
  ignore (Ev.Incremental.refresh session);
  let clone, _ = Tree.compact (Tree.copy tree) in
  let misses_before = (Ev.Incremental.stats session).Ev.misses in
  let inc = Ev.Incremental.refresh ~tree:clone session in
  let fresh = Ev.evaluate ~engine:Ev.Spice clone in
  check_same_eval "compacted clone matches" fresh inc;
  check_int "identical content re-solves nothing" misses_before
    (Ev.Incremental.stats session).Ev.misses

let test_parallel_matches_sequential () =
  let tree = rich_tree () in
  let seq = Ev.Incremental.create ~engine:Ev.Spice ~parallel:false tree in
  let par = Ev.Incremental.create ~engine:Ev.Spice ~parallel:true tree in
  check_same_eval "parallel = sequential"
    (Ev.Incremental.refresh seq)
    (Ev.Incremental.refresh par);
  Tree.set_snake tree 2 40_000;
  check_same_eval "after edit too"
    (Ev.Incremental.refresh seq)
    (Ev.Incremental.refresh par)

let test_fast_refresh_memo () =
  let tree = rich_tree () in
  let session = Ev.Incremental.create ~engine:Ev.Spice tree in
  ignore (Ev.Incremental.refresh session);
  ignore (Ev.Incremental.refresh session);
  ignore (Ev.Incremental.refresh session);
  let st = Ev.Incremental.stats session in
  check_int "3 refreshes" 3 st.Ev.refreshes;
  check_int "2 were memo hits" 2 st.Ev.fast_refreshes;
  (* Any mutation invalidates the memo... *)
  Tree.set_snake tree 2 10_000;
  ignore (Ev.Incremental.refresh session);
  check_int "edit forces a real refresh" 2
    (Ev.Incremental.stats session).Ev.fast_refreshes;
  (* ...including direct field writes flagged with [touch]. *)
  (Tree.node tree 2).Tree.snake <- 20_000;
  Tree.touch tree;
  let fresh = Ev.evaluate ~engine:Ev.Spice tree in
  check_same_eval "direct write + touch is seen" fresh
    (Ev.Incremental.refresh session)

let test_revision_counter () =
  let tree = rich_tree () in
  let r0 = Tree.revision tree in
  Tree.set_snake tree 2 1_000;
  check_bool "set_snake bumps" true (Tree.revision tree > r0);
  let r1 = Tree.revision tree in
  Tree.set_wire_class tree 2 0;
  Tree.set_buffer tree 1 buf8;
  ignore (Tree.insert_buffer_on_wire tree 2 ~at:50_000 ~buf:buf8);
  check_bool "mutators bump" true (Tree.revision tree >= r1 + 3);
  let copy = Tree.copy tree in
  check_int "copy preserves revision" (Tree.revision tree) (Tree.revision copy)

(* ---------- Engine agreement (satellite test) ---------- *)

let test_engines_agree_on_tree () =
  let tree = rich_tree () in
  let spice = Ev.evaluate ~engine:Ev.Spice tree in
  let arnoldi = Ev.evaluate ~engine:Ev.Arnoldi tree in
  let elmore = Ev.evaluate ~engine:Ev.Elmore_model tree in
  let rel a b = Float.abs (a -. b) /. Float.max b 1. in
  check_bool "arnoldi t_max within 12% of spice" true
    (rel arnoldi.Ev.t_max spice.Ev.t_max < 0.12);
  check_bool "arnoldi t_min within 12% of spice" true
    (rel arnoldi.Ev.t_min spice.Ev.t_min < 0.12);
  check_bool "elmore is pessimistic on latency" true
    (elmore.Ev.t_max > spice.Ev.t_max);
  (* Per-sink nominal latencies track between the accurate engines. *)
  let rs = Ev.nominal_run spice Ev.Rise and ra = Ev.nominal_run arnoldi Ev.Rise in
  Array.iter
    (fun s ->
      check_bool "per-sink latency tracks" true
        (rel ra.Ev.latency.(s) rs.Ev.latency.(s) < 0.12))
    spice.Ev.sinks

(* ---------- Corner structural identity (satellite bugfix) ---------- *)

let test_corner_structural_identity () =
  let tree = rich_tree () in
  let ev = Ev.evaluate ~engine:Ev.Arnoldi tree in
  (* Rebuild every run with a physically distinct but structurally equal
     corner record — with `==` matching this made nominal_run raise. *)
  let clone_corner (c : Tech.Corner.t) =
    { Tech.Corner.name = c.Tech.Corner.name; vdd = c.Tech.Corner.vdd;
      r_scale = c.Tech.Corner.r_scale; d_scale = c.Tech.Corner.d_scale }
  in
  let ev' =
    { ev with
      Ev.runs =
        List.map
          (fun (r : Ev.run) -> { r with Ev.corner = clone_corner r.Ev.corner })
          ev.Ev.runs }
  in
  let r = Ev.nominal_run ev' Ev.Rise in
  check_bool "nominal_run works on rebuilt corners" true
    (r.Ev.transition = Ev.Rise);
  let f = Ev.nominal_run ev' Ev.Fall in
  check_bool "fall too" true (f.Ev.transition = Ev.Fall)

(* ---------- Probe robustness (satellite bugfix) ---------- *)

let lumped_rc () =
  { Analysis.Rcnet.parent = [| -1; 0 |]; res = [| 0.; 1000. |];
    cap = [| 0.; 100. |]; taps = [| (1, Analysis.Rcnet.Tap_sink 7) |]; size = 2 }

let test_probe_unsorted_times () =
  let rc = lumped_rc () in
  let sorted = [| 50.; 100.; 200.; 400. |] in
  let shuffled = [| 200.; 50.; 400.; 100. |] in
  let vs =
    Analysis.Transient.probe ~step:0.05 rc ~r_drv:1e-3 ~s_drv:0.1 ~node:1
      ~times:sorted
  in
  let vu =
    Analysis.Transient.probe ~step:0.05 rc ~r_drv:1e-3 ~s_drv:0.1 ~node:1
      ~times:shuffled
  in
  check_near 1e-12 "t=200 matches" vs.(2) vu.(0);
  check_near 1e-12 "t=50 matches" vs.(0) vu.(1);
  check_near 1e-12 "t=400 matches" vs.(3) vu.(2);
  check_near 1e-12 "t=100 matches" vs.(1) vu.(3)

let test_probe_trailing_times () =
  (* tau = 100 ps: by t = 1500 ps the node has settled at ~1. Previously
     any probe time past the last crossing-driven step returned 0. *)
  let rc = lumped_rc () in
  let v =
    Analysis.Transient.probe ~step:0.05 rc ~r_drv:1e-3 ~s_drv:0.1 ~node:1
      ~times:[| 100.; 1500.; 1500.; 2000. |]
  in
  check_near 0.01 "settled value, not 0" 1.0 v.(1);
  check_near 1e-12 "duplicate trailing time" v.(1) v.(2);
  check_near 0.01 "far trailing time" 1.0 v.(3)

(* Regression: trace cache counters must be per-step deltas. The flow used
   to copy the session's cumulative totals into every entry, so later
   entries could only grow and summing the trace double-counted. With
   per-step deltas, a cheap step (TWSZ converges in a few rounds here)
   records fewer misses than the INITIAL full evaluation — impossible
   under the old cumulative semantics. *)
let test_trace_cache_deltas () =
  let b = Suite.Gen_grid.generate ~n:3 () in
  let config = { Core.Config.default with Core.Config.engine = Ev.Arnoldi } in
  let r =
    Core.Flow.run ~config ~tech:b.Suite.Format_io.tech
      ~source:b.Suite.Format_io.source b.Suite.Format_io.sinks
  in
  let trace = r.Core.Flow.trace in
  check_int "one entry per step" 5 (List.length trace);
  let initial = List.hd trace in
  check_int "first evaluation starts cold" 0 initial.Core.Flow.cache_hits;
  check_bool "INITIAL misses every stage" true
    (initial.Core.Flow.cache_misses > 0);
  check_bool "some later step records fewer misses than INITIAL" true
    (List.exists
       (fun (e : Core.Flow.trace_entry) ->
         e.Core.Flow.step <> Core.Flow.Initial
         && e.Core.Flow.cache_misses < initial.Core.Flow.cache_misses)
       trace);
  check_bool "later steps hit the cache" true
    (List.exists
       (fun (e : Core.Flow.trace_entry) -> e.Core.Flow.cache_hits > 0)
       trace)

(* Regression: the second-pass trigger threshold is configuration, not a
   hardcoded [skew > 5.]. Forcing the trigger (negative threshold) must
   run the TWSZ/TWSN/BWSN sequence again — strictly more evaluations than
   with the second pass disabled (infinite threshold). *)
let test_second_pass_threshold () =
  let b = Suite.Gen_grid.generate ~n:3 () in
  let run threshold =
    let config =
      { Core.Config.default with
        Core.Config.engine = Ev.Arnoldi;
        second_pass_skew_ps = threshold }
    in
    Core.Flow.run ~config ~tech:b.Suite.Format_io.tech
      ~source:b.Suite.Format_io.source b.Suite.Format_io.sinks
  in
  let disabled = run infinity in
  let forced = run (-1.) in
  check_bool "forced second pass spends more evaluations" true
    (forced.Core.Flow.eval_runs > disabled.Core.Flow.eval_runs);
  check_bool "second pass never worsens the final skew" true
    (forced.Core.Flow.final.Ev.skew
     <= disabled.Core.Flow.final.Ev.skew +. 1e-9)

(* ---------- slots share one factorisation table ---------- *)

(* Exact equality, bit for bit: sharing a factorisation between slots
   must not move a single result. *)
let check_identical_eval label (a : Ev.t) (b : Ev.t) =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let ok =
    same a.Ev.skew b.Ev.skew && same a.Ev.clr b.Ev.clr
    && same a.Ev.t_min b.Ev.t_min && same a.Ev.t_max b.Ev.t_max
    && a.Ev.slew_violations = b.Ev.slew_violations
    && List.length a.Ev.runs = List.length b.Ev.runs
    && List.for_all2
         (fun (x : Ev.run) (y : Ev.run) ->
           Ev.corner_equal x.Ev.corner y.Ev.corner
           && x.Ev.transition = y.Ev.transition
           && Array.length x.Ev.latency = Array.length y.Ev.latency
           && Array.for_all2 same x.Ev.latency y.Ev.latency
           && Array.for_all2 same x.Ev.slew y.Ev.slew)
         a.Ev.runs b.Ev.runs
  in
  check_bool label true ok

(* A storeless session's four corner × transition slots read through one
   session-local factorisation table. Through a journaled edit sequence
   it must stay bit-identical to from-scratch evaluation, to itself
   under either schedule, and to a session whose slots share a Store's
   table instead. *)
let test_slots_share_factorisations () =
  check_int "two corners" 2 (List.length tech.Tech.corners);
  let tree = rich_tree () in
  let transient_step = 0.25
  and transient_mode = Analysis.Transient.default_mode in
  let session ?store parallel =
    Ev.Incremental.create ~engine:Ev.Spice ~parallel ~transient_step
      ~transient_mode ?store tree
  in
  let par = session true and seq = session false in
  let stored = session ~store:(Ev.Store.handle (Ev.Store.create ())) true in
  let rng = Random.State.make [| 7 |] in
  for i = 0 to 20 do
    let hint =
      if i = 0 then None
      else begin
        let j = Tree.Journal.start tree in
        random_edit rng tree;
        let hint = Core.Speculate.hint_of_journal j in
        Tree.Journal.commit j;
        hint
      end
    in
    let fresh =
      Ev.evaluate ~engine:Ev.Spice ~transient_step ~transient_mode tree
    in
    let p = Ev.Incremental.refresh ?edits:hint par in
    check_identical_eval
      (Printf.sprintf "edit %d: session = evaluate" i)
      fresh p;
    check_identical_eval (Printf.sprintf "edit %d: parallel = sequential" i) p
      (Ev.Incremental.refresh ?edits:hint seq);
    check_identical_eval (Printf.sprintf "edit %d: no store = store" i) p
      (Ev.Incremental.refresh ?edits:hint stored)
  done;
  check_bool "dirty fast path exercised" true
    ((Ev.Incremental.stats par).Ev.dirty_refreshes > 0)

(* ---------- session fallbacks, the retired flat knob, store counts ---------- *)

(* A mutation the session was never told about must not poison its
   caches: the broken anchor forces a full refresh whose result still
   matches a from-scratch evaluation. *)
let test_unreported_mutation_falls_back () =
  let tree = rich_tree () in
  let session = Ev.Incremental.create ~engine:Ev.Spice tree in
  ignore (Ev.Incremental.refresh session);
  Tree.set_snake tree 2 33_000;
  Ev.Incremental.note_edits session ~edits:None
    ~new_revision:(Tree.revision tree);
  check_same_eval "full-refresh fallback matches"
    (Ev.evaluate ~engine:Ev.Spice tree)
    (Ev.Incremental.refresh session);
  check_int "no dirty refresh happened" 0
    (Ev.Incremental.stats session).Ev.dirty_refreshes

(* The parallel schedule must also account cache traffic exactly like
   the sequential one, through journaled edits on the dirty fast path. *)
let test_parallel_counts_match_sequential () =
  let tree = rich_tree () in
  let seq = Ev.Incremental.create ~engine:Ev.Spice ~parallel:false tree in
  let par = Ev.Incremental.create ~engine:Ev.Spice ~parallel:true tree in
  let rng = Random.State.make [| 5 |] in
  for i = 0 to 8 do
    let hint =
      if i = 0 then None
      else begin
        let j = Tree.Journal.start tree in
        random_edit rng tree;
        let hint = Core.Speculate.hint_of_journal j in
        Tree.Journal.commit j;
        hint
      end
    in
    check_same_eval (Printf.sprintf "edit %d: parallel = sequential" i)
      (Ev.Incremental.refresh ?edits:hint seq)
      (Ev.Incremental.refresh ?edits:hint par)
  done;
  let s1 = Ev.Incremental.stats seq and s2 = Ev.Incremental.stats par in
  check_int "identical hit counts" s1.Ev.hits s2.Ev.hits;
  check_int "identical miss counts" s1.Ev.misses s2.Ev.misses;
  check_int "identical dirty refreshes" s1.Ev.dirty_refreshes
    s2.Ev.dirty_refreshes

(* Rebinding to a compacted clone that really renumbers: a detached sink
   leaves a dead node, so [compact] drops it and renumbers the rest.
   The content-keyed caches carry over both ways (clone, then back to the
   original) without re-solving a stage. *)
let test_rebind_after_compact () =
  let tree = rich_tree () in
  let session = Ev.Incremental.create ~engine:Ev.Spice tree in
  ignore (Ev.Incremental.refresh session);
  Tree.detach tree 5;
  ignore (Ev.Incremental.refresh session);
  let clone, map = Tree.compact (Tree.copy tree) in
  check_int "detached sink dropped" (-1) map.(5);
  check_int "clone holds one node fewer" (Tree.size tree - 1) (Tree.size clone);
  let misses_before = (Ev.Incremental.stats session).Ev.misses in
  check_same_eval "compacted clone matches"
    (Ev.evaluate ~engine:Ev.Spice clone)
    (Ev.Incremental.refresh ~tree:clone session);
  check_same_eval "rebinding back to the original matches"
    (Ev.evaluate ~engine:Ev.Spice tree)
    (Ev.Incremental.refresh ~tree session);
  check_int "content-keyed caches carry over" misses_before
    (Ev.Incremental.stats session).Ev.misses

let expect_invalid label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument _ -> ()

(* [~flat:true] named the removed flat-arena engine: it must raise, never
   quietly evaluate on the transient kernel instead. *)
let test_flat_raises () =
  let tree = rich_tree () in
  List.iter
    (fun (name, engine) ->
      expect_invalid ("evaluate " ^ name) (fun () ->
          Ev.evaluate ~engine ~flat:true tree);
      expect_invalid ("Incremental.create " ^ name) (fun () ->
          Ev.Incremental.create ~engine ~flat:true tree))
    [ ("spice", Ev.Spice); ("arnoldi", Ev.Arnoldi) ]

(* Two slots miss one key, both solve it, both publish it: exactly one
   inserted it (a miss), the other found it already there (a hit). *)
let test_store_counts () =
  let store = Ev.Store.create () in
  let h = Ev.Store.handle store in
  let key = (42L, 120., 8.) and v = [| (1., 2.) |] in
  check_bool "first find misses" true (Ev.Store.find h key = None);
  check_bool "second find misses" true (Ev.Store.find h key = None);
  Ev.Store.add h key v;
  Ev.Store.add h key v;
  check_int "one miss" 1 (Ev.Store.misses h);
  check_int "one hit" 1 (Ev.Store.hits h);
  check_bool "a later find hits" true (Ev.Store.find h key = Some v);
  check_int "and counts as a hit" 2 (Ev.Store.hits h);
  check_int "one stored entry" 1 (Ev.Store.length store)

let () =
  Alcotest.run "incremental"
    [
      ( "oracle",
        [
          Alcotest.test_case "spice edit sequence" `Quick test_oracle_spice;
          Alcotest.test_case "arnoldi edit sequence" `Quick test_oracle_arnoldi;
          Alcotest.test_case "copy+compact rebind" `Quick
            test_refresh_after_copy_and_compact;
          Alcotest.test_case "parallel determinism" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "fast-refresh memo" `Quick test_fast_refresh_memo;
          Alcotest.test_case "revision counter" `Quick test_revision_counter;
          Alcotest.test_case "slots share factorisations" `Quick
            test_slots_share_factorisations;
        ] );
      ( "engines",
        [ Alcotest.test_case "agreement" `Quick test_engines_agree_on_tree ] );
      ( "regressions",
        [
          Alcotest.test_case "corner identity" `Quick
            test_corner_structural_identity;
          Alcotest.test_case "probe unsorted" `Quick test_probe_unsorted_times;
          Alcotest.test_case "probe trailing" `Quick test_probe_trailing_times;
          Alcotest.test_case "trace cache deltas" `Quick
            test_trace_cache_deltas;
          Alcotest.test_case "second-pass threshold" `Quick
            test_second_pass_threshold;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "unreported mutation falls back" `Quick
            test_unreported_mutation_falls_back;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_counts_match_sequential;
          Alcotest.test_case "rebind after compact" `Quick
            test_rebind_after_compact;
          Alcotest.test_case "flat raises" `Quick test_flat_raises;
          Alcotest.test_case "store counts" `Quick test_store_counts;
        ] );
    ]
