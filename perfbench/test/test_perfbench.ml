open Perfbench
module J = Suite.Report.Json

let close_to = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Statistics and spans                                                 *)
(* ------------------------------------------------------------------ *)

let test_quantiles () =
  Alcotest.check close_to "median of odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check close_to "median of even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  let few = Stats.tail [ 1.; 5.; 3. ] in
  Alcotest.(check string) "fewer than 20 samples: the median" "p50" few.Stats.label;
  Alcotest.check close_to "median value" 3. few.Stats.value;
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let t = Stats.tail xs in
  Alcotest.(check string) "100 samples: p90 has 10 beyond it" "p90" t.Stats.label;
  Alcotest.(check int) "sample count" 100 t.Stats.samples;
  Alcotest.(check int) "ten samples beyond it" 10
    (List.length (List.filter (fun x -> x > t.Stats.value) xs));
  let t = Stats.tail (List.init 25 float_of_int) in
  Alcotest.(check string) "25 samples: p60" "p60" t.Stats.label;
  let p = Stats.percentile (List.init 11 float_of_int) 90. in
  Alcotest.(check string) "fixed percentile label" "p90" p.Stats.label;
  Alcotest.check close_to "fixed percentile value" 9. p.Stats.value;
  (* 10 values, 20% trimmed: the two lowest and two highest set aside. *)
  Alcotest.check close_to "trimmed mean drops the far-off value" 5.5
    (Stats.trimmed_mean [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 1000. ])

let test_self_time () =
  let r = Span.create () in
  let g = Span.new_group r in
  let root = Span.add r ~group:g ~start:0. ~stop:10. "root" in
  (* Overlapping and out-of-span children: covered = [1,4] ∪ [3,6] ∪ [9,10]. *)
  ignore (Span.add r ~group:g ~parent:root ~start:1. ~stop:4. "a");
  ignore (Span.add r ~group:g ~parent:root ~start:3. ~stop:6. "b");
  ignore (Span.add r ~group:g ~parent:root ~start:9. ~stop:12. "c");
  Alcotest.check close_to "self = 10 - 6" 4. (Span.self_time r (Span.find r root))

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)
(* ------------------------------------------------------------------ *)

let tiny () =
  Inputs.draw (Inputs.sites ()) (Inputs.rng ~seed:3 "test" 0) ~n:60 ~name:"tiny"

let test_draw_seeded () =
  let sites = Inputs.sites () in
  let a = Inputs.draw sites (Inputs.rng ~seed:5 "flow" 0) ~n:50 ~name:"a" in
  let b = Inputs.draw sites (Inputs.rng ~seed:5 "flow" 0) ~n:50 ~name:"b" in
  let c = Inputs.draw sites (Inputs.rng ~seed:6 "flow" 0) ~n:50 ~name:"c" in
  let labels (x : Suite.Format_io.t) =
    Array.to_list (Array.map (fun s -> s.Dme.Zst.label) x.Suite.Format_io.sinks)
  in
  Alcotest.(check (list string)) "same seed, same sinks" (labels a) (labels b);
  Alcotest.(check bool) "another seed, other sinks" true (labels a <> labels c);
  Alcotest.(check int) "distinct" 50 (List.length (List.sort_uniq compare (labels a)))

let test_corrupted_flow_fails () =
  let b = tiny () in
  let clean = Flows.measure Flows.Monolithic ~seconds:0. (fun _ -> b) in
  Alcotest.(check int) "clean run attempted" 1 clean.Flows.attempted;
  Alcotest.(check int) "clean run passes the audit" 0 clean.Flows.failed;
  let more = Flows.measure ~min_calls:3 Flows.Monolithic ~seconds:0. (fun _ -> b) in
  Alcotest.(check int) "no fewer calls than min_calls" 3 more.Flows.attempted;
  let perturb (r : Core.Flow.result) =
    { r with
      Core.Flow.final =
        { r.Core.Flow.final with
          Analysis.Evaluator.skew = r.Core.Flow.final.Analysis.Evaluator.skew +. 0.2 } }
  in
  let bad = Flows.measure ~tamper:perturb Flows.Monolithic ~seconds:0. (fun _ -> b) in
  Alcotest.(check int) "perturbed skew counts as a failed operation" 1 bad.Flows.failed;
  Alcotest.(check bool) "with a reason" true (bad.Flows.problems <> [])

let test_serve_checks () =
  let body skew =
    J.Obj
      [ ("result",
         J.Obj [ ("skew_ps", J.Num skew); ("clr_ps", J.Num 9.); ("eval_runs", J.Num 70.) ]) ]
  in
  let hot_first = [ ("h.cts", Serving.quality (body 1.5)) ] in
  let sample kind reply =
    { Serving.kind; spec = "h.cts"; cold_index = -1; latency = 0.1; cpu_latency = 0.1;
      start = 0.; reply }
  in
  Alcotest.(check int) "matching hot reply passes" 0
    (List.length (Serving.check hot_first (sample Serving.Hot (Ok (body 1.5)))));
  Alcotest.(check int) "hot reply with another skew fails" 1
    (List.length (Serving.check hot_first (sample Serving.Hot (Ok (body 1.6)))));
  let busy = Serving.describe (Ok (Serve.Protocol.Busy { retry_after_s = 0.1 })) in
  let s = sample Serving.Cold busy in
  Alcotest.(check int) "busy reply fails" 1 (List.length (Serving.check hot_first s));
  Alcotest.(check bool) "and misses every latency percentile" true
    (Serving.latency s = infinity && Serving.cpu_latency s = infinity)

let test_request_mix () =
  let order c = List.init 30 (Serving.kind_at ~seed:7 c) in
  List.iter
    (fun c ->
      List.iteri
        (fun b block ->
          if List.sort compare block <> [ Serving.Cold; Serving.Hot; Serving.Eval ] then
            Alcotest.failf "client %d block %d is not one of each kind" c b)
        (List.init 10 (fun b -> List.filteri (fun i _ -> i / 3 = b) (order c))))
    [ 0; 1 ];
  Alcotest.(check bool) "seeded" true (order 0 = order 0);
  Alcotest.(check bool) "clients differ" true (order 0 <> order 1)

(* ------------------------------------------------------------------ *)
(* Smoke runs of the executable against BENCHMARK.json                  *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let benchmark_json = lazy (Result.get_ok (J.of_string (read_file "../../BENCHMARK.json")))

let declared key =
  List.map
    (fun m ->
      (Option.get (J.to_str (J.member "name" m)), Option.get (J.to_str (J.member "unit" m))))
    (J.to_list (J.member key (Lazy.force benchmark_json)))

let run_main args =
  let out = Filename.temp_file "perfbench" ".out" in
  let cmd =
    Filename.quote_command "../main.exe" ~stdout:out ~stderr:out
      ([ "--work"; "_smoke_work"; "--seed"; "2" ] @ args)
  in
  let code = Sys.command cmd in
  let lines = String.split_on_char '\n' (String.trim (read_file out)) in
  Sys.remove out;
  (code, lines)

let smoke workload ~sinks ~seconds ~trace () =
  let code, lines =
    run_main
      [ "--workload"; workload; "--sinks"; string_of_int sinks; "--seconds"; seconds;
        "--trace"; (if trace then "1" else "0") ]
  in
  Alcotest.(check int) "exit code" 0 code;
  let last = List.nth lines (List.length lines - 1) in
  let result =
    match J.of_string last with Ok r -> r | Error e -> Alcotest.failf "last line %S: %s" last e
  in
  Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
    (match result with J.Obj kv -> List.map fst kv | _ -> []);
  Alcotest.(check bool) "correct" true (J.member "correct" result = Some (J.Bool true));
  Alcotest.(check (option (float 0.))) "no failed operation" (Some 0.)
    (J.to_float (J.member "failed" result));
  Alcotest.(check bool) "attempted at least one" true
    (Option.get (J.to_float (J.member "attempted" result)) >= 1.);
  let printed =
    match J.member "metrics" result with
    | Some (J.Obj kv) ->
      List.map
        (fun (name, m) ->
          (match J.member "value" m with
          | Some (J.Num _) -> ()
          | _ -> Alcotest.failf "%s: value is not a number" name);
          (name, Option.get (J.to_str (J.member "unit" m))))
        kv
    | _ -> Alcotest.fail "no metrics object"
  in
  Alcotest.(check (list (pair string string)))
    "every declared metric, with its unit"
    (declared (if trace then "per_layer" else "end_to_end"))
    printed;
  if trace then begin
    let path = Printf.sprintf "_smoke_work/trace-%s-seed2.jsonl" workload in
    let spans =
      List.map
        (fun l -> Result.get_ok (J.of_string l))
        (List.filter (( <> ) "") (String.split_on_char '\n' (read_file path)))
    in
    Alcotest.(check bool) "spans written" true (spans <> []);
    List.iter
      (fun s ->
        List.iter
          (fun k ->
            if J.member k s = None then Alcotest.failf "span lacks %s" k)
          [ "id"; "group"; "parent"; "name"; "start_s"; "end_s"; "self_s" ])
      spans
  end

let test_workload_names () =
  Alcotest.(check (list string)) "BENCHMARK.json workloads"
    [ "flow-ti2k"; "regional-ti1k"; "serve-mixed" ]
    (List.map
       (fun w -> Option.get (J.to_str (J.member "name" w)))
       (J.to_list (J.member "workloads" (Lazy.force benchmark_json))))

let test_missing_seed_refused () =
  let code =
    Sys.command
      (Filename.quote_command "../main.exe" ~stdout:Filename.null ~stderr:Filename.null
         [ "--workload"; "flow-ti2k" ])
  in
  Alcotest.(check bool) "non-zero exit without --seed" true (code <> 0)

(* The CONTANGO_BENCH_* harnesses in bench/main.exe are what CI runs;
   the quickest one must still run to completion. *)
let test_legacy_harness () =
  let dir = Filename.temp_dir "perfbench" "legacy" in
  let out = Filename.concat dir "out.txt" in
  let cmd =
    Printf.sprintf "cd %s && CONTANGO_BENCH_SERVE=1 %s > %s 2>&1" (Filename.quote dir)
      (Filename.quote (Filename.concat (Sys.getcwd ()) "../../bench/main.exe"))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let wrote = Sys.file_exists (Filename.concat dir "bench_out/serve_bench.json") in
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]));
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "wrote its JSON" true wrote

let () =
  Alcotest.run "perfbench"
    [ ("stats",
       [ Alcotest.test_case "quantiles and tail percentile" `Quick test_quantiles;
         Alcotest.test_case "self time subtracts covered children" `Quick test_self_time ]);
      ("checks",
       [ Alcotest.test_case "draws are seeded" `Quick test_draw_seeded;
         Alcotest.test_case "corrupted flow result fails the audit" `Quick
           test_corrupted_flow_fails;
         Alcotest.test_case "serve reply checks" `Quick test_serve_checks;
         Alcotest.test_case "serve request mix" `Quick test_request_mix ]);
      ("smoke",
       [ Alcotest.test_case "workload names" `Quick test_workload_names;
         Alcotest.test_case "seed is required" `Quick test_missing_seed_refused;
         Alcotest.test_case "flow-ti2k untraced" `Quick
           (smoke "flow-ti2k" ~sinks:150 ~seconds:"0.1" ~trace:false);
         Alcotest.test_case "flow-ti2k traced" `Quick
           (smoke "flow-ti2k" ~sinks:150 ~seconds:"0.1" ~trace:true);
         Alcotest.test_case "regional-ti1k untraced" `Quick
           (smoke "regional-ti1k" ~sinks:200 ~seconds:"0.1" ~trace:false);
         Alcotest.test_case "regional-ti1k traced" `Quick
           (smoke "regional-ti1k" ~sinks:200 ~seconds:"0.1" ~trace:true);
         Alcotest.test_case "serve-mixed untraced" `Quick
           (smoke "serve-mixed" ~sinks:40 ~seconds:"1" ~trace:false);
         Alcotest.test_case "serve-mixed traced" `Quick
           (smoke "serve-mixed" ~sinks:40 ~seconds:"1" ~trace:true) ]);
      ("legacy", [ Alcotest.test_case "CONTANGO_BENCH_SERVE still runs" `Quick test_legacy_harness ]) ]
