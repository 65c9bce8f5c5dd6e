(* The repository benchmark: one seeded workload per run, checked, with
   every metric printed by name and unit and a JSON result as the last
   line of standard output. See README.md for the workloads, the metrics
   and what each is expected to move.

     main.exe --workload flow-ti2k|regional-ti1k|serve-mixed --seed N
              [--seconds S] [--trace 0|1] [--sinks N] [--work DIR] *)

open Perfbench

type workload = Flow of Flows.shape | Serve

(* Name, what runs, default sink count per input, and for a flow
   workload the least number of calls a run makes. The quality figures
   are taken over exactly that many first draws, so they are fixed by
   the seed, not by how many draws a run happens to complete. The
   regional workload uses smaller draws so that a run makes about 40
   calls: at 2,000 sinks about one draw in five takes 1.5 to 2.4 times
   the median, and with the 22-odd calls a run then made its tail swung
   with how many of those a seed drew. *)
let workloads =
  [ ("flow-ti2k", (Flow Flows.Monolithic, 2_000, 20));
    ("regional-ti1k", (Flow (Flows.Regional 8), 1_000, 40));
    ("serve-mixed", (Serve, 300, 0)) ]

(* A flow run's tail: the upper quartile of its calls, which has ten
   calls beyond it at the regional workload's 40 and five at the
   monolithic one's 20. Higher fixed percentiles rest on two or three
   calls and swing with the few slow draws a seed happens to make. *)
let flow_tail_pct = 75.

(* Set-up is repeated this many times per untraced run and its median
   reported, so that work moved into set-up shows. *)
let setup_reps = 5
let serve_clients = 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  sinks : int option;
  work : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--sinks N] [--work DIR]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

(* Later flags override earlier ones, so a default seed given first on
   the command line yields to an explicit one. *)
let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--sinks" :: v :: rest -> go { a with sinks = Some (int_of_string v) } rest
    | "--work" :: v :: rest -> go { a with work = v } rest
    | _ -> usage ()
  in
  let a =
    try
      go
        { workload = ""; seed = min_int; seconds = 30.; trace = false; sinks = None;
          work = Filename.concat "perfbench" "_work" }
        (List.tl (Array.to_list argv))
    with Failure _ -> usage ()
  in
  if a.seed = min_int || not (List.mem_assoc a.workload workloads) then usage ();
  a

let cpu_timed f =
  let c0 = Proc.cpu_s () in
  let r = f () in
  (r, Proc.cpu_s () -. c0)

(* [setup_reps] set-ups, each from a compacted heap so they start alike,
   timed on the CPU clock like every end-to-end timing ({!Proc}); the
   last one's product is used. *)
let repeated_setup ?(between = ignore) f =
  let rec go i acc =
    Gc.compact ();
    let r, s = cpu_timed f in
    if i = setup_reps then (r, Stats.median (s :: acc))
    else (
      between r;
      go (i + 1) (s :: acc))
  in
  go 1 []

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type outcome = {
  values : (string * float) list;
  problems : string list;
  attempted : int;
  failed : int;
}

(* Draw [i] of a flow workload's inputs. *)
let flow_draw a ~n sites i =
  Inputs.draw sites (Inputs.rng ~seed:a.seed "flow" i) ~n
    ~name:(Printf.sprintf "%s-seed%d-%d" a.workload a.seed i)

(* Set-up of a flow workload: the candidate sites and the first draw. *)
let flow_setup a ~n () =
  let sites = Inputs.sites () in
  (sites, flow_draw a ~n sites 0)

let flow_untraced a shape ~n ~min_calls =
  let (sites, first), setup_s = repeated_setup (flow_setup a ~n) in
  let draw i = if i = 0 then first else flow_draw a ~n sites i in
  let ticks0 = Proc.ticks () in
  let m = Flows.measure shape ~min_calls ~seconds:a.seconds draw in
  let tail = Stats.percentile m.Flows.cpus flow_tail_pct in
  Printf.printf
    "flow calls: %d (%d failed); wall median %.4f s; CPU median %.4f s, %s %.4f s over %d \
     samples; host steal %.1f%%\n"
    m.Flows.attempted m.Flows.failed (Stats.median m.Flows.walls) (Stats.median m.Flows.cpus)
    tail.Stats.label tail.Stats.value tail.Stats.samples
    (100. *. Proc.steal_share ticks0 (Proc.ticks ()));
  let q =
    Checks.typical_quality (List.filteri (fun i _ -> i < min_calls) m.Flows.qualities)
  in
  (* Each flow call is one operation. The peak RSS is read once the
     calls on the quality draws are done, so that it too covers a set of
     inputs fixed by the seed rather than however many calls a run
     makes: the heap grows over a run's first calls. *)
  { values =
      [ ("setup_s", setup_s); ("op_cpu_p50_s", Stats.median m.Flows.cpus);
        ("op_cpu_tail_s", tail.Stats.value);
        ("ops_per_cpu_s",
         Stats.ratio
           (float_of_int (m.Flows.attempted - m.Flows.failed))
           (List.fold_left ( +. ) 0. m.Flows.cpus));
        ("peak_rss_mb", m.Flows.peak_rss_mb);
        ("skew_ps", q.Checks.skew); ("clr_ps", q.Checks.clr);
        ("eval_runs", q.Checks.eval_runs) ];
    problems = m.Flows.problems; attempted = m.Flows.attempted; failed = m.Flows.failed }

let write_trace a rec_ =
  let path =
    Filename.concat a.work (Printf.sprintf "trace-%s-seed%d.jsonl" a.workload a.seed)
  in
  Span.write_jsonl rec_ path;
  Printf.printf "spans: %d written to %s\n" (List.length (Span.spans rec_)) path

let flow_traced a shape ~n =
  let _, b = flow_setup a ~n () in
  let rec_ = Span.create () in
  let values, problems, failed, attempted = Flows.trace_run shape rec_ b in
  write_trace a rec_;
  { values = values @ Metrics.zeros (List.map fst Metrics.serve_layer); problems; attempted; failed }

let serve_setup a ~dir ~n () = Serving.setup ~dir ~seed:a.seed ~sinks:n ~seconds:a.seconds

let serve_untraced a ~dir ~n =
  let env, setup_s = repeated_setup ~between:Serving.teardown (serve_setup a ~dir ~n) in
  let loop =
    Fun.protect ~finally:(fun () -> Serving.teardown env) (fun () ->
        Serving.run_loop env ~clients:serve_clients ~seconds:a.seconds)
  in
  let samples = loop.Serving.samples in
  let problems, failed = Serving.verdict env.Serving.hot_first samples in
  let ok = List.length samples - failed in
  let tail = Stats.tail (List.map Serving.cpu_latency samples) in
  Printf.printf
    "requests: %d (%d failed) in %.3f s wall, %.3f s CPU; wall latency median %.4f s; CPU \
     latency median %.4f s, %s %.4f s over %d samples; host steal %.1f%%\n"
    (List.length samples) failed loop.Serving.elapsed loop.Serving.cpu
    (Stats.median (List.map Serving.latency samples))
    (Stats.median (List.map Serving.cpu_latency samples))
    tail.Stats.label tail.Stats.value tail.Stats.samples (100. *. loop.Serving.steal);
  Printf.printf "wall latency median by kind: cold %.4f, hot %.4f, eval %.4f\n"
    (Serving.latency_p50 samples Serving.Cold) (Serving.latency_p50 samples Serving.Hot)
    (Serving.latency_p50 samples Serving.Eval);
  let q = Serving.cold_quality samples in
  { values =
      [ ("setup_s", setup_s);
        ("op_cpu_p50_s", Stats.median (List.map Serving.cpu_latency samples));
        ("op_cpu_tail_s", tail.Stats.value);
        ("ops_per_cpu_s", Stats.ratio (float_of_int ok) loop.Serving.cpu);
        ("peak_rss_mb", loop.Serving.peak_rss_mb);
        ("skew_ps", q.Checks.skew); ("clr_ps", q.Checks.clr);
        ("eval_runs", q.Checks.eval_runs) ];
    problems; attempted = List.length samples; failed }

(* The traced serve run: the same loop with a span per request, then
   the flow layers measured in-process on the first hot spec — the work
   a cold request does inside the daemon. *)
let serve_traced a ~dir ~n =
  let env = serve_setup a ~dir ~n () in
  let loop, stats =
    Fun.protect ~finally:(fun () -> Serving.teardown env) (fun () ->
        let loop = Serving.run_loop env ~clients:serve_clients ~seconds:a.seconds in
        (loop, Serving.stats env))
  in
  let samples = loop.Serving.samples in
  let rec_ = Span.create () in
  Serving.record_spans rec_ samples;
  let hot0 =
    match Suite.Format_io.read_file env.Serving.hot.(0) with
    | Ok b -> b
    | Error e -> failwith e
  in
  let flow_values, flow_problems, flow_failed, flow_attempted =
    Flows.trace_run Flows.Monolithic rec_ hot0
  in
  write_trace a rec_;
  let problems, failed = Serving.verdict env.Serving.hot_first samples in
  let serve_values = Serving.layer_metrics loop stats in
  (* The serve loop's own wall latency and steal share stand; the hot
     spec's flow reports the rest. *)
  { values =
      serve_values
      @ List.filter (fun (k, _) -> not (List.mem_assoc k serve_values)) flow_values;
    problems = problems @ flow_problems;
    attempted = List.length samples + flow_attempted; failed = failed + flow_failed }

let () =
  let a = parse Sys.argv in
  let kind, default_n, min_calls = List.assoc a.workload workloads in
  let n = Option.value a.sinks ~default:default_n in
  Inputs.ensure_dir a.work;
  let dir = Filename.concat a.work (Printf.sprintf "%s-%d" a.workload (Unix.getpid ())) in
  Inputs.ensure_dir dir;
  Printf.printf "workload %s, seed %d, %d sinks, %g s, trace %b\n%!" a.workload a.seed n
    a.seconds a.trace;
  let o =
    Fun.protect ~finally:(fun () -> remove_tree dir) (fun () ->
        match (kind, a.trace) with
        | Flow shape, false -> flow_untraced a shape ~n ~min_calls
        | Flow shape, true -> flow_traced a shape ~n
        | Serve, false -> serve_untraced a ~dir ~n
        | Serve, true -> serve_traced a ~dir ~n)
  in
  let registry = if a.trace then Metrics.per_layer else Metrics.end_to_end in
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) o.problems;
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-44s %s %s\n" name
        (Out.number (Option.value ~default:nan (List.assoc_opt name o.values)))
        unit)
    registry;
  print_endline
    (Metrics.result_line ~registry ~correct:(o.problems = [] && o.failed = 0)
       ~attempted:o.attempted ~failed:o.failed o.values)
