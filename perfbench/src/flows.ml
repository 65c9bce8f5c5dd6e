(* The two flow workloads: one monolithic [Core.Flow.run] and one
   [Core.Flow.run_regional], driven through the public entry points. *)

module Ev = Analysis.Evaluator
module F = Suite.Format_io
module Flow = Core.Flow
module Config = Core.Config

type shape = Monolithic | Regional of int

let config = function
  | Monolithic -> Config.default
  | Regional regions -> { Config.default with Config.regions }

let entry_point = function
  | Monolithic -> "core.flow.run"
  | Regional _ -> "core.flow.run_regional"

type outcome = {
  result : Flow.result;
  stitch : Flow.stitch_report option;
  wall : float;  (** wall seconds spent in the flow call *)
  cpu : float;   (** process CPU seconds spent in it ({!Proc.cpu_s}) *)
}

let run_flow shape ?on_step (b : F.t) =
  let config = config shape in
  let t0 = Span.now () and c0 = Proc.cpu_s () in
  let result, stitch =
    match shape with
    | Monolithic ->
      ( Flow.run ~config ?on_step ~tech:b.F.tech ~source:b.F.source
          ~obstacles:b.F.obstacles b.F.sinks,
        None )
    | Regional _ ->
      let r =
        Flow.run_regional ~config ?on_step ~tech:b.F.tech ~source:b.F.source
          ~obstacles:b.F.obstacles b.F.sinks
      in
      (r.Flow.r_flow, r.Flow.r_stitch)
  in
  { result; stitch; wall = Span.now () -. t0; cpu = Proc.cpu_s () -. c0 }

(* One flow call counted as an operation: it fails when it raises or its
   audit finds a problem. [tamper] alters the result before the audit —
   the benchmark's tests use it to show a corrupted result fails. *)
let checked ?(tamper = Fun.id) shape b =
  match run_flow shape b with
  | o ->
    let o = { o with result = tamper o.result } in
    (Some o, Checks.audit (config shape) o.result)
  | exception e -> (None, [ "flow raised " ^ Printexc.to_string e ])

type measured = {
  walls : float list;               (** wall seconds of the successful calls *)
  cpus : float list;                (** their CPU seconds, in the same order *)
  qualities : Checks.quality list;  (** of the successful calls, in draw order *)
  peak_rss_mb : float;              (** the process's peak RSS after call [min_calls] *)
  attempted : int;
  problems : string list;
  failed : int;
}

(* Untraced: call the flow on draw 0, 1, 2, ... of the workload's inputs
   ([draw i], made outside the timed call) until at least [min_calls]
   calls are made and the flow time spent reaches [seconds] — stopping
   at the call count closest to it — and audit every result. *)
let measure ?tamper ?(min_calls = 1) shape ~seconds draw =
  let rec go i acc =
    let spent = List.fold_left ( +. ) 0. acc.walls in
    let n = List.length acc.walls in
    if i >= min_calls && (n = 0 || spent +. (spent /. float_of_int n /. 2.) >= seconds) then
      { acc with qualities = List.rev acc.qualities }
    else
      let b = draw i in
      (* Each call starts from a compacted heap, as a one-flow process
         would. *)
      Gc.compact ();
      let o, problems = checked ?tamper shape b in
      let rss = Proc.peak_rss_mb () in
      Option.iter
        (fun o ->
          Printf.printf "  draw %d: %.3f s (CPU %.3f s), skew %.4f ps, %d evals, peak %.1f MB\n%!"
            i o.wall o.cpu o.result.Flow.final.Ev.skew o.result.Flow.eval_runs rss)
        o;
      go (i + 1)
        { walls = (match o with Some o -> o.wall :: acc.walls | None -> acc.walls);
          cpus = (match o with Some o -> o.cpu :: acc.cpus | None -> acc.cpus);
          peak_rss_mb = (if i = min_calls - 1 then rss else acc.peak_rss_mb);
          qualities =
            (match o with
            | Some o -> Checks.quality o.result :: acc.qualities
            | None -> acc.qualities);
          attempted = acc.attempted + 1;
          problems = acc.problems @ problems;
          failed = (acc.failed + if problems = [] then 0 else 1) }
  in
  go 0
    { walls = []; cpus = []; qualities = []; peak_rss_mb = nan; attempted = 0; problems = [];
      failed = 0 }

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)
(* ------------------------------------------------------------------ *)

let steps = Flow.[ Initial; Tbsz; Twsz; Twsn; Bwsn; Stitch; Polish ]

(* A traced flow call: a root span for the call, one child span per
   [on_step] entry (it ends when the entry arrives and lasts its
   [step_seconds]) and, for the monolithic flow, a child for the stretch
   before the first step — construction. *)
let traced shape rec_ b =
  let group = Span.new_group rec_ in
  let entries = ref [] in
  let on_step e = entries := (Span.now (), e) :: !entries in
  let start = Span.now () in
  let o = run_flow shape ~on_step b in
  let root = Span.add rec_ ~group ~start ~stop:(start +. o.wall) (entry_point shape) in
  let entries = List.rev !entries in
  (match (shape, entries) with
  | Monolithic, (t_end, e) :: _ when t_end -. e.Flow.step_seconds > start ->
    ignore
      (Span.add rec_ ~group ~parent:root ~start ~stop:(t_end -. e.Flow.step_seconds)
         "core.flow.construction")
  | _ -> ());
  ignore
    (List.fold_left
       (fun prev_evals (t_end, (e : Flow.trace_entry)) ->
         let f = float_of_int in
         ignore
           (Span.add rec_ ~group ~parent:root ~start:(t_end -. e.Flow.step_seconds)
              ~stop:t_end
              ~counts:
                [ ("evals", f (e.Flow.eval_runs - prev_evals));
                  ("cache_hits", f e.Flow.cache_hits);
                  ("cache_misses", f e.Flow.cache_misses);
                  ("kernel_solves", f e.Flow.kernel_solves);
                  ("kernel_saved", f e.Flow.kernel_saved);
                  ("attempts", f e.Flow.attempts);
                  ("accepts", f e.Flow.accepts) ]
              ("core.flow." ^ Flow.step_name e.Flow.step));
         e.Flow.eval_runs)
       0 entries);
  (o, root)

(* Per-step layer metrics, summed over every span of a step (the second
   wire-optimization pass repeats TWSZ..BWSN). *)
let step_metrics rec_ root =
  let kids = Span.children rec_ root in
  List.concat_map
    (fun step ->
      let name = Flow.step_name step in
      let mine = List.filter (fun s -> s.Span.name = "core.flow." ^ name) kids in
      let sum k =
        List.fold_left
          (fun acc s -> acc +. Option.value ~default:0. (List.assoc_opt k s.Span.counts))
          0. mine
      in
      let secs = List.fold_left (fun acc s -> acc +. Span.duration s) 0. mine in
      let hits = sum "cache_hits" and misses = sum "cache_misses" in
      [ (Printf.sprintf "core.flow.%s_s" name, secs);
        (Printf.sprintf "core.flow.%s_evals" name, sum "evals");
        (Printf.sprintf "analysis.evaluator.%s_hits" name, hits);
        (Printf.sprintf "analysis.evaluator.%s_misses" name, misses);
        (Printf.sprintf "analysis.evaluator.%s_hit_ratio" name,
         Stats.ratio hits (hits +. misses));
        (Printf.sprintf "analysis.transient.%s_solves" name, sum "kernel_solves");
        (Printf.sprintf "analysis.transient.%s_saved" name, sum "kernel_saved");
        (Printf.sprintf "core.ivc.%s_attempts" name, sum "attempts");
        (Printf.sprintf "core.ivc.%s_accept_ratio" name,
         Stats.ratio (sum "accepts") (sum "attempts")) ])
    steps

(* Construction, each stage called separately on the same input the flow
   got, mirroring {!Core.Flow.initial_tree}; a regional input is split
   the way [run_regional] splits it and each region built from its
   centroid. *)
let construction rec_ shape (b : F.t) =
  let config = config shape in
  let group = Span.new_group rec_ in
  let parts =
    match shape with
    | Monolithic -> [ (b.F.source, b.F.sinks) ]
    | Regional regions ->
      let parts = Core.Partition.split ~regions b.F.sinks in
      Array.to_list
        (Array.map
           (fun p ->
             (Core.Partition.centroid b.F.sinks p, Array.map (Array.get b.F.sinks) p))
           parts)
  in
  let totals = Hashtbl.create 8 in
  let add k v =
    Hashtbl.replace totals k (v +. Option.value ~default:0. (Hashtbl.find_opt totals k))
  in
  Span.time rec_ ~group "construction" (fun root ->
      List.iter
        (fun (source, sinks) ->
          let timed name f =
            let start = Span.now () in
            let r = f () in
            let stop = Span.now () in
            ignore (Span.add rec_ ~group ~parent:root ~start ~stop name);
            add (name ^ "_s") (stop -. start);
            r
          in
          let zst = timed "dme.zst" (fun () -> Dme.Zst.build ~tech:b.F.tech ~source sinks) in
          let ins = timed "core.insertion" (fun () -> Core.Insertion.run config zst) in
          let tree = ins.Core.Insertion.tree and buf = ins.Core.Insertion.buf in
          let pol =
            timed "core.polarity" (fun () ->
                Core.Polarity.correct tree ~buf ~strategy:Core.Polarity.Minimal)
          in
          add "core.polarity_added" (float_of_int pol.Core.Polarity.added);
          if config.Config.stage_balancing then
            timed "core.stage_balance" (fun () ->
                ignore (Core.Stage_balance.equalize tree ~buf)))
        parts);
  List.map
    (fun k -> (k, Option.value ~default:0. (Hashtbl.find_opt totals k)))
    [ "dme.zst_s"; "core.insertion_s"; "core.polarity_s"; "core.polarity_added";
      "core.stage_balance_s" ]

(* The evaluator outside the flow, on the flow's final tree: a
   from-scratch evaluation and a cold incremental session. *)
let evaluator rec_ shape (o : outcome) =
  let config = config shape in
  let group = Span.new_group rec_ in
  let tree = o.result.Flow.tree in
  let timed name f =
    let start = Span.now () in
    let r = f () in
    let stop = Span.now () in
    ignore (Span.add rec_ ~group ~start ~stop name);
    (r, stop -. start)
  in
  let scratch, scratch_s =
    timed "analysis.evaluator.scratch" (fun () -> Checks.scratch_eval config tree)
  in
  let (_ : Ev.t), incremental_s =
    timed "analysis.evaluator.incremental_cold" (fun () ->
        Ev.Incremental.refresh
          (Ev.Incremental.create ~engine:config.Config.engine ~flat:config.Config.flat
             ~seg_len:config.Config.seg_len
             ~transient_step:config.Config.transient_step
             ~transient_mode:config.Config.transient_mode tree))
  in
  [ ("analysis.evaluator.scratch_s", scratch_s);
    ("analysis.evaluator.incremental_cold_s", incremental_s);
    ("analysis.evaluator.audit_delta_ps", Checks.max_delta ~reference:scratch o.result.Flow.final) ]

let regional rec_ shape (b : F.t) (o : outcome) =
  match shape with
  | Monolithic ->
    [ ("core.partition_s", 0.); ("core.region_max_s", 0.); ("core.region_imbalance", 0.);
      ("core.polish_rounds", 0.); ("core.stitch_predicted_skew_ps", 0.) ]
  | Regional regions ->
    let group = Span.new_group rec_ in
    let start = Span.now () in
    ignore (Core.Partition.split ~regions b.F.sinks);
    let stop = Span.now () in
    ignore (Span.add rec_ ~group ~start ~stop "core.partition");
    let secs, rounds, predicted =
      match o.stitch with
      | Some st ->
        ( List.map (fun r -> r.Flow.rg_seconds) st.Flow.st_regions,
          float_of_int st.Flow.st_rounds,
          st.Flow.st_predicted_skew )
      | None -> ([], 0., 0.)
    in
    let max_s = List.fold_left Float.max 0. secs in
    [ ("core.partition_s", stop -. start); ("core.region_max_s", max_s);
      ("core.region_imbalance", Stats.ratio max_s (Stats.mean secs));
      ("core.polish_rounds", rounds); ("core.stitch_predicted_skew_ps", predicted) ]

(* The traced run: after a warm-up call, untraced and traced calls on
   the same input alternate [pairs] times, so the overhead — traced
   median minus untraced median, on the CPU clock the end-to-end metrics
   use — is not an artefact of call order. The layers are measured on
   the first traced call and then called separately. Returns the
   per-layer metrics, the operations' problems, how many failed and how
   many were attempted. *)
let pairs = 3

let trace_run shape rec_ b =
  let ticks0 = Proc.ticks () in
  let _, warm_up = checked shape b in
  let rounds =
    List.init pairs (fun _ ->
        let u, pu = checked shape b in
        let t, root = traced shape rec_ b in
        (u, pu, t, root))
  in
  let steal = Proc.steal_share ticks0 (Proc.ticks ()) in
  let _, _, o, root = List.hd rounds in
  let eval_metrics = evaluator rec_ shape o in
  let untraced = List.filter_map (fun (u, _, _, _) -> u) rounds in
  let untraced_cpu = Stats.median (List.map (fun u -> u.cpu) untraced) in
  let overhead =
    Stats.median (List.map (fun (_, _, t, _) -> t.cpu) rounds) -. untraced_cpu
  in
  let uncovered = Span.self_time rec_ (Span.find rec_ root) in
  let in_flow_construction =
    List.fold_left
      (fun acc s -> if s.Span.name = "core.flow.construction" then acc +. Span.duration s else acc)
      0. (Span.children rec_ root)
  in
  let metrics =
    step_metrics rec_ root @ construction rec_ shape b @ eval_metrics
    @ regional rec_ shape b o
    @ [ ("core.flow.construction_s", in_flow_construction);
        ("trace.overhead_s", overhead);
        ("trace.overhead_share", Stats.ratio overhead untraced_cpu);
        ("wall.latency_p50_s", Stats.median (List.map (fun u -> u.wall) untraced));
        ("host.steal_share", steal);
        ("trace.uncovered_s", uncovered);
        ("trace.uncovered_share", Stats.ratio uncovered o.wall);
        ("cap_pf", o.result.Flow.final.Ev.stats.Ctree.Stats.total_cap /. 1000.) ]
  in
  let problems =
    warm_up
    :: List.concat_map
         (fun (_, pu, t, _) -> [ pu; Checks.audit (config shape) t.result ])
         rounds
  in
  (metrics, List.concat problems, List.length (List.filter (( <> ) []) problems),
   List.length problems)
