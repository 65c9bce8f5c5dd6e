(* Every metric the benchmark prints, with its unit, in print order. The
   end-to-end set is printed by untraced runs, the per-layer set by the
   traced run; BENCHMARK.json names the same metrics. *)

let end_to_end =
  [ ("setup_s", "s"); ("op_cpu_p50_s", "s"); ("op_cpu_tail_s", "s");
    ("ops_per_cpu_s", "1/s"); ("peak_rss_mb", "MB"); ("skew_ps", "ps"); ("clr_ps", "ps");
    ("eval_runs", "count") ]

let step_names = List.map Core.Flow.step_name Flows.steps

let per_step step =
  List.map
    (fun (fmt, unit) -> (Printf.sprintf fmt step, unit))
    [ ("core.flow.%s_s", "s"); ("core.flow.%s_evals", "count");
      ("analysis.evaluator.%s_hits", "count"); ("analysis.evaluator.%s_misses", "count");
      ("analysis.evaluator.%s_hit_ratio", "ratio"); ("analysis.transient.%s_solves", "count");
      ("analysis.transient.%s_saved", "count"); ("core.ivc.%s_attempts", "count");
      ("core.ivc.%s_accept_ratio", "ratio") ]

(* The serve layer's metrics; the flow workloads report them as 0. *)
let serve_layer =
  [ ("hot_latency_p50_s", "s"); ("cold_latency_p50_s", "s"); ("eval_latency_p50_s", "s");
    ("serve.compute_cold_s", "s"); ("serve.compute_hot_s", "s");
    ("serve.compute_eval_s", "s"); ("serve.overhead_s", "s");
    ("serve.store_hit_ratio", "ratio"); ("serve.local_hit_ratio", "ratio");
    ("serve.busy_rejected", "count"); ("serve.deadline_expired", "count");
    ("serve.crashed", "count") ]

let per_layer =
  List.concat_map per_step step_names
  @ [ ("core.flow.construction_s", "s"); ("dme.zst_s", "s"); ("core.insertion_s", "s");
      ("core.polarity_s", "s"); ("core.polarity_added", "count");
      ("core.stage_balance_s", "s"); ("analysis.evaluator.scratch_s", "s");
      ("analysis.evaluator.incremental_cold_s", "s");
      ("analysis.evaluator.audit_delta_ps", "ps"); ("core.partition_s", "s");
      ("core.region_max_s", "s"); ("core.region_imbalance", "ratio");
      ("core.polish_rounds", "count"); ("core.stitch_predicted_skew_ps", "ps") ]
  @ serve_layer
  @ [ ("cap_pf", "pF"); ("trace.overhead_s", "s"); ("trace.overhead_share", "ratio");
      ("trace.uncovered_s", "s"); ("trace.uncovered_share", "ratio");
      ("wall.latency_p50_s", "s"); ("host.steal_share", "ratio") ]

(* The result line. Fails loudly when a registered metric was not
   computed — a benchmark bug, not a measurement. *)
let result_line ~registry ~correct ~attempted ~failed values =
  let metric (name, unit) =
    match List.assoc_opt name values with
    | Some v -> (name, Out.obj [ ("value", Out.number v); ("unit", Out.str unit) ])
    | None -> failwith ("metric not computed: " ^ name)
  in
  Out.obj
    [ ("correct", string_of_bool correct); ("attempted", string_of_int attempted);
      ("failed", string_of_int failed); ("metrics", Out.obj (List.map metric registry)) ]

let zeros names = List.map (fun n -> (n, 0.)) names
