(* Output checks. Each returns a list of problems; a non-empty list makes
   the operation it checks count as failed. *)

module Ev = Analysis.Evaluator

(* The transient kernel's accuracy bound: a from-scratch evaluation must
   reproduce the flow's own final figures within it. *)
let tolerance_ps = 0.05

let scratch_eval (config : Core.Config.t) tree =
  Ev.evaluate ~engine:config.Core.Config.engine ~flat:config.Core.Config.flat
    ~seg_len:config.Core.Config.seg_len
    ~transient_step:config.Core.Config.transient_step
    ~transient_mode:config.Core.Config.transient_mode tree

let deltas ~(reference : Ev.t) (claimed : Ev.t) =
  [ ("skew", Float.abs (claimed.Ev.skew -. reference.Ev.skew));
    ("clr", Float.abs (claimed.Ev.clr -. reference.Ev.clr));
    ("t_max", Float.abs (claimed.Ev.t_max -. reference.Ev.t_max)) ]

let max_delta ~reference claimed =
  List.fold_left (fun m (_, d) -> Float.max m d) 0. (deltas ~reference claimed)

(* [agree ~reference claimed] — the claimed evaluation (a flow's
   [final]) against an independent from-scratch one. A NaN delta fails. *)
let agree ~reference claimed =
  List.filter_map
    (fun (what, d) ->
      if d <= tolerance_ps then None
      else
        Some
          (Printf.sprintf "%s differs from a from-scratch evaluation by %g ps"
             what d))
    (deltas ~reference claimed)

(* Structural validity plus the from-scratch audit of a flow result. *)
let audit config (r : Core.Flow.result) =
  let reference = scratch_eval config r.Core.Flow.tree in
  List.map (fun e -> "invalid tree: " ^ e) (Ctree.Validate.check r.Core.Flow.tree)
  @ agree ~reference r.Core.Flow.final

(* The quality figures a user sees for one result. *)
type quality = { skew : float; clr : float; eval_runs : float }

let quality (r : Core.Flow.result) =
  { skew = r.Core.Flow.final.Ev.skew; clr = r.Core.Flow.final.Ev.clr;
    eval_runs = float_of_int r.Core.Flow.eval_runs }

(* The typical figures over several inputs: each figure's 20%-trimmed
   mean. One input whose flow ends far off (a regional stitch that did
   not converge) is printed per input but does not swing the run's
   figure, and over 20-40 inputs the trimmed mean moves less from seed
   to seed than the median does. *)
let typical_quality qs =
  let typical f = Stats.trimmed_mean (List.map f qs) in
  { skew = typical (fun q -> q.skew); clr = typical (fun q -> q.clr);
    eval_runs = typical (fun q -> q.eval_runs) }
