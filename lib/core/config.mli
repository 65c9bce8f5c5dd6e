(** Flow parameters of the Contango methodology. All defaults follow the
    paper where it gives values (γ = 10 % power reserve, p_i = 100/(i+3) %
    sizing steps); the rest are robust settings that required no per-design
    tuning — a design goal the paper states explicitly. *)

type t = {
  engine : Analysis.Evaluator.engine;
      (** evaluation engine for every CNE (default [Spice]) *)
  flat : bool;
      (** must stay [false] (the default): it selected the flat-arena
          engine, which was removed. Every evaluation entry point raises
          [Invalid_argument] on [true]. The field goes once the benchmark
          harness that still reads it drops it *)
  seg_len : int;
      (** RC segmentation granularity, nm (default
          {!Analysis.Rcnet.default_seg_len}) *)
  transient_step : float;
      (** [Spice] engine fine timestep, ps (default
          {!Analysis.Transient.default_step}) *)
  transient_mode : Analysis.Transient.mode;
      (** [Spice] engine stepping controller (default
          {!Analysis.Transient.default_mode}: per-stage auto-rated
          multi-rate marching; [Fixed] recovers the single-rate
          reference march) *)
  gamma : float;       (** power reserve kept for post-insertion steps *)
  vg_step : int;       (** buffer candidate spacing for insertion, nm *)
  vg_buckets : int option;
      (** candidate-list quantisation; [None] = exact van Ginneken *)
  composite_counts : int list;
      (** parallel counts tried for composite buffers, strongest first *)
  polarity_buf_count : int;
      (** parallel count of polarity-correcting inverters; 0 means "use
          the same composite as the insertion step chose" (the safe
          default — a weak corrective inverter above a subtree sized for a
          strong composite violates slew) *)
  snake_unit : int;    (** l_wn — wiresnaking unit length, nm *)
  max_snake_per_round : int;
      (** per-wire snaking cap per round, nm — keeps any one round's
          additions within slew margins; IVC and further rounds compound *)
  slew_margin : float;
      (** fraction of the slew limit the initial insertion must leave as
          headroom for the wire optimizations (which slow wires down and
          degrade slews); analogous to the γ power reserve *)
  damping : float;     (** fraction of estimated slack consumed per round *)
  max_rounds : int;    (** iteration cap per optimization *)
  second_pass_skew_ps : float;
      (** when the skew after BWSN is still above this band, {!Flow} runs
          the wire-optimization sequence (TWSZ→TWSN→BWSN) once more — the
          paper's "further optimization … at the cost of increased
          runtime" (§I). [infinity] disables the second pass, a negative
          value forces it *)
  deadline : float option;
      (** absolute monotonic deadline ({!Monoclock.now} scale) checked
          cooperatively before every {!Ivc.evaluate}; past it, evaluation
          raises {!Ivc.Deadline_exceeded}. [None] (the default) never
          times out. Set by the suite runner's per-instance budget *)
  branch_levels : int;
      (** tree levels after the first branch sized by capacitance
          borrowing (§IV-I suggests 4–5) *)
  multicorner_slacks : bool;
      (** take slack minima across corners, not just rise/fall (§III-B) *)
  stage_balancing : bool;
      (** equalise per-path inverter counts after insertion (see
          {!Stage_balance}); disable only for ablation studies *)
  elmore_prebalance : bool;
      (** run a cheap Elmore-engine snaking equalisation before the first
          accurate evaluation (§III-A: simple analytical models first);
          disable only for ablation studies *)
  speculation : int;
      (** candidate-search width for {!Ivc.speculate}, [n >= 0]: [n > 0]
          uses [n] parallel lanes ([1] = serial journaled search on the
          main tree) and [0] (the default) picks a width from the
          machine's core count. The final tree and evaluation are
          bit-identical for every value; width changes only wall-clock
          time and how many losing ladder rungs get (discarded)
          evaluations *)
  probe_count : int;
      (** waveform probes used by the wire-sizing/snaking/bottom-level
          correction estimators ({!Wiresizing.estimate_tws},
          {!Wiresnaking.estimate_twn}) *)
  size_probe_min_len : int;
      (** minimum parent-wire length, nm, for a wire-sizing probe site *)
  snake_probe_min_len : int;
      (** minimum parent-wire length, nm, for a snaking probe site *)
  max_stage_retries : int;
      (** how many times {!Flow} re-runs a failed stage before giving the
          failure to the caller. Each retry rolls the tree back to the
          last verified checkpoint and climbs the degraded-mode ladder
          (serial speculation and the fixed-rate march, then a halved
          step on a fresh session without the shared store);
          after a stage succeeds the normal configuration is restored.
          [0] disables stage retry entirely (failures propagate) *)
  regions : int;
      (** how many geometric regions {!Flow.run_regional} partitions the
          sinks into (recursive capacity-balanced bisection). Each region
          is synthesized and optimized as an independent tree in parallel
          on the domain pool, then stitched under a latency-balanced top
          tree. [1] (the default) is the monolithic flow, bit-identical
          to {!Flow.run}; values are clamped so no region gets fewer than
          two sinks *)
  stitch_skew_ps : float;
      (** convergence band for the post-stitch global polish loop: the
          loop stops once the measured cross-region skew drops below this
          (or its round budget runs out). Only read when [regions > 1] *)
  inject_numerical_failures : int;
      (** fault-injection knob for tests and drills: after the initial
          evaluation, the first [n] evaluations raise
          {!Analysis.Numerics.Numerical_failure} instead of returning.
          [0] (the default) injects nothing *)
  chaos : string option;
      (** fault-injection spec for the serve daemon's chaos harness
          (see {!Serve.Chaos} for the grammar — e.g.
          ["seed=7,eintr=0.2,drop_pre=1@1"]). Carried here so one config
          record describes a whole daemon; [None] (the default) injects
          nothing. Ignored by the one-shot flow entry points *)
  debug : bool;
      (** per-IVC-decision logging on stderr. Defaults to whether
          [CONTANGO_DEBUG] was set at startup; the suite runner can flip
          it per instance without re-exec *)
  surrogate : bool;
      (** rank speculative candidates with the calibrated
          {!Analysis.Surrogate} model: once calibrated, only the top-R
          predicted candidates of each round pay a full evaluation (a
          trust-radius mispredict guard falls back to the full set).
          [false] (the default) reproduces the unranked search exactly —
          bit-identical trees and evaluation schedule; [true] (set in
          {!scalability}) keeps final quality within the IVC tolerance
          while cutting the evaluation count. The surrogate-on schedule
          is itself width- and machine-independent: warm-up rounds use
          the serial lazy scan, ranked rounds evaluate a deterministic
          subset *)
  rank_top : int;
      (** how many top-ranked candidates pay a full evaluation per
          surrogate-ranked round; [0] (the default) scales with the
          candidate count ([max 1 (k/4)] — one rung of the scale
          ladder). Mispredicts persistently widen the effective R *)
  store : Analysis.Evaluator.Store.handle option;
      (** shared cross-request stage-result store for the main
          incremental session (see {!Analysis.Evaluator.Store}); set by
          long-lived callers (the serve daemon) so repeated instances
          reuse solved stages and factorisations. {!Flow} attaches it
          only to the primary session at degraded level 0 — degraded
          retries change the kernel's numerics, and replica sessions
          (speculation lanes, regional stitching) keep their own caches.
          [None] (the default) shares nothing *)
  evaluator : Speculate.hooks option;
      (** evaluation hooks used by {!Ivc.evaluate}; [None] falls back to
          [Evaluator.evaluate ~engine ~seg_len]. Set by {!Flow} to the
          incremental session's refresh/note pair — passes should not
          set it themselves *)
  spec : Speculate.t option;
      (** speculation context over the flow's main tree, set by {!Flow};
          {!Ivc.speculate} uses it when the pass operates on that tree
          and falls back to a serial context otherwise *)
  surrogate_state : Analysis.Surrogate.t option;
      (** live calibration state for [surrogate], created per run by
          {!Flow} (never shared across domains); [None] disables ranking
          even when [surrogate] is set — degraded retries clear it so
          recovery runs stay conservative. Passes should not set it
          themselves *)
}

val default : t

(** Default with the moment-matching engine and coarser knobs — the
    configuration for 10K+-sink scalability runs (§V uses groups of large
    inverters and a faster evaluator there). *)
val scalability : t

(** Effective lane count for {!t.speculation}: the value itself when
    positive, and a core-count heuristic (cores − 1, clamped to [1, 8])
    for the [0] auto setting. *)
val speculation_width : t -> int
