(** Cache-reusing Pareto sweep — the harness behind [contango pareto].

    Runs one benchmark instance through the full {!Core.Flow} once per
    knob vector (buffer-count ladder, wire-width set, snaking
    granularity, transient stepping mode, speculation width) and reduces
    the results to the non-dominated front over (skew, CLR, total cap,
    runtime) — the axes of the paper's quality/cost trade-off tables.

    Points run concurrently on a dedicated {!Analysis.Domain_pool} and
    share stage-result stores ({!Analysis.Evaluator.Store}) across
    points: every point whose kernel numerics match (same engine,
    segmentation, transient step and mode — the {e family})
    attaches a handle onto one family store, so a point re-solving a
    stage another point already solved answers it from cache instead of
    re-running the kernel. Knobs that change only the search trajectory
    (speculation width) or tree content (buffer counts, snaking) share a
    family; knobs that change the numerics (transient mode) get their
    own — reusing across those would change results.

    Sweeps with [jobs = 0] (sequential points) maximise reuse — later
    points see everything earlier points solved; parallel sweeps trade
    some hit rate for wall-clock. *)

(** One knob vector: [None]/[false] fields keep the base configuration's
    value, so {!point} with all defaults is the unmodified flow. *)
type knob = {
  k_label : string;
  k_multiwidth : bool;
      (** swap the technology for {!Tech.default45_multiwidth} (four
          graduated wire widths — finer TWSZ steps), keeping the
          benchmark's cap limit. Approximate for benchmarks carrying a
          custom technology: the sweep substitutes the contest 45 nm
          bundle *)
  k_composite_counts : int list option;  (** buffer-count ladder *)
  k_snake_unit : int option;             (** l_wn, nm *)
  k_max_snake_per_round : int option;
  k_transient_mode : Analysis.Transient.mode option;
      (** a different stepping controller starts its own store family *)
  k_speculation : int option;
}

(** All-default knob vector with the given label. *)
val point : string -> knob

(** The standard eleven-point grid: baseline, a coarse buffer-count
    ladder, the multiwidth wire set, fine/coarse snaking, the [Fixed]
    transient reference, and speculation widths 1/2/3/4/8 (identical
    result trajectories — the runtime axis — whose stage solves hit the
    shared store almost completely). *)
val default_grid : knob list

type metrics = {
  pm_skew_ps : float;
  pm_clr_ps : float;
  pm_t_max_ps : float;
  pm_cap_ff : float;   (** total tree capacitance — the power axis *)
  pm_cap_pct : float;  (** cap as % of the limit; [nan] if unlimited *)
  pm_buffers : int;
  pm_eval_runs : int;
}

type point_report = {
  pt_label : string;
  pt_family : string;
      (** the kernel-numerics store family this point shared *)
  pt_seconds : float;
  pt_store_hits : int;
      (** stage solves answered by another point's work (or an earlier
          stage of this one) through the family store *)
  pt_store_misses : int;
  pt_outcome : (metrics, string) result;  (** [Error] = crash/timeout *)
  pt_on_front : bool;
      (** member of the non-dominated front over
          (skew, CLR, cap, seconds); always [false] for failed points *)
}

type t = {
  pr_bench : string;
  pr_points : point_report list;  (** in grid order *)
  pr_seconds : float;
}

(** Completed-point store traffic summed across the sweep. *)
val store_totals : t -> int * int

(** [hits / (hits + misses)]; 0 when the sweep never touched a store. *)
val hit_rate : t -> float

(** Run the sweep. [timeout] bounds each point (cooperative deadline,
    like the suite runner); [jobs] is the point-level worker count
    ([Some 0] = sequential, the maximum-reuse setting; default: one per
    spare core); [config] seeds every point before its knob vector is
    applied. Never raises on point failure — failed points carry
    [Error detail]. *)
val run :
  ?timeout:float -> ?jobs:int -> ?config:Core.Config.t ->
  ?grid:knob list -> Format_io.t -> t

(** Paper-style summary table: one row per point, front members
    marked. *)
val table : t -> string

val to_json : t -> Report.Json.t

(** Write [<out_dir>/<bench>.pareto.json] atomically; returns the path
    written. *)
val write_json : out_dir:string -> t -> string
