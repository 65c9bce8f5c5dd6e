(** Backward-Euler transient simulation of a driver stage — the
    ngSPICE/HSPICE substitute — with an adaptive multi-rate stepping
    controller.

    The stage's RC tree is driven through the Thevenin resistance [r_drv]
    by a saturated 0→1 ramp with 10–90 % slew [s_drv]. Each timestep solves
    the tree-structured linear system exactly in O(n) (one leaf-elimination
    factorisation reused across steps). Tap voltages are monitored and the
    10/50/90 % crossing times recovered by linear interpolation.

    In the adaptive modes the kernel fine-steps only through the driver
    ramp and the narrow windows that bracket a watched threshold crossing;
    everything in between is covered by a trio of coarse backward-Euler
    marches (steps [mult·h], [mult·h/2], [mult·h/4]) whose states are
    extrapolated in the step size down to the fine step at every coarse
    boundary (quadratic Richardson, residual [O(mult³h³/τ²)]). A
    bracketed window is rewound to its extrapolated entry state and
    re-integrated at the fine step, so reported latencies and slews track
    the fixed-fine-step reference within ≤ 0.05 ps (see
    doc/EXTENDING.md, "Transient kernel"). *)

(** A leaf-elimination factorisation of a stage's RC matrix for a fixed
    timestep. The driver conductance is deliberately excluded — it only
    enters the root diagonal, which is reconstructed at solve time — so
    one factorisation serves every [r_drv] the optimizer tries. *)
type factored

(** Factor a stage for timestep [step] ps (default 0.5). O(n). *)
val factor : ?step:float -> Rcnet.t -> factored

(** Reusable, growable scratch buffers (node-voltage states, residuals,
    frontier bookkeeping). A workspace may be reused across stages and
    calls of any size — arrays grow on demand and are fully re-initialised
    by each call, so results never depend on what ran before. Not
    thread-safe: use one workspace per domain. *)
type workspace

val workspace : unit -> workspace

(** The calling domain's lazily-created workspace ([Domain.DLS]) — the
    fallback used by {!solve}/{!simulate} when no [?ws] is passed, so
    ad-hoc solves on one domain reuse the grown arrays across calls. *)
val domain_workspace : unit -> workspace

(** Shared factorisation store: a lock-striped bounded table of
    [(fingerprint, step) → factored] safe to use from any domain
    concurrently — what the corner × transition slots of an evaluator
    session share, and the cross-request sharing layer behind the serve
    daemon ([factored] values are immutable once built, so handing the
    same factorisation to several domains is race-free). A per-domain
    {!Fcache} created with [?store] consults it on a local miss and
    publishes what it factors, so warm factorisations survive session
    (and request) teardown. Eviction is incremental (a quarter of the
    full stripe, in hash order), never a whole-table wipe. *)
module Fstore : sig
  type t

  (** [create ?stripes ?cap ()] — [cap] (default 16384) entries spread
      over [stripes] (default 16) independently locked stripes. *)
  val create : ?stripes:int -> ?cap:int -> unit -> t

  (** Live entries across all stripes (takes each stripe lock). *)
  val length : t -> int

  (** Entries evicted since creation. *)
  val evictions : t -> int

  val clear : t -> unit
end

(** Per-(stage, step) factorisation cache keyed by {!Rcnet.fingerprint}.
    The backward-Euler factor depends on the timestep, so each rate of the
    multi-rate kernel gets its own entry. Bounded: at [cap] entries
    (default 4096) insertion evicts exactly one cold entry by
    second-chance ("clock") rotation — entries hit since their last
    inspection survive, and the entry being inserted is never dropped —
    so a long-lived process keeps its warm set instead of dumping the
    whole table at the cap boundary. Not thread-safe: use one cache per
    domain. *)
module Fcache : sig
  type t

  (** [store] attaches a shared {!Fstore}: local misses consult it
      before factoring, local factorisations are published to it. *)
  val create : ?cap:int -> ?store:Fstore.t -> unit -> t

  (** [get c rc ~step] returns the cached factorisation for [rc] at
      [step], computing and storing it on a miss. [fp] supplies a
      precomputed fingerprint of [rc] (callers that already hashed the
      stage avoid a second O(n) pass). *)
  val get : t -> ?fp:int64 -> Rcnet.t -> step:float -> factored

  val length : t -> int
  val clear : t -> unit
end

(** Stepping controller.

    - [Fixed]: the classic single-rate march at [step]; the accuracy
      reference.
    - [Adaptive { mult }]: coarse step [mult·step] (mult is rounded down
      to even; values < 2 mean [Fixed]).
    - [Auto { max_mult }]: pick [mult] per stage from its time constants
      (the smallest watched first moment, an Elmore/dominant-pole
      estimate), capped at [max_mult]. Stages too stiff to profit fall
      back to [Fixed]. *)
type mode =
  | Fixed
  | Adaptive of { mult : int }
  | Auto of { max_mult : int }

val default_step : float

(** [Auto { max_mult = 32 }] — the default for {!solve} and {!simulate}. *)
val default_mode : mode

(** What one {!simulate} march did. [solves] counts linear-system solves
    actually performed (fine + coarse); [fine_equiv] is what a [Fixed]
    march over the same span would have taken, so [fine_equiv - solves]
    is the saving. [truncated] is set when the march hit its step budget
    with crossings still pending — the corresponding results are reported
    as [infinity] by {!solve} and are genuinely unknown rather than
    merely slow. *)
type march = { solves : int; fine_equiv : int; truncated : bool }

(** Cumulative cross-call kernel counters (atomic, safe to read from any
    domain). [total_saved] may be slightly negative on pathological
    inputs where the coarse overhead outweighs the skipped steps. *)
type counters = {
  total_solves : int;
  total_saved : int;
  total_truncations : int;
}

val counters : unit -> counters
val reset_counters : unit -> unit

(** Run the march, reporting each 10/50/90 % crossing of a watched node
    through [on_cross (watch_slot, threshold_index, time)]. [factored]
    must match [step] (within 1e-9 relative — steps composed
    arithmetically are accepted); coarse-rate factorisations are taken
    from [fcache] when given, recomputed otherwise. [max_steps] bounds
    the march in fine-step equivalents (default 2,000,000).

    The per-step sweeps run without bounds checks; the march validates
    their preconditions once before stepping.
    @raise Invalid_argument if the factorisation's timestep genuinely
    disagrees with [step]; if [rc.parent], [rc.res] or [rc.cap] is
    shorter than [rc.size], or some [rc.parent.(i)] (i ≥ 1) is outside
    [0, i); if a factorisation the march uses — [factored], or one
    found in [fcache] (a fingerprint collision with a smaller stage) —
    is smaller than [rc.size]; or if some [watch] index is outside
    [0, rc.size). *)
val simulate :
  ?step:float -> ?mode:mode -> ?factored:factored -> ?fcache:Fcache.t ->
  ?fp:int64 -> ?ws:workspace -> ?max_steps:int -> Rcnet.t ->
  r_drv:float -> s_drv:float -> watch:int array ->
  on_cross:(int -> int -> float -> unit) -> march

(** Per-tap [(delay, slew)] in ps: delay from the driver ramp's 50 % point
    to the tap's 50 % crossing; slew is the 10–90 % interval. Indexed like
    [rc.taps]. Taps whose march truncated are [(infinity, infinity)].
    @raise Invalid_argument as {!simulate}. *)
val solve :
  ?step:float -> ?mode:mode -> ?factored:factored -> ?fcache:Fcache.t ->
  ?fp:int64 -> ?ws:workspace -> Rcnet.t -> r_drv:float -> s_drv:float ->
  (float * float) array

(** Full waveform probe for tests: voltages of a chosen rc node sampled at
    the given times, always at the fixed fine rate. Times may be in any
    order; probe times beyond the last simulated step return the final
    node voltage. Passing [factored]/[fcache] reuses factorisations like
    {!solve}.
    @raise Invalid_argument on the stage and factorisation
    preconditions of {!simulate}, or if [node] is outside
    [0, rc.size). *)
val probe :
  ?step:float -> ?factored:factored -> ?fcache:Fcache.t -> ?fp:int64 ->
  ?ws:workspace -> Rcnet.t -> r_drv:float -> s_drv:float -> node:int ->
  times:float array -> float array
