(** Clock-Network Evaluation (CNE): full-tree timing with a pluggable
    engine.

    The tree is decomposed into driver stages; each stage is solved with
    the selected engine and the results chained — buffer input arrival plus
    the buffer's (corner-scaled) intrinsic and slew-dependent delay gives
    the next stage's launch time. Rising and falling source transitions
    are propagated separately (inverters flip the edge per stage), at every
    corner of the technology.

    Every call increments a global evaluation counter, mirroring the
    paper's count of SPICE runs (Table V). *)

type engine =
  | Elmore_model  (** construction-time estimates only *)
  | Arnoldi       (** two-pole moment matching, fast and accurate *)
  | Spice         (** backward-Euler transient — the reference *)

type transition = Rise | Fall

val flip : transition -> transition

type run = {
  corner : Tech.Corner.t;
  transition : transition;  (** at the clock source output *)
  latency : float array;
      (** node id → arrival of the 50 % crossing, meaningful at sinks and
          buffer inputs *)
  slew : float array;       (** node id → 10–90 % slew at that pin *)
  worst_slew : float;
  worst_slew_node : int;
}

type t = {
  runs : run list;
  sinks : int array;
  skew_rise : float;  (** nominal-corner skew for the source-rise runs *)
  skew_fall : float;
  skew : float;       (** max of the two, ps *)
  t_min : float;      (** least nominal sink latency over both transitions *)
  t_max : float;      (** greatest nominal sink latency *)
  clr : float;
      (** max over transitions of (max latency at the slow corner − min
          latency at the fast corner); equals skew when only one corner is
          configured *)
  slew_violations : int;  (** taps beyond the slew limit, over all runs *)
  cap_ok : bool;
  stats : Ctree.Stats.t;
}

(** [transient_step]/[transient_mode] tune the [Spice] engine's
    backward-Euler kernel (fine timestep in ps and stepping controller —
    see {!Transient.mode}); both default to the kernel's own defaults and
    are ignored by the other engines.

    [flat] must be [false] (the default). It selected the flat-arena
    engine, which is gone; the argument stays only until the benchmark
    harness that still passes it drops it, and is removed then.
    @raise Invalid_argument if [flat] is [true], whatever the engine. *)
val evaluate :
  ?engine:engine -> ?flat:bool -> ?seg_len:int -> ?transient_step:float ->
  ?transient_mode:Transient.mode -> Ctree.Tree.t -> t

(** The nominal-corner run for a source transition. *)
val nominal_run : t -> transition -> run

(** Corner identity is the {e name}, never physical equality: callers
    legitimately rebuild corner records (variation sweeps, serialisation
    round-trips), so matching runs to corners with [==] silently drops
    them. Every consumer of {!run.corner} should compare through this. *)
val corner_equal : Tech.Corner.t -> Tech.Corner.t -> bool

(** [ok t] — no slew violations and within the capacitance budget. *)
val ok : t -> bool

val eval_count : unit -> int
val reset_eval_count : unit -> unit

val pp_summary : Format.formatter -> t -> unit

(** Cross-session stage-result store for long-lived processes (the serve
    daemon): a lock-striped bounded table of solved stage results under
    the same content-derived [(fingerprint, r_drv, s_drv)] keys the
    per-slot caches use, plus a shared {!Transient.Fstore} of
    backward-Euler factorisations. Result arrays are written once and
    only read afterwards, so sharing them across domains is race-free.

    {b Caveat}: the keys do not encode the evaluation config — every
    session attached to one store must be numerically identical (same
    engine, transient step and mode). Owners enforce this by
    keying stores per config family; [Flow] additionally skips the store
    on degraded retries, whose relaxed kernel settings would otherwise
    poison the shared entries. *)
module Store : sig
  type t

  (** [create ?stripes ?cap ()] — [cap] (default 262144) stage results
      spread over [stripes] (default 16) independently locked stripes;
      full stripes evict a random quarter rather than resetting. *)
  val create : ?stripes:int -> ?cap:int -> unit -> t

  (** A per-request view of a store: the same shared tables, plus this
      request's own atomic hit/miss counters — so concurrent requests
      each report their own cross-request reuse. *)
  type handle

  val handle : t -> handle

  (** Look up a stage result. A hit is counted on the handle; a miss is
      not — the {!add} that publishes the computed result counts it. *)
  val find : handle -> Int64.t * float * float -> (float * float) array option

  (** Publish a computed stage result. Counts a miss on the handle when
      this call inserted the key, and a hit when another caller inserted
      it first — so parallel slots racing on one key report the same
      counts in any order. *)
  val add : handle -> Int64.t * float * float -> (float * float) array -> unit

  (** Store lookups this handle answered from the shared table /
      had to compute (see {!find} and {!add}). *)
  val hits : handle -> int

  val misses : handle -> int

  (** Live stage results across all stripes (takes each stripe lock). *)
  val length : t -> int

  (** Entries evicted since creation. *)
  val evictions : t -> int

  (** Drop all shared state, including the factorisation store. *)
  val clear : t -> unit
end

type cache_stats = {
  hits : int;            (** stage solves answered from cache *)
  misses : int;          (** stage solves that ran an engine *)
  refreshes : int;       (** total {!Incremental.refresh} calls *)
  fast_refreshes : int;  (** refreshes short-circuited by the revision memo *)
  dirty_refreshes : int;
      (** refreshes that re-extracted only journal-dirtied stages *)
  entries : int;         (** live cached stage results across all slots *)
  factored_entries : int;
      (** live backward-Euler factorisations across all per-slot caches *)
  store_hits : int;
      (** local misses answered by the shared {!Store} (0 when detached) *)
  store_misses : int;    (** local misses the shared store missed too *)
}

(** A journaled edit: the tree revision it started from and the node ids
    it touched (see {!Ctree.Tree.Journal.touched}). Passed to
    {!Incremental.refresh} / {!Incremental.note_edits}, it lets a session
    chain edits from the state it last saw and re-extract only the dirty
    stages instead of re-fingerprinting the whole tree. *)
type edit_hint = { base_revision : int; nodes : int list }

(** Session-based incremental evaluation.

    A session owns per-(corner × transition) caches of stage results keyed
    by the stage's content fingerprint (see {!Rcnet.fingerprint}) and the
    driver parameters, plus — for the [Spice] engine — a table of
    backward-Euler factorisations reusable across driver resistances.
    [refresh] recomputes only stages whose electrical content or launch
    conditions changed since any earlier refresh and is numerically
    identical to a from-scratch {!evaluate} with the same engine and
    [seg_len]; see doc/EXTENDING.md for the invalidation rules.

    Sessions are not thread-safe: call [refresh] from one domain at a
    time. Internally, refresh may fan the independent corner × transition
    passes out over a small domain pool ([parallel], default true); each
    pass owns its cache slot, so results are deterministic and identical
    to the sequential order. *)
module Incremental : sig
  type session

  (** [create tree] prepares a session; no evaluation happens yet.
      [engine]/[seg_len]/[transient_step]/[transient_mode] default like
      {!evaluate}; [flat] has {!evaluate}'s contract and raises
      [Invalid_argument] when [true].

      The per-slot factorisation caches read through one
      {!Transient.Fstore}, so the corner × transition slots share each
      (stage, step) factorisation instead of each factoring it again (a
      factorisation excludes the driver and is a pure function of its
      key, so sharing never changes a result). Without [store] that
      table is session-local.

      [store] attaches a shared {!Store} handle: slot-cache misses
      consult the shared table before running an engine, computed
      results are published back, and the slots' factorisation caches
      read through the store's shared {!Transient.Fstore} instead of a
      session-local one. See the {!Store} caveat on numerically-identical
      configs. *)
  val create :
    ?engine:engine -> ?flat:bool -> ?seg_len:int -> ?parallel:bool ->
    ?transient_step:float -> ?transient_mode:Transient.mode ->
    ?store:Store.handle -> Ctree.Tree.t -> session

  (** Re-evaluate the session's tree, reusing every cached stage that
      still matches. [?tree] rebinds the session to a replacement tree
      (e.g. after {!Ctree.Tree.compact}); caches carry over because keys
      are content-derived, not id-derived. Counts as one evaluator run.

      [?edits] is the dirty-set fast path: when the hint's
      [base_revision] matches the revision the session's stage extraction
      describes (its anchor, advanced by {!note_edits}), only the stages
      containing the hinted nodes' parent wires (plus the driven stage of
      any hinted buffer) are re-extracted and re-fingerprinted; all other
      stages are answered from the per-slot caches, and the downstream
      arrival cone is recomputed by the propagation itself. A stale or
      unmappable hint silently falls back to a full extraction, so the
      result is always identical to a refresh without the hint. *)
  val refresh : ?tree:Ctree.Tree.t -> ?edits:edit_hint -> session -> t

  (** Report tree mutations that happened {e without} a refresh — a
      rolled-back speculative edit, or a winner journal replayed onto
      this session's tree. [edits = Some h] with [h.base_revision] equal
      to the session's anchor extends the anchor chain to
      [new_revision] and accumulates [h.nodes] into the pending dirty
      set; [None] (or a mismatched base) drops the anchor so the next
      refresh does a full extraction. Never evaluates. *)
  val note_edits :
    session -> edits:edit_hint option -> new_revision:int -> unit

  (** Waveform probe through the session's factorisation cache and
      workspace (see {!Transient.probe}); uses the session's
      [transient_step]. Call from the session's thread only. *)
  val probe :
    session -> Rcnet.t -> r_drv:float -> s_drv:float -> node:int ->
    times:float array -> float array

  val stats : session -> cache_stats

  (** Drop all cached state (stage results, factorisations, the
      whole-result memo). Only useful for benchmarks and tests. *)
  val invalidate : session -> unit
end
