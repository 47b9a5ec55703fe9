(** Experiment harness: timed denial-constraint runs and the paper-style
    tables printed by the benchmark binary (one per table/figure of
    Section 7). *)

type algo = Naive | Opt

val algo_name : algo -> string

type measurement = {
  label : string;
  algo : algo;
  variant : Queries.variant;
  jobs : int;  (** Engine worker count used for the run. *)
  satisfied : bool;
  unknown : bool;
      (** The last run's budget tripped before the enumeration finished
          (verdict [Unknown]): [satisfied] is then vacuous and [seconds]
          measures a truncated run, not a solve. *)
  seconds : float;  (** Mean (or min) over [repeats] runs. *)
  stats : Bccore.Dcsat.stats;  (** From the last run. *)
  obs_worlds : int;
      (** Worlds evaluated, from the instrumented run's merged
          ["dcsat.worlds"] counter (deterministic across backends). *)
  cache_hit_ratio : float;
      (** Visibility-cache hits / (hits + misses) in the tagged store;
          0 when the run never probed the cache. *)
  comp_cache_hit_ratio : float;
      (** Live verdict-cache hits / (hits + misses)
          (["live.comp_cache_hit"] / ["live.comp_cache_miss"]); 0 on the
          batch paths, which never consult the per-component cache —
          populated by the serve benchmark's warm-check rows. *)
  worker_util : float;
      (** Σ per-world evaluation time / (jobs × runtime) of the
          instrumented run — the fraction of worker-domain capacity
          spent evaluating worlds. *)
  eval_full : int;
      (** Worlds evaluated by a full backtracking join in the
          instrumented run (["eval.full"]). *)
  eval_delta : int;
      (** Worlds answered incrementally — replayed from a cached world
          or decided by a delta-seeded search (["eval.delta"]). *)
  eval_delta_tuples : int;
      (** Δ-tuples the delta-seeded searches iterated
          (["eval.delta_tuples"]). *)
  eval_delta_ratio : float;
      (** [eval_delta / (eval_full + eval_delta)]; 0 when no worlds were
          evaluated. *)
  base_bytes : int;
      (** Estimated bytes of the session store's shared columnar base
          segments ({!Bccore.Tagged_store.base_bytes}) — a data-size
          axis for the measurement, independent of the run. *)
  dict_hits : int;
      (** Base-segment dictionary probes that found their string/bool
          key, from the instrumented run (["segment.dict_hits"]). *)
}

val run :
  ?repeats:int ->
  ?warmup:int ->
  ?summary:[ `Mean | `Min ] ->
  ?jobs:int ->
  ?config:Bccore.Dcsat.config ->
  ?timeout_s:float ->
  ?max_worlds:int ->
  ?obs_sinks:Bcobs.Obs.sink list ->
  session:Bccore.Session.t ->
  label:string ->
  algo:algo ->
  variant:Queries.variant ->
  Bcquery.Query.t ->
  measurement
(** Executes the solver [warmup] (default 0) unrecorded times, then
    [repeats] recorded times (default 3, as in the paper) and summarizes
    the wall-clock time — the mean by default, or the minimum with
    [~summary:`Min] (the right statistic when comparing backends whose
    difference is smaller than scheduler noise). Times are read from the
    solver's monotonic-clock stats. [jobs] (default 1) is the engine's
    worker count (OptDCSat only; NaiveDCSat runs on one). [config] ({!Bccore.Dcsat.config}) selects the
    solver's switches: turn [delta] off to measure the full-evaluation
    baseline, or when comparing backends whose runs would otherwise
    replay each other's cached worlds. [timeout_s]/[max_worlds] bound
    each individual solve (a fresh {!Bccore.Engine.Budget} per run, so
    repeats don't share one allowance); a tripped budget surfaces as [unknown = true]. Raises
    [Invalid_argument] if the solver refuses the query (e.g. OptDCSat on
    a disconnected query).

    The timed runs execute with the session's existing recorder
    untouched (normally {!Bcobs.Obs.null}, so they are not perturbed);
    one extra {e untimed} run under a fresh recorder supplies the
    [obs_worlds]/[cache_hit_ratio]/[worker_util] fields and pushes its
    summary through [obs_sinks] (default none — e.g. a trace collector
    accumulating one Chrome trace for the whole bench run). *)

val session_of : Bccore.Bcdb.t -> Bccore.Session.t
(** Fresh session with the steady-state structures prebuilt (warm), so
    measurements exclude one-time precomputation — matching the paper's
    setting where graphs are maintained incrementally. *)

val print_table :
  title:string -> columns:string list -> rows:string list list -> unit
(** Aligned plain-text table on stdout. *)

val ms : float -> string
(** Milliseconds with sensible precision. *)
