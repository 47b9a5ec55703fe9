(** The solver engine: a pull-based stream of candidate worlds
    ({!Work_source}) fanned out over a pluggable execution backend.

    The per-world work of NaiveDCSat/OptDCSat — materialize the maximal
    world of a clique with [getMaximal], evaluate [q] over it — is
    independent across work items, so it parallelizes naturally once
    each worker owns a private {!Tagged_store} replica (the snapshot-per-
    worker idea of block-parallel blockchain databases). Each worker
    owns exactly one store and evaluates every item it claims on it.
    Two backends:

    - sequential (the [jobs <= 1] path) runs items inline on the
      primary store — bit-for-bit the pre-engine behaviour, including
      event order and statistics;
    - parallel ([jobs = n > 1], capped at 64) runs [n] workers: the
      calling domain plus [n - 1] helpers from a persistent pool of
      parked domains (spawning a domain costs milliseconds, often more
      than a whole solve, so helpers are reused across runs and sleep on
      a condition variable in between). Each worker borrows one full
      replica via [replicate] when it claims its first item, and hands
      it back through [release] after the join — no store is ever
      shared between domains. An [Atomic] first-violation short-circuit
      stops claiming.

    {b Determinism contract.} Work items are claimed in source order and
    numbered; once a violation is found, no further items are handed out
    (unclaimed items all have higher indexes), in-flight items finish,
    and the lowest-index violation wins. Hence both backends return the
    same [satisfied]/witness answer, and the reported work counts (items
    pulled, worlds evaluated — clamped to the winning index) coincide.
    Only the {e order} of [on_item]/[on_evaluated] callbacks is
    backend-dependent: the parallel backend serializes them under a lock
    but interleaves completions. *)

module Work_source : sig
  type t = unit -> int list option
  (** A stateful puller of candidate transaction sets. Pulls happen
      under the engine lock in the parallel backend, so a source may
      safely touch the primary store (e.g. Covers tests). *)

  val of_list : int list list -> t

  val of_cliques :
    ?interrupt:(unit -> bool) -> Bcgraph.Undirected.t -> back:int array -> t
  (** Stream the graph's maximal cliques ({!Bcgraph.Bron_kerbosch.generator}),
      mapping node ids through [back] (as produced by
      {!Bcgraph.Undirected.induced}).
      [interrupt] is forwarded to the generator: when it fires (e.g. a
      {!Budget} deadline between yields), the stream ends early. *)
end

(** Cooperative cancellation and resource budgets. A budget bounds one
    engine run by wall-clock deadline ({!Monotime}) and/or worlds
    evaluated. It is checked on the claim path — the single point both
    backends funnel work through — and its
    {!Budget.interrupt} hook is polled inside
    {!Bcgraph.Bron_kerbosch.generator} branching steps, so a deadline
    also cuts an exponentially long gap between two clique yields.
    Enforcement is cooperative and item-granular: an evaluation in
    flight is never interrupted, so [max_worlds] can be overshot by up
    to [jobs - 1] in-flight items. A budget is single-run: tripping is
    sticky (the first reason wins) and is reported in
    {!type-report.exhausted}. {!Budget.unlimited} never trips and may be
    shared freely. *)
module Budget : sig
  type reason = Deadline | Max_worlds

  type t

  val unlimited : t

  val create : ?timeout_s:float -> ?max_worlds:int -> unit -> t
  (** [timeout_s] is a wall-clock allowance relative to {e now}
      (monotonic clock), converted to an absolute deadline immediately —
      create the budget right before the run it bounds. Raises
      [Invalid_argument] on a NaN or negative timeout (a NaN deadline
      would never pass, yet the budget would not be {!is_unlimited})
      and on a negative [max_worlds]. *)

  val is_unlimited : t -> bool

  val check : t -> evaluated:int -> reason option
  (** Trip (sticky) if a limit is hit; return the tripped reason. Called
      by the engine on the claim path, under the engine lock in the
      parallel backend. *)

  val interrupt : t -> unit -> bool
  (** The between-yields cancellation hook for clique generators: [true]
      once the budget has tripped (only the deadline can trip here). *)

  val tripped : t -> reason option
  val reason_name : reason -> string
  val pp_reason : Format.formatter -> reason -> unit
end

type violation = {
  world : int list;  (** Transactions of the violating possible world. *)
  witness : (string * Relational.Value.t) list option;
}

type evaluation = { world : int list; violation : violation option }

type report = {
  hit : violation option;  (** Lowest-index violation, if any. *)
  pulled : int;  (** Work items handed out (≤ winning index + 1). *)
  evaluated : int;  (** Worlds evaluated (counted up to the winner). *)
  exhausted : Budget.reason option;
      (** The run stopped early because its budget tripped. [hit] takes
          precedence: a violation found before exhaustion is a sound
          counterexample; absence of a violation with
          [exhausted = Some _] means the enumeration was incomplete and
          the question is {e unknown}. *)
}

val run :
  ?obs:Obs.t ->
  ?budget:Budget.t ->
  ?stop_on_hit:bool ->
  jobs:int ->
  store:Tagged_store.t ->
  replicate:(unit -> Tagged_store.t) ->
  ?release:(Tagged_store.t -> unit) ->
  source:Work_source.t ->
  eval:(unit -> Tagged_store.t -> int list -> evaluation) ->
  on_item:(int list -> unit) ->
  on_evaluated:(evaluation -> unit) ->
  unit ->
  report
(** Drain [source], evaluating each item with [eval] on [store]
    sequentially, or on each worker's one replica in parallel, stopping
    at the first violation per the determinism contract. [eval] is a {e factory}: each worker calls it
    once at start-up and evaluates every item it claims with the
    returned function, so an evaluator may carry per-worker mutable
    state (e.g. {!Inc_eval}'s world caches) without cross-domain
    sharing; the factory itself must be safe to call from any worker
    domain. The returned evaluator must use only the store it is
    handed.
    [obs] (default {!Obs.null}) records per-worker spans ([worker],
    [claim], [join], cat ["engine"]) and per-item evaluation times (the
    ["engine.busy_s"] histogram) — each worker domain writes to its own
    buffer, so instrumentation adds no cross-domain contention.
    [replicate] is called lazily, at most once per parallel worker and
    under the engine lock (it reads the primary store); every store it
    returns is passed to [release] after the workers have joined (the
    default [release] drops it). The sequential backend never calls
    either. [on_item] fires when an item is claimed, [on_evaluated]
    after it is evaluated.

    [budget] (default {!Budget.unlimited}) bounds the run; when it trips,
    no further items are claimed, in-flight items finish, and the report
    carries [exhausted = Some reason].

    [stop_on_hit] (default [true]) selects whether a recorded violation
    stops further claiming. NaiveDCSat, brute force and OptDCSat without
    a verdict cache stop at the first violation; OptDCSat with
    [Dcsat.comp_hooks] passes [stop_on_hit:false], so the run drains
    the whole source regardless of violations and every dirty component
    gets (re)solved and cached in one pass. A drained run's report
    carries the {e lowest-claim-index} violation with unclamped full
    counts. Budget exhaustion still stops claiming either way.

    {b Exception safety.} If [eval] (or [replicate]) raises in
    any backend, the exception propagates to the caller: the parallel
    backend records the first failure, stops claiming, waits for every
    worker to finish, releases all borrowed replicas through [release],
    and re-raises with the original backtrace after the join — the
    helper-domain pool stays reusable for subsequent runs. *)
