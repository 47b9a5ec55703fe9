(** The solver engine: the one enumeration loop behind NaiveDCSat,
    OptDCSat and brute force.

    Its work items are {e groups}: disjoint sets of transactions, pulled
    from a {!Work_source} in index order. The worker that claims a group
    walks the group's candidate stream one world at a time — for each
    candidate it materializes and evaluates a world with [eval] — and
    stops at the group's first violation. NaiveDCSat runs one group (all
    of [T], its clique stream), OptDCSat one group per covered
    component, brute force one group whose stream is every possible
    world.

    [jobs] workers share the groups: the calling domain plus [jobs - 1]
    helpers from a persistent pool of parked domains (spawning a domain
    costs milliseconds, often more than a whole solve, so helpers are
    reused across runs and sleep on a condition variable in between).
    The only worker of a [jobs = 1] run evaluates on the primary store;
    with more, each worker borrows one full replica via [replicate] when
    it claims its first group and hands it back through [release] after
    the join — no store is ever shared between domains. A group is never
    split between workers: spreading one clique stream over workers did
    not pay (EXPERIMENTS.md, "Where parallelism pays").

    {b Determinism contract.} Groups are claimed in source order and
    numbered; once a violation is recorded, no further group is claimed
    (unclaimed groups all have higher indexes), a group whose index is
    above a recorded violation's is dropped, and the lowest-index
    violation wins. Work is counted only over the groups up to the
    winner, so the returned answer and every count coincide at every
    [jobs]. Only the [on_world] calls depend on [jobs]: their order
    across groups, and calls for worlds of groups past the winner. *)

module Work_source : sig
  type 'a t = unit -> 'a option
  (** A stateful puller: of groups (pulled under the engine lock, so a
      group source may safely touch the primary store, e.g. Covers
      tests), or of a group's candidate worlds (pulled by the worker
      that claimed the group). *)

  val of_list : 'a list -> 'a t

  val of_cliques :
    ?interrupt:(unit -> bool) ->
    Bcgraph.Undirected.t ->
    back:int array ->
    int list t
  (** Stream the graph's maximal cliques ({!Bcgraph.Bron_kerbosch.generator}),
      mapping node ids through [back] (as produced by
      {!Bcgraph.Undirected.induced}).
      [interrupt] is forwarded to the generator: when it fires (e.g. a
      {!Budget} deadline between yields), the stream ends early. *)
end

(** Cooperative cancellation and resource budgets. A budget bounds one
    engine run by wall-clock deadline ({!Monotime}) and/or worlds
    evaluated. The engine checks it before every claim and before every
    world, at the cumulative world count, and hands its
    {!Budget.interrupt} hook to each group's candidate stream, where
    {!Bcgraph.Bron_kerbosch.generator} polls it between branching steps,
    so a deadline also cuts an exponentially long gap between two clique
    yields. Enforcement is cooperative: an evaluation in flight is never
    interrupted, so [max_worlds] can be overshot by up to [jobs - 1]
    in-flight worlds. A budget is single-run: tripping is sticky (the
    first reason wins) and is reported in {!type-report.exhausted}.
    {!Budget.unlimited} never trips and may be shared freely. *)
module Budget : sig
  type reason = Deadline | Max_worlds

  type t

  val unlimited : t

  val create : ?timeout_s:float -> ?max_worlds:int -> unit -> t
  (** [timeout_s] is a wall-clock allowance relative to {e now}
      (monotonic clock), converted to an absolute deadline immediately —
      create the budget right before the run it bounds. Raises
      [Invalid_argument] on a timeout that is NaN, infinite or negative
      (a NaN or infinite deadline would never pass, yet the budget would
      not be {!is_unlimited}) and on a negative [max_worlds]. *)

  val is_unlimited : t -> bool

  val check : t -> evaluated:int -> reason option
  (** Trip (sticky) if a limit is hit; return the tripped reason. Called
      by the engine under its lock. *)

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

type verdict =
  | Satisfied  (** The group's stream ended without a violation. *)
  | Violated of violation  (** The group's first violating world. *)
  | Unknown of Budget.reason  (** The budget cut the group short. *)

type 'g report = {
  hit : violation option;  (** Lowest-index violation, if any. *)
  evaluated : int;  (** Worlds evaluated in the groups up to the winner. *)
  exhausted : Budget.reason option;
      (** The run stopped early because its budget tripped. [hit] takes
          precedence: a violation found before exhaustion is a sound
          counterexample; absence of a violation with
          [exhausted = Some _] means the enumeration was incomplete and
          the question is {e unknown}. *)
  groups : ('g * verdict) list;
      (** Every claimed group up to the winner (all claimed groups when
          there is none), in ascending index order, with its verdict. *)
}

val run :
  ?obs:Obs.t ->
  ?budget:Budget.t ->
  ?on_world:(int list -> evaluation -> unit) ->
  jobs:int ->
  store:Tagged_store.t ->
  replicate:(unit -> Tagged_store.t) ->
  ?release:(Tagged_store.t -> unit) ->
  groups:'g Work_source.t ->
  worlds:
    (?interrupt:(unit -> bool) ->
    Tagged_store.t ->
    'g ->
    int list Work_source.t) ->
  eval:(unit -> Tagged_store.t -> int list -> evaluation) ->
  unit ->
  'g report
(** Claim [groups] until the source ends, a violation is recorded or
    the budget trips. For each claimed group [g], its worker opens
    [worlds ?interrupt store g] on its own store (the budget's deadline
    hook as [interrupt], unless the budget is unlimited) and evaluates
    each candidate with [eval] on that store, up to the group's first
    violation. [eval] is a {e factory}: each worker calls it once at
    start-up, so an evaluator may carry per-worker mutable state (e.g.
    {!Inc_eval}'s world caches) without cross-domain sharing; the
    factory itself must be safe to call from any worker domain, and the
    returned evaluator must use only the store it is handed.

    [on_world candidate evaluation] (default: nothing) is called under
    the engine lock after each world, so callers need no lock of their
    own. At [jobs = 1] the calls follow the enumeration exactly.

    [obs] (default {!Obs.null}) records per-worker spans ([worker],
    [claim], [join], cat ["engine"]) and per-world evaluation times (the
    ["engine.busy_s"] histogram) — each worker domain writes to its own
    buffer, so instrumentation adds no cross-domain contention.
    [replicate] is called only when [jobs > 1], at most once per worker
    and under the engine lock (it reads the primary store); every store
    it returns is passed to [release] after the workers have joined (the
    default [release] drops it).

    [budget] (default {!Budget.unlimited}) bounds the run; when it
    trips, the group in hand ends [Unknown], no further group is
    claimed, and the report carries [exhausted = Some reason]. At
    [jobs = 1] a [max_worlds] budget of [k] cuts the unbudgeted run
    right after its [k]-th world.

    {b Exception safety.} If [eval], [worlds], [groups] or [replicate]
    raises, the exception propagates to the caller: the run records the
    first failure, stops claiming, waits for every worker to finish,
    releases all borrowed replicas through [release], and re-raises with
    the original backtrace after the join — the helper-domain pool stays
    reusable for subsequent runs. *)
