(** Denial constraint satisfaction (Sections 5–6): decide whether
    [D |= ¬q], i.e. whether the denial constraint's underlying query is
    false over {e every} possible world.

    Three solvers:

    - {!brute_force} — exact for {e any} query class, by exhaustive
      possible-world enumeration (exponential; small pending sets only).
      The reference implementation the practical algorithms are tested
      against.
    - {!naive} — [NaiveDCSat] (Fig. 4): sound and complete for
      {e monotone} denial constraints; iterates over the maximal cliques
      of the fd-transaction graph and evaluates [q] over the maximal
      world of each.
    - {!opt} — [OptDCSat] (Fig. 5): additionally requires the query to be
      {e connected}; splits the pending set into connected components of
      the ind-q-transaction graph, skips components that cannot cover the
      query's constants, and runs the clique enumeration per component.

    Both practical solvers apply the paper's pre-check first: if [q] is
    already false over [R ∪ T] (all transactions visible), monotonicity
    makes it false over every possible world, and the constraint is
    satisfied without any enumeration.

    All solvers run the one enumeration loop of the {!Engine}: groups of
    transactions, each walked one candidate world at a time up to its
    first violation. NaiveDCSat is one group (all of [T]), OptDCSat one
    group per covered component, brute force one group of every possible
    world. Only OptDCSat has several groups to share: with [jobs:n],
    [n > 1], up to [n] OCaml domains share its covered components, each
    on its own {!Tagged_store.view} of the session's store, with
    identical results and work counts (see the engine's determinism
    contract); NaiveDCSat and brute force always walk their one group on
    the session's store. Every solver restores the session store's
    active world on exit, whatever the outcome.

    Every solver accepts an {!Engine.Budget.t}: when the budget trips
    before the enumeration completes — and no violation was found first —
    the outcome's {!type-verdict} is [Unknown] rather than a claim either
    way. A violation found before exhaustion is always reported as
    [Violated]: a counterexample from an incomplete enumeration is still
    sound. Budgets are single-run; create a fresh one per solve. *)

type stats = {
  worlds_checked : int;  (** Maximal worlds materialized and evaluated. *)
  cliques_enumerated : int;
  components_total : int;  (** OptDCSat only. *)
  components_covered : int;  (** Components passing the Covers test. *)
  precheck_decided : bool;  (** Answer came from the [R ∪ T] pre-check. *)
  runtime : float;  (** Wall-clock seconds. *)
}

type verdict =
  | Satisfied  (** Every possible world was covered; [D |= ¬q]. *)
  | Violated of {
      world : int list;  (** Transactions of a violating possible world. *)
      witness : (string * Relational.Value.t) list option;
          (** A satisfying assignment over that world (Boolean queries). *)
    }
  | Unknown of Engine.Budget.reason
      (** The budget tripped before the enumeration completed and no
          violation had been found: the unexplored suffix could hide
          one, so neither [Satisfied] nor [Violated] would be sound. *)

type outcome = {
  satisfied : bool;
      (** [D |= ¬q] is {e known} to hold: [verdict = Satisfied]. False
          for both [Violated] and [Unknown] — consult [verdict] to tell
          a refuted constraint from an exhausted budget. *)
  witness_world : int list option;
      (** Transactions of a violating possible world, when unsatisfied. *)
  witness : (string * Relational.Value.t) list option;
      (** A satisfying assignment over that world (Boolean queries). *)
  verdict : verdict;
  stats : stats;
}

type refusal =
  [ `Not_monotone of string
    (** The solver requires a monotone denial constraint. *)
  | `Not_connected
    (** OptDCSat requires a connected conjunctive query. *) ]

type event =
  | Precheck_decided  (** q false over [R ∪ T]: satisfied immediately. *)
  | Components_found of int  (** OptDCSat: component count. *)
  | Component_skipped of int list  (** Failed the Covers test. *)
  | Component_entered of int list
  | Clique_found of int list
  | World_evaluated of int list * bool  (** Included txs, q's value. *)
(** Trace events, in execution order; pass [on_event] to {!naive}/{!opt}
    to observe the solver's decisions (see {!Explain}). *)

type comp_verdict =
  | Comp_satisfied
      (** Fully enumerated with no violation, or failed the Covers
          test: no world of this component can violate [q]. *)
  | Comp_violated of {
      world : int list;
      witness : (string * Relational.Value.t) list option;
    }
      (** The component's first violating maximal world in serial
          enumeration order, with its witness. *)

type comp_hooks = {
  comp_clean : index:int -> int list -> comp_verdict option;
      (** [comp_clean ~index members] — [Some v] when the caller {e
          knows} this component's verdict is [v] with unchanged content
          (a verdict-cache hit): [v] stands in for a fresh solve. The
          claim must be sound — a component's verdict depends only on
          its members' rows, the confirmed state and the query
          (Proposition 2), so an unchanged content signature suffices
          for [Comp_satisfied]; replaying a [Comp_violated] additionally
          requires that the {e database} has not changed at all since
          the verdict was solved — its world and witness name
          transaction ids, and the witness is canonical only relative to
          the whole database (plan choice and row order are global, so
          even a mutation outside the component can shift it). [None]
          marks the component dirty: it is solved. Probed on the claim
          path, in component index order, only until the claims stop. *)
  comp_solved : index:int -> int list -> comp_verdict -> unit;
      (** Fired for each component decided by this solve below the
          winning one, and for the winner itself when it was solved —
          Covers-skipped components as [Comp_satisfied] — in ascending
          component index, after the enumeration ends, so the caller
          can (re)fill its cache. Cache hits, components past the winner
          and budget-cut ones get no callback. *)
}
(** The per-component verdict-cache protocol of {!opt} (the live
    layer's warm-check fast path). See [?comp_hooks] in {!opt}. *)

val pp_refusal : Format.formatter -> refusal -> unit

val verdict_name : verdict -> string
(** ["SATISFIED"], ["UNSATISFIED"], or ["UNKNOWN (budget exhausted: …)"]. *)

type config = { precheck : bool; delta : bool }
(** The solver's oracle switches, both on in {!default}. [precheck] runs
    the [R ∪ T] pre-check before {!naive} and {!opt} enumerate
    ({!brute_force} never pre-checks). [delta] is the incremental
    evaluation layer ({!Inc_eval}: per-store world caches, replay,
    delta-seeded search); off, every world pays a full backtracking
    join. Verdicts and witnesses are bit-identical under every setting;
    only the work done differs. Tests use the other settings as
    oracles, benchmarks as baselines. *)

val default : config

val brute_force :
  ?jobs:int ->
  ?budget:Engine.Budget.t ->
  ?config:config ->
  Session.t ->
  Bcquery.Query.t ->
  outcome
(** Raises [Invalid_argument] beyond 24 pending transactions. [jobs] is
    ignored, as in {!naive}. *)

val naive :
  ?jobs:int ->
  ?budget:Engine.Budget.t ->
  ?config:config ->
  ?on_event:(event -> unit) ->
  Session.t ->
  Bcquery.Query.t ->
  (outcome, refusal) result
(** [jobs] is accepted for a uniform interface and ignored: NaiveDCSat
    is one group, walked by one worker on the session's store: a second
    worker would only idle, and its idle domain still slowed Dense-18 by
    about a fifth on a 2-core host. [budget] (default
    {!Engine.Budget.unlimited}) bounds the enumeration; the pre-check is
    never budgeted (it is a single query evaluation). [config] defaults
    to {!default}. *)

val opt :
  ?jobs:int ->
  ?budget:Engine.Budget.t ->
  ?config:config ->
  ?on_event:(event -> unit) ->
  ?comp_hooks:comp_hooks ->
  Session.t ->
  Bcquery.Query.t ->
  (outcome, refusal) result
(** [jobs], [budget] and [config] as in {!naive}.

    Every covered component is one engine group: its worker enumerates
    the component's cliques in Bron–Kerbosch order and stops at the
    component's first violation. Components are claimed in index order;
    Covers runs lazily on the claim path, the budget is checked before
    each claim and before each world, at cumulative world counts, and no
    component is claimed after a trip or after a violation. The
    lowest-index violation wins, and the stats count only the
    components up to it, so they are identical at every [jobs]. At
    [jobs:1] a [max_worlds] budget of [k] cuts the unbudgeted run right
    after its [k]-th world.

    [comp_hooks] plugs a verdict cache into the same schedule:
    [comp_clean] is probed on the claim path in index order; a cached
    [Comp_satisfied] component is skipped, and a cached [Comp_violated]
    one ends the claims — it wins unless a lower-index component
    violates. Dirty components are solved exactly as without hooks, and
    [comp_solved] then reports every component decided up to the winner
    (see {!comp_hooks}). Verdict and witness are bit-identical with and
    without hooks: clean components cannot violate, and each
    component's own winner is its serial-order first. With [jobs > 1],
    [on_event] callbacks are serialized under the engine lock but
    unordered across components. *)

val pp_outcome : Format.formatter -> outcome -> unit
