(** One-stop entry point: dispatch a denial constraint to the cheapest
    sound procedure.

    Order of preference: a tractable PTIME special case when the
    constraint profile and query class admit one (Theorems 1–2); otherwise
    OptDCSat for connected monotone constraints; NaiveDCSat for monotone
    but disconnected ones; and the exact exponential enumeration as a last
    resort for non-monotone constraints over small pending sets. *)

type strategy =
  | Tractable of Tractable.case
  | Opt
  | Naive
  | Brute_force

val strategy_name : strategy -> string

val solve :
  ?jobs:int ->
  ?budget:Engine.Budget.t ->
  ?config:Dcsat.config ->
  ?on_event:(Dcsat.event -> unit) ->
  ?comp_hooks:Dcsat.comp_hooks ->
  Session.t ->
  Bcquery.Query.t ->
  (Dcsat.outcome * strategy, string) result
(** [Error] only when the constraint is non-monotone {e and} the pending
    set is too large for exhaustive enumeration (> 24 transactions).
    [jobs] (default 1, the calling domain alone) is OptDCSat's worker
    count: [jobs > 1] adds pooled helper domains, each evaluating on one
    session-pooled replica, that share its covered components (see
    {!Engine}); the Naive and brute-force paths walk their one group on
    one worker. [budget] bounds the enumerating paths; an exhausted
    budget yields [verdict = Unknown] in the
    outcome. The tractable procedures are PTIME and always run inline,
    unbudgeted — they terminate promptly by construction. [config] (see
    {!Dcsat.config}) reaches the same paths; [on_event] observes the
    Naive/Opt paths (see {!Explain}). [comp_hooks] plugs a
    per-component verdict cache into OptDCSat (see
    {!Dcsat.opt}); the tractable, naive and brute-force strategies
    ignore it — only the component-factorized algorithm has cacheable
    per-component verdicts. *)
