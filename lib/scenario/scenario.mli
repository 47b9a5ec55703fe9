(** Entry point of the scenario DSL; re-exports the whole combinator
    stack so consumers write [Scenario.Trace.pay], [Scenario.solve], …

    A scenario: one honest multi-party trace, a denial constraint over
    its compiled [(R, I, T)] instance, and the verdict the solvers must
    return — plus {e variants}, each a list of {!Tweak}s turning the
    honest trace into an attack (or a defense) with its own expected
    verdict. A scenario family is the unit the attack library, the CLI,
    the differential test harness and the bench section all consume. *)

module Party = Party
module Step = Step
module Trace = Trace
module Tweak = Tweak
module Interp = Interp
module Compile = Compile
module Expect = Expect
module Trace_gen = Trace_gen

type property = Compile.t -> (Bcquery.Query.t, string) result
(** Built after the run, so realized txids and pks can be quoted as
    constants ({!Compile.txid} / {!Compile.pk}). *)

type t = {
  name : string;
  description : string;
  trace : Trace.t;
  property : property;
  expect : Expect.verdict;
  max_worlds : int option;
      (** Default world budget for solves of this instance — scenarios
          expecting [Unknown] carry the budget that starves them. *)
}

type variant = {
  vname : string;
  vdescription : string;
  tweaks : Tweak.t list;
  vexpect : Expect.verdict;
  vmax_worlds : int option;
}

type family = { base : t; variants : variant list }

val variant :
  ?max_worlds:int ->
  name:string ->
  description:string ->
  expect:Expect.verdict ->
  Tweak.t list ->
  variant

val instances : family -> t list
(** The base instance followed by each variant applied to it; variant
    instances are named [base/variant]. *)

val instance_count : family -> int

(** {2 Solving} *)

type engine = Auto | Naive | Opt | Brute

val engine_name : engine -> string

type solved = {
  compiled : Compile.t;
  query : Bcquery.Query.t;
  outcome : Bccore.Dcsat.outcome;
  strategy : string;  (** Which solver actually ran. *)
  check : (unit, string) result;  (** Expectation vs solver verdict. *)
}

val compile : t -> (Compile.t, string) result
(** Run the trace and encode the observation peer. *)

val solve_compiled :
  ?engine:engine ->
  ?jobs:int ->
  ?config:Bccore.Dcsat.config ->
  ?timeout_s:float ->
  ?max_worlds:int ->
  t ->
  Compile.t ->
  (solved, string) result
(** Solve the already-compiled instance under a fresh session.
    [max_worlds] (or, unset, the scenario's own) and [timeout_s] bound
    the solve with a fresh budget; [config] is the solver's
    {!Bccore.Dcsat.config}. [Error] on an unparseable property or a
    solver refusal. *)

val solve :
  ?engine:engine ->
  ?jobs:int ->
  ?config:Bccore.Dcsat.config ->
  ?timeout_s:float ->
  ?max_worlds:int ->
  t ->
  (solved, string) result
(** {!compile} + {!solve_compiled}. *)
