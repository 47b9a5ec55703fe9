module Party = Party
module Step = Step
module Trace = Trace
module Tweak = Tweak
module Interp = Interp
module Compile = Compile
module Expect = Expect
module Trace_gen = Trace_gen
module Core = Bccore

type property = Compile.t -> (Bcquery.Query.t, string) result

type t = {
  name : string;
  description : string;
  trace : Trace.t;
  property : property;
  expect : Expect.verdict;
  max_worlds : int option;
}

type variant = {
  vname : string;
  vdescription : string;
  tweaks : Tweak.t list;
  vexpect : Expect.verdict;
  vmax_worlds : int option;
}

type family = { base : t; variants : variant list }

let variant ?max_worlds ~name ~description ~expect tweaks =
  {
    vname = name;
    vdescription = description;
    tweaks;
    vexpect = expect;
    vmax_worlds = max_worlds;
  }

let apply_variant base v =
  {
    base with
    name = base.name ^ "/" ^ v.vname;
    description = v.vdescription;
    trace = Tweak.apply_all v.tweaks base.trace;
    expect = v.vexpect;
    max_worlds = v.vmax_worlds;
  }

let instances f = f.base :: List.map (apply_variant f.base) f.variants
let instance_count f = 1 + List.length f.variants

type engine = Auto | Naive | Opt | Brute

let engine_name = function
  | Auto -> "auto"
  | Naive -> "naive"
  | Opt -> "opt"
  | Brute -> "brute"

type solved = {
  compiled : Compile.t;
  query : Bcquery.Query.t;
  outcome : Core.Dcsat.outcome;
  strategy : string;
  check : (unit, string) result;
}

let compile t = Compile.of_trace t.trace

let solve_compiled ?(engine = Auto) ?jobs ?config ?timeout_s ?max_worlds t
    compiled =
  match t.property compiled with
  | Error msg -> Error ("property: " ^ msg)
  | Ok query -> (
      let session = Core.Session.create (Compile.db compiled) in
      let max_worlds =
        match max_worlds with Some _ as m -> m | None -> t.max_worlds
      in
      let budget = Core.Engine.Budget.create ?timeout_s ?max_worlds () in
      let refusal_to_string r =
        Format.asprintf "%a" Core.Dcsat.pp_refusal r
      in
      let result =
        match engine with
        | Auto ->
            Result.map
              (fun (o, s) -> (o, Core.Solver.strategy_name s))
              (Core.Solver.solve ?jobs ~budget ?config session query)
        | Naive ->
            Result.map
              (fun o -> (o, "NaiveDCSat"))
              (Result.map_error refusal_to_string
                 (Core.Dcsat.naive ?jobs ~budget ?config session query))
        | Opt ->
            Result.map
              (fun o -> (o, "OptDCSat"))
              (Result.map_error refusal_to_string
                 (Core.Dcsat.opt ?jobs ~budget ?config session query))
        | Brute -> (
            match
              Core.Dcsat.brute_force ?jobs ~budget ?config session query
            with
            | o -> Ok (o, "brute force")
            | exception Invalid_argument msg -> Error msg)
      in
      match result with
      | Error _ as e -> e
      | Ok (outcome, strategy) ->
          Ok
            {
              compiled;
              query;
              outcome;
              strategy;
              check =
                Expect.check compiled ~expected:t.expect
                  outcome.Core.Dcsat.verdict;
            })

let solve ?engine ?jobs ?config ?timeout_s ?max_worlds t =
  Result.bind (compile t)
    (solve_compiled ?engine ?jobs ?config ?timeout_s ?max_worlds t)
