module Q = Bcquery

type strategy =
  | Tractable of Tractable.case
  | Opt
  | Naive
  | Brute_force

let strategy_name = function
  | Tractable case -> "tractable: " ^ Tractable.case_name case
  | Opt -> "OptDCSat"
  | Naive -> "NaiveDCSat"
  | Brute_force -> "brute force"

let brute_limit = 24

(* One "solver.strategy.*" counter per dispatch outcome, so merged
   metrics show which algorithm answered each constraint. *)
let strategy_counter = function
  | Tractable _ -> "solver.strategy.tractable"
  | Opt -> "solver.strategy.opt"
  | Naive -> "solver.strategy.naive"
  | Brute_force -> "solver.strategy.brute_force"

let solve ?jobs ?budget ?config ?on_event ?comp_hooks session q =
  let obs = Session.obs session in
  let result =
    Obs.span obs ~cat:"solver" "solve" @@ fun () ->
    match Tractable.solve session q with
    | Some (outcome, case) -> Ok (outcome, Tractable case)
    | None -> (
        match
          Dcsat.opt ?jobs ?budget ?config ?on_event ?comp_hooks session q
        with
        | Ok outcome -> Ok (outcome, Opt)
        | Error `Not_connected -> (
            match Dcsat.naive ?jobs ?budget ?config ?on_event session q with
            | Ok outcome -> Ok (outcome, Naive)
            | Error refusal ->
                Error (Format.asprintf "%a" Dcsat.pp_refusal refusal))
        | Error (`Not_monotone _) ->
            let store = Session.store session in
            if Tagged_store.tx_count store > brute_limit then
              Error
                (Printf.sprintf
                   "constraint is not monotone and %d pending transactions \
                    exceed the exhaustive-enumeration limit (%d)"
                   (Tagged_store.tx_count store) brute_limit)
            else
              Ok
                (Dcsat.brute_force ?jobs ?budget ?config session q, Brute_force))
  in
  (match result with
  | Ok (_, strategy) when Obs.enabled obs ->
      Obs.add obs (strategy_counter strategy) 1
  | _ -> ());
  result
