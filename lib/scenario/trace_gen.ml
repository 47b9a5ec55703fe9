module Core = Bccore

type choice =
  | Pay of { from_ : int; to_ : int; amount : int; fee : int }
  | Double of { of_ : int; to_ : int; fee : int }
  | Bump of { of_ : int; add_fee : int }
  | Cancel of { of_ : int; fee : int }
  | Mine of int
  | Slot
  | Split
  | Join

type script = choice list

let parties = [| "gen-a"; "gen-b"; "gen-c" |]

let party i = parties.(abs i mod Array.length parties)
let amount_of a = 500 + (abs a mod 30_000)
let fee_of f = 100 + (abs f mod 900)

(* Every submission is wrapped as [Attempt] and every reference resolves
   modulo the submissions that actually precede it, so removing or
   reordering choices — which is all the shrinker does — can never make
   the trace ill-formed, only change what it observes. *)
let assemble (script : script) : Trace.t =
  (* (tag, author), newest first. *)
  let made = ref [] in
  let count = ref 0 in
  let next_tag () =
    let tag = Printf.sprintf "g%d" !count in
    incr count;
    tag
  in
  let pick of_ = List.nth !made (abs of_ mod List.length !made) in
  let rec entry_of = function
    | Pay { from_; to_; amount; fee } ->
        let tag = next_tag () and author = party from_ in
        made := (tag, author) :: !made;
        Trace.attempted
          (Trace.pay ~tag ~from_:author ~to_:(Step.To_party (party to_))
             ~amount:(amount_of amount) ~fee:(fee_of fee) ())
    | Double { of_; to_; fee } when !made <> [] ->
        let of_tag, author = pick of_ in
        let tag = next_tag () in
        made := (tag, author) :: !made;
        Trace.attempted
          (Trace.double_spend ~tag ~of_:of_tag ~by:author
             ~to_:(Step.To_party (party to_)) ~fee:(fee_of fee) ())
    | Bump { of_; add_fee } when !made <> [] ->
        let of_tag, author = pick of_ in
        let tag = next_tag () in
        made := (tag, author) :: !made;
        Trace.attempted
          (Trace.bump ~tag ~of_:of_tag ~by:author
             ~add_fee:(200 + (abs add_fee mod 2_000)) ())
    | Cancel { of_; fee } when !made <> [] ->
        let of_tag, author = pick of_ in
        let tag = next_tag () in
        made := (tag, author) :: !made;
        Trace.attempted
          (Trace.cancel ~tag ~of_:of_tag ~by:author ~fee:(fee_of fee) ())
    | Double { of_; to_; fee } -> entry_of (Pay { from_ = of_; to_; amount = 0; fee })
    | Bump { of_; add_fee } ->
        entry_of (Pay { from_ = of_; to_ = of_; amount = 0; fee = add_fee })
    | Cancel { of_; fee } -> entry_of (Pay { from_ = of_; to_ = of_; amount = 0; fee })
    | Mine p -> Trace.mine ~at:(abs p mod 2) ()
    | Slot -> Trace.slots 1
    | Split -> Trace.partition [ 1 ]
    | Join -> Trace.heal ()
  in
  let entries = List.map entry_of script in
  let funding =
    Array.to_list parties
    |> List.concat_map (fun p ->
           [ Trace.Fund_party (p, 60_000); Trace.Fund_party (p, 60_000) ])
  in
  Trace.make ~peers:2 ~observe:0 ~funding
    (entries @ [ Trace.heal (); Trace.deliver () ])

let gen : script QCheck.Gen.t =
  let open QCheck.Gen in
  let choice =
    frequency
      [
        ( 5,
          map
            (fun (from_, to_, amount, fee) -> Pay { from_; to_; amount; fee })
            (quad (int_bound 20) (int_bound 20) (int_bound 30_000)
               (int_bound 900)) );
        ( 2,
          map
            (fun (of_, to_, fee) -> Double { of_; to_; fee })
            (triple (int_bound 20) (int_bound 20) (int_bound 900)) );
        ( 1,
          map
            (fun (of_, add_fee) -> Bump { of_; add_fee })
            (pair (int_bound 20) (int_bound 2_000)) );
        ( 1,
          map
            (fun (of_, fee) -> Cancel { of_; fee })
            (pair (int_bound 20) (int_bound 900)) );
        (3, map (fun p -> Mine p) (int_bound 3));
        (1, return Slot);
        (1, return Split);
        (1, return Join);
      ]
  in
  list_size (int_range 1 12) choice

let shrink_choice (c : choice) yield =
  match c with
  | Pay { from_; to_; amount; fee } ->
      QCheck.Shrink.int amount (fun amount ->
          yield (Pay { from_; to_; amount; fee }));
      QCheck.Shrink.int fee (fun fee -> yield (Pay { from_; to_; amount; fee }))
  | Double { of_; to_; fee } ->
      QCheck.Shrink.int fee (fun fee -> yield (Double { of_; to_; fee }))
  | Bump { of_; add_fee } ->
      QCheck.Shrink.int add_fee (fun add_fee -> yield (Bump { of_; add_fee }))
  | Cancel { of_; fee } ->
      QCheck.Shrink.int fee (fun fee -> yield (Cancel { of_; fee }))
  | Mine _ | Slot | Split | Join -> ()

let shrink : script QCheck.Shrink.t = QCheck.Shrink.list ~shrink:shrink_choice
let print script = Format.asprintf "%a" Trace.pp (assemble script)
let arbitrary = QCheck.make ~print ~shrink gen

(* The base funding already pays each party 120_000 at genesis, so the
   interesting margin is what the trace adds on top of it. *)
let threshold = 121_000

let verdict_class = function
  | Core.Dcsat.Satisfied -> "satisfied"
  | Core.Dcsat.Violated _ -> "violated"
  | Core.Dcsat.Unknown _ -> "unknown"

let differential ?jobs ?config script =
  match Compile.of_trace (assemble script) with
  | Error msg -> Error ("interpreter: " ^ msg)
  | Ok compiled -> (
      let query =
        Workload.Queries.qa ~x:(Compile.pk compiled parties.(0)) ~threshold
      in
      let db = Compile.db compiled in
      let auto =
        Core.Solver.solve ?jobs ?config (Core.Session.create db) query
      in
      match auto with
      | Error msg -> Error ("auto solver refused: " ^ msg)
      | Ok (auto_outcome, strategy) -> (
          match
            Core.Dcsat.brute_force ?jobs ?config (Core.Session.create db)
              query
          with
          | exception Invalid_argument msg ->
              Error ("brute force refused: " ^ msg)
          | brute ->
              let a = verdict_class auto_outcome.Core.Dcsat.verdict
              and b = verdict_class brute.Core.Dcsat.verdict in
              if String.equal a b then Ok ()
              else
                Error
                  (Printf.sprintf "%s (%s) disagrees with brute force (%s)"
                     (Core.Solver.strategy_name strategy)
                     a b)))
