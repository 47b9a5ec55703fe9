(* bcdb-shell: an interactive session over a blockchain database.

   Load (or generate) a database once, then iterate: issue hypothetical
   transactions, check denial constraints, inspect possible worlds,
   derive contradictions, commit transactions into the state, save.
   Type 'help' inside the shell for the command list. Non-interactive
   use: pipe a script into stdin, e.g.

     printf 'paper\ncheck q() :- TxOut(t, s, "U8Pk", a).\nquit\n' \
       | dune exec bin/bcdb_shell.exe
*)

module R = Relational
module Q = Bcquery
module Core = Bccore
module W = Workload

(* The loaded database, behind the one mutation path every front end
   shares: issue, contradict and commit are [Live] events. *)
let live : Core.Live.t option ref = ref None

let with_live f =
  match !live with
  | None -> print_endline "no database loaded (try 'paper', 'gen' or 'load FILE')"
  | Some l -> f l

let install db =
  let l = Core.Live.create db in
  live := Some l;
  Format.printf "%a@." Core.Bcdb.pp_summary (Core.Live.db l)

let labels (db : Core.Bcdb.t) i = db.Core.Bcdb.pending.(i).Core.Pending.label

(* A pending transaction named by its label or by its id. *)
let label_id l name =
  match Core.Live.find l name with
  | Some i -> Some i
  | None -> (
      match int_of_string_opt name with
      | Some i when i >= 0 && i < Core.Live.pending_count l -> Some i
      | _ -> None)

let help () =
  print_string
    {|commands:
  paper                     load the paper's running example (Figure 2)
  gen PRESET [C]            generate small|mid|large with C contradictions
  load FILE                 load a .bcdb file
  save FILE                 save the current database
  show                      summary + pending transactions
  worlds                    enumerate possible worlds (small pending sets)
  maximal                   enumerate the maximal worlds
  check QUERY               decide a denial constraint (auto strategy)
  explain QUERY             ... with complexity class and solver trace
  answers V1,V2 | QUERY     certain/uncertain answers for output variables
  likelihood P QUERY        P(violated) under uniform inclusion probability
  issue LABEL | ROW; ROW    add a pending transaction, e.g.
                              issue T9 | TxOut("9", 1, "U9Pk", 2.0)
  dryrun QUERY | ROW; ROW   would issuing these rows keep QUERY satisfied?
  contradict TX             derive a transaction contradicting pending TX
  commit TX                 append pending TX to the current state
  complexity QUERY          just the complexity class
  help                      this text
  quit / exit               leave
|}

let parse_query l text =
  Q.Parser.parse ~catalog:(Core.Bcdb.catalog (Core.Live.db l)) (String.trim text)

let parse_rows l text =
  Core.Bcdb_file.parse_rows (Core.Bcdb.catalog (Core.Live.db l)) text

let cmd_show l =
  let db = Core.Live.db l in
  Format.printf "%a@." Core.Bcdb.pp_summary db;
  Array.iter
    (fun (tx : Core.Pending.t) ->
      Format.printf "  %a@." Core.Pending.pp tx)
    db.Core.Bcdb.pending

let cmd_worlds l =
  let db = Core.Live.db l in
  let store = Core.Tagged_store.create db in
  if Core.Tagged_store.tx_count store > 16 then
    print_endline "too many pending transactions to enumerate (max 16 here)"
  else
    Core.Poss.enumerate store (fun w ->
        let names = List.map (labels db) (Bcgraph.Bitset.to_list w) in
        Format.printf "R%s@."
          (match names with [] -> "" | _ -> " + " ^ String.concat " + " names);
        `Continue)

let cmd_maximal l =
  List.iter
    (fun ids ->
      Format.printf "R + {%s}@."
        (String.concat ", " (List.map (labels (Core.Live.db l)) ids)))
    (Core.Maximal_worlds.list (Core.Live.session l))

let cmd_check l text =
  match parse_query l text with
  | Error msg -> print_endline msg
  | Ok q -> (
      match Core.Live.check l q with
      | Ok (o, strategy) ->
          Format.printf "%s (%s, %.4fs)@."
            (if o.Core.Dcsat.satisfied then "SATISFIED in every world"
             else "VIOLATED in some world")
            (Core.Solver.strategy_name strategy)
            o.Core.Dcsat.stats.Core.Dcsat.runtime;
          Option.iter
            (fun ids ->
              Format.printf "witness world: R + {%s}@."
                (String.concat ", " (List.map (labels (Core.Live.db l)) ids)))
            o.Core.Dcsat.witness_world
      | Error msg -> print_endline msg)

let cmd_explain l text =
  match parse_query l text with
  | Error msg -> print_endline msg
  | Ok q -> (
      match Core.Explain.run (Core.Live.session l) q with
      | Ok report -> print_endline (Core.Explain.to_string (Core.Live.db l) report)
      | Error msg -> print_endline msg)

let cmd_complexity l text =
  match parse_query l text with
  | Error msg -> print_endline msg
  | Ok q ->
      print_endline
        (Core.Complexity.verdict_string
           (Core.Complexity.classify (Core.Live.db l) q))

let cmd_answers l spec =
  match String.index_opt spec '|' with
  | None -> print_endline "usage: answers V1,V2 | q() :- ..."
  | Some i -> (
      let vars =
        String.sub spec 0 i |> String.split_on_char ','
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let qtext = String.sub spec (i + 1) (String.length spec - i - 1) in
      match parse_query l qtext with
      | Error msg -> print_endline msg
      | Ok (Q.Query.Aggregate _) -> print_endline "need a boolean query body"
      | Ok (Q.Query.Boolean body) -> (
          let session = Core.Live.session l in
          match Core.Answers.certain session body ~vars with
          | Error msg -> print_endline msg
          | Ok certain -> (
              Format.printf "certain:@.";
              List.iter (fun t -> Format.printf "  %a@." R.Tuple.pp t) certain;
              match Core.Answers.uncertain session body ~vars with
              | Error msg -> print_endline msg
              | Ok uncertain ->
                  Format.printf "uncertain (future-dependent):@.";
                  List.iter
                    (fun t -> Format.printf "  %a@." R.Tuple.pp t)
                    uncertain)))

let cmd_likelihood l args =
  match String.index_opt args ' ' with
  | None -> print_endline "usage: likelihood P q() :- ..."
  | Some i -> (
      let p = float_of_string_opt (String.sub args 0 i) in
      let qtext = String.sub args (i + 1) (String.length args - i - 1) in
      match (p, parse_query l qtext) with
      | None, _ -> print_endline "bad probability"
      | _, Error msg -> print_endline msg
      | Some p, Ok q ->
          let session = Core.Live.session l in
          let model = Core.Likelihood.uniform p in
          let est =
            Core.Likelihood.estimate_violation_probability ~samples:2000
              session model q
          in
          Format.printf "P(violated) ≈ %.4f (± %.4f)@."
            est.Core.Likelihood.probability est.Core.Likelihood.std_error;
          if Core.Live.pending_count l <= 16 then
            Format.printf "exact: %.4f@."
              (Core.Likelihood.exact_violation_probability session model q))

let cmd_issue l spec =
  match String.index_opt spec '|' with
  | None -> print_endline "usage: issue LABEL | Row(...); Row(...)"
  | Some i -> (
      let label = String.trim (String.sub spec 0 i) in
      let rows_text = String.sub spec (i + 1) (String.length spec - i - 1) in
      let label = if label = "" then None else Some label in
      match Result.bind (parse_rows l rows_text) (Core.Live.try_add l ?label) with
      | Error msg -> print_endline msg
      | Ok () ->
          Format.printf "issued; %d pending transactions@."
            (Core.Live.pending_count l))

let cmd_dryrun l spec =
  match String.index_opt spec '|' with
  | None -> print_endline "usage: dryrun QUERY | Row(...); Row(...)"
  | Some i -> (
      let qtext = String.sub spec 0 i in
      let rows_text = String.sub spec (i + 1) (String.length spec - i - 1) in
      match (parse_query l qtext, parse_rows l rows_text) with
      | Error msg, _ | _, Error msg -> print_endline msg
      | Ok q, Ok rows -> (
          match Core.Dry_run.safe_to_issue (Core.Live.session l) rows [ q ] with
          | Ok (true, _) ->
              print_endline "SAFE: the constraint stays satisfied"
          | Ok (false, outcomes) ->
              print_endline "UNSAFE: issuing this could violate the constraint";
              List.iter
                (fun ((_ : Q.Query.t), (o : Core.Dcsat.outcome)) ->
                  Option.iter
                    (fun ids ->
                      Format.printf "  witness: pending ids {%s}@."
                        (String.concat ", " (List.map string_of_int ids)))
                    o.Core.Dcsat.witness_world)
                outcomes
          | Error msg -> print_endline msg))

let cmd_contradict l name =
  match label_id l name with
  | None -> print_endline "unknown transaction"
  | Some id -> (
      match Core.Contradict.derive (Core.Live.session l) id with
      | Error msg -> print_endline msg
      | Ok rows -> (
          let label = labels (Core.Live.db l) id in
          Format.printf "contradicting transaction for %s:@." label;
          List.iter
            (fun (rel, t) -> Format.printf "  %s%a@." rel R.Tuple.pp t)
            rows;
          (* T1', then T1'', ... when T1' is taken. *)
          let rec primed label =
            if Option.is_some (Core.Live.find l label) then primed (label ^ "'")
            else label
          in
          match Core.Live.try_add l ~label:(primed (label ^ "'")) rows with
          | Ok () -> print_endline "(issued as a pending transaction)"
          | Error msg -> print_endline msg))

let cmd_commit l name =
  match label_id l name with
  | None -> print_endline "unknown transaction"
  | Some id -> (
      match Core.Live.confirm l (labels (Core.Live.db l) id) with
      | Ok () ->
          Format.printf "committed; %d pending remain@."
            (Core.Live.pending_count l)
      | Error msg -> print_endline msg)

let cmd_gen args =
  let usage = "usage: gen small|mid|large [contradictions]" in
  let parsed =
    match String.split_on_char ' ' args |> List.filter (fun s -> s <> "") with
    | [] -> Ok (W.Datasets.Mid, W.Datasets.default_contradictions)
    | [ p ] ->
        Result.map
          (fun p -> (p, W.Datasets.default_contradictions))
          (W.Datasets.preset_of_string p)
    | [ p; c ] -> (
        match (W.Datasets.preset_of_string p, int_of_string_opt c) with
        | Error msg, _ -> Error msg
        | Ok p, Some c when c >= 0 -> Ok (p, c)
        | Ok _, _ -> Error (Printf.sprintf "bad contradictions %S; %s" c usage))
    | _ -> Error usage
  in
  match parsed with
  | Error msg -> print_endline msg
  | Ok (preset, contradictions) ->
      print_endline "generating...";
      let sim = W.Generator.generate (W.Datasets.params preset) in
      install (W.Generator.dataset sim ~contradictions ())

let dispatch line =
  let line = String.trim line in
  let cmd, rest =
    match String.index_opt line ' ' with
    | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    | None -> (line, "")
  in
  match cmd with
  | "" -> ()
  | "help" -> help ()
  | "paper" -> install (W.Datasets.paper ())
  | "gen" -> cmd_gen rest
  | "load" -> (
      match Core.Bcdb_file.load rest with
      | Ok db -> install db
      | Error msg -> print_endline msg)
  | "save" ->
      with_live (fun l ->
          match Core.Bcdb_file.save rest (Core.Live.db l) with
          | Ok () -> print_endline "saved"
          | Error msg -> print_endline msg)
  | "show" -> with_live cmd_show
  | "worlds" -> with_live cmd_worlds
  | "maximal" -> with_live cmd_maximal
  | "check" -> with_live (fun l -> cmd_check l rest)
  | "explain" -> with_live (fun l -> cmd_explain l rest)
  | "complexity" -> with_live (fun l -> cmd_complexity l rest)
  | "answers" -> with_live (fun l -> cmd_answers l rest)
  | "likelihood" -> with_live (fun l -> cmd_likelihood l rest)
  | "issue" -> with_live (fun l -> cmd_issue l rest)
  | "dryrun" -> with_live (fun l -> cmd_dryrun l rest)
  | "contradict" -> with_live (fun l -> cmd_contradict l rest)
  | "commit" -> with_live (fun l -> cmd_commit l rest)
  | other -> Printf.printf "unknown command %S (try 'help')\n" other

let () =
  let interactive = Unix.isatty Unix.stdin in
  if interactive then begin
    print_endline "bcdb shell - reasoning about the future in blockchain databases";
    print_endline "type 'help' for commands, 'paper' to load the running example"
  end;
  let rec loop () =
    if interactive then (print_string "bcdb> "; flush stdout);
    match In_channel.input_line stdin with
    | None -> ()
    | Some ("quit" | "exit") -> ()
    | Some line ->
        (try dispatch line with
        | Invalid_argument msg | Failure msg -> print_endline ("error: " ^ msg));
        loop ()
  in
  loop ()
