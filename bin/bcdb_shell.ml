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

type state = {
  mutable db : Core.Bcdb.t option;
  mutable session : Core.Session.t option;  (** Cache, rebuilt on change. *)
}

let state = { db = None; session = None }

let set_db db =
  state.db <- Some db;
  state.session <- None

let with_db f =
  match state.db with
  | None -> print_endline "no database loaded (try 'paper', 'gen' or 'load FILE')"
  | Some db -> f db

let session_of db =
  match state.session with
  | Some s -> s
  | None ->
      let s = Core.Session.create db in
      state.session <- Some s;
      s

let labels (db : Core.Bcdb.t) i = db.Core.Bcdb.pending.(i).Core.Pending.label

let label_id (db : Core.Bcdb.t) name =
  let found = ref None in
  Array.iteri
    (fun i (tx : Core.Pending.t) ->
      if String.equal tx.Core.Pending.label name then found := Some i)
    db.Core.Bcdb.pending;
  match !found with
  | Some i -> Some i
  | None -> int_of_string_opt name

(* The paper's running example, in the text format (dogfooding). *)
let paper_text =
  {|
relation TxOut(txId, ser, pk, amount)
relation TxIn(prevTxId, prevSer, pk, amount, newTxId, sig)
key TxOut(txId, ser)
key TxIn(prevTxId, prevSer)
ind TxIn(prevTxId, prevSer, pk, amount) <= TxOut(txId, ser, pk, amount)
ind TxIn(newTxId) <= TxOut(txId)

state TxOut("1", 1, "U1Pk", 1.0)
state TxOut("2", 1, "U1Pk", 1.0)
state TxOut("2", 2, "U2Pk", 4.0)
state TxOut("3", 1, "U3Pk", 1.0)
state TxOut("3", 2, "U4Pk", 0.5)
state TxOut("3", 3, "U1Pk", 0.5)
state TxIn("1", 1, "U1Pk", 1.0, "3", "U1Sig")
state TxIn("2", 1, "U1Pk", 1.0, "3", "U1Sig")

tx T1
  TxIn("2", 2, "U2Pk", 4.0, "4", "U2Sig")
  TxOut("4", 1, "U5Pk", 1.0)
  TxOut("4", 2, "U2Pk", 3.0)
tx T2
  TxIn("4", 2, "U2Pk", 3.0, "5", "U2Sig")
  TxOut("5", 1, "U4Pk", 3.0)
tx T3
  TxIn("3", 3, "U1Pk", 0.5, "6", "U1Sig")
  TxOut("6", 1, "U4Pk", 0.5)
tx T4
  TxIn("6", 1, "U4Pk", 0.5, "7", "U4Sig")
  TxIn("5", 1, "U4Pk", 3.0, "7", "U4Sig")
  TxOut("7", 1, "U7Pk", 2.5)
  TxOut("7", 2, "U8Pk", 1.0)
tx T5
  TxIn("2", 2, "U2Pk", 4.0, "8", "U2Sig")
  TxOut("8", 1, "U7Pk", 4.0)
|}

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

let parse_query db text =
  Q.Parser.parse ~catalog:(Core.Bcdb.catalog db) (String.trim text)

let parse_rows db text = Core.Bcdb_file.parse_rows (Core.Bcdb.catalog db) text

let cmd_show db =
  Format.printf "%a@." Core.Bcdb.pp_summary db;
  Array.iter
    (fun (tx : Core.Pending.t) ->
      Format.printf "  %a@." Core.Pending.pp tx)
    db.Core.Bcdb.pending

let cmd_worlds db =
  let store = Core.Tagged_store.create db in
  if Core.Tagged_store.tx_count store > 16 then
    print_endline "too many pending transactions to enumerate (max 16 here)"
  else
    Core.Poss.enumerate store (fun w ->
        let names = List.map (labels db) (Bcgraph.Bitset.to_list w) in
        Format.printf "R%s@."
          (match names with [] -> "" | _ -> " + " ^ String.concat " + " names);
        `Continue)

let cmd_maximal db =
  let session = session_of db in
  List.iter
    (fun ids ->
      Format.printf "R + {%s}@." (String.concat ", " (List.map (labels db) ids)))
    (Core.Maximal_worlds.list session)

let cmd_check db text =
  match parse_query db text with
  | Error msg -> print_endline msg
  | Ok q -> (
      match Core.Solver.solve (session_of db) q with
      | Ok (o, strategy) ->
          Format.printf "%s (%s, %.4fs)@."
            (if o.Core.Dcsat.satisfied then "SATISFIED in every world"
             else "VIOLATED in some world")
            (Core.Solver.strategy_name strategy)
            o.Core.Dcsat.stats.Core.Dcsat.runtime;
          Option.iter
            (fun ids ->
              Format.printf "witness world: R + {%s}@."
                (String.concat ", " (List.map (labels db) ids)))
            o.Core.Dcsat.witness_world
      | Error msg -> print_endline msg)

let cmd_explain db text =
  match parse_query db text with
  | Error msg -> print_endline msg
  | Ok q -> (
      match Core.Explain.run (session_of db) q with
      | Ok report -> print_endline (Core.Explain.to_string db report)
      | Error msg -> print_endline msg)

let cmd_complexity db text =
  match parse_query db text with
  | Error msg -> print_endline msg
  | Ok q ->
      print_endline
        (Core.Complexity.verdict_string (Core.Complexity.classify db q))

let cmd_answers db spec =
  match String.index_opt spec '|' with
  | None -> print_endline "usage: answers V1,V2 | q() :- ..."
  | Some i -> (
      let vars =
        String.sub spec 0 i |> String.split_on_char ','
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let qtext = String.sub spec (i + 1) (String.length spec - i - 1) in
      match parse_query db qtext with
      | Error msg -> print_endline msg
      | Ok (Q.Query.Aggregate _) -> print_endline "need a boolean query body"
      | Ok (Q.Query.Boolean body) -> (
          let session = session_of db in
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

let cmd_likelihood db args =
  match String.index_opt args ' ' with
  | None -> print_endline "usage: likelihood P q() :- ..."
  | Some i -> (
      let p = float_of_string_opt (String.sub args 0 i) in
      let qtext = String.sub args (i + 1) (String.length args - i - 1) in
      match (p, parse_query db qtext) with
      | None, _ -> print_endline "bad probability"
      | _, Error msg -> print_endline msg
      | Some p, Ok q ->
          let session = session_of db in
          let model = Core.Likelihood.uniform p in
          let est =
            Core.Likelihood.estimate_violation_probability ~samples:2000
              session model q
          in
          Format.printf "P(violated) ≈ %.4f (± %.4f)@."
            est.Core.Likelihood.probability est.Core.Likelihood.std_error;
          if Core.Bcdb.pending_count db <= 16 then
            Format.printf "exact: %.4f@."
              (Core.Likelihood.exact_violation_probability session model q))

let cmd_issue db spec =
  match String.index_opt spec '|' with
  | None -> print_endline "usage: issue LABEL | Row(...); Row(...)"
  | Some i -> (
      let label = String.trim (String.sub spec 0 i) in
      let rows_text = String.sub spec (i + 1) (String.length spec - i - 1) in
      match parse_rows db rows_text with
      | Error msg -> print_endline msg
      | Ok rows ->
          if Core.Bcdb.has_label db label then
            Format.printf "transaction %s is already pending@." label
          else begin
            let label = if label = "" then None else Some label in
            set_db (Core.Bcdb.with_pending db ?label rows);
            Format.printf "issued; %d pending transactions@."
              (Core.Bcdb.pending_count (Option.get state.db))
          end)

let cmd_dryrun db spec =
  match String.index_opt spec '|' with
  | None -> print_endline "usage: dryrun QUERY | Row(...); Row(...)"
  | Some i -> (
      let qtext = String.sub spec 0 i in
      let rows_text = String.sub spec (i + 1) (String.length spec - i - 1) in
      match (parse_query db qtext, parse_rows db rows_text) with
      | Error msg, _ | _, Error msg -> print_endline msg
      | Ok q, Ok rows -> (
          match Core.Dry_run.safe_to_issue (session_of db) rows [ q ] with
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

let cmd_contradict db name =
  match label_id db name with
  | None -> print_endline "unknown transaction"
  | Some id -> (
      match Core.Contradict.derive (session_of db) id with
      | Error msg -> print_endline msg
      | Ok rows ->
          Format.printf "contradicting transaction for %s:@." (labels db id);
          List.iter
            (fun (rel, t) -> Format.printf "  %s%a@." rel R.Tuple.pp t)
            rows;
          (* T1', then T1'', ... when T1' is taken. *)
          let rec primed label =
            if Core.Bcdb.has_label db label then primed (label ^ "'") else label
          in
          set_db (Core.Bcdb.with_pending db ~label:(primed (labels db id ^ "'")) rows);
          print_endline "(issued as a pending transaction)")

let cmd_commit db name =
  match label_id db name with
  | None -> print_endline "unknown transaction"
  | Some id -> (
      match Core.Bcdb.append_to_state db id with
      | Ok db' ->
          set_db db';
          Format.printf "committed; %d pending remain@."
            (Core.Bcdb.pending_count db')
      | Error msg -> print_endline msg)

let cmd_gen args =
  let parts =
    String.split_on_char ' ' args |> List.filter (fun s -> s <> "")
  in
  let preset, contradictions =
    match parts with
    | [ p ] -> (p, W.Datasets.default_contradictions)
    | [ p; c ] -> (p, Option.value (int_of_string_opt c) ~default:20)
    | _ -> ("mid", W.Datasets.default_contradictions)
  in
  let preset =
    match preset with
    | "small" -> Some W.Datasets.Small
    | "mid" -> Some W.Datasets.Mid
    | "large" -> Some W.Datasets.Large
    | _ -> None
  in
  match preset with
  | None -> print_endline "usage: gen small|mid|large [contradictions]"
  | Some preset ->
      print_endline "generating...";
      let sim = W.Generator.generate (W.Datasets.params preset) in
      set_db (W.Generator.dataset sim ~contradictions ());
      with_db (fun db -> Format.printf "%a@." Core.Bcdb.pp_summary db)

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
  | "paper" -> (
      match Core.Bcdb_file.of_string paper_text with
      | Ok db ->
          set_db db;
          with_db (fun db -> Format.printf "%a@." Core.Bcdb.pp_summary db)
      | Error msg -> print_endline msg)
  | "gen" -> cmd_gen rest
  | "load" -> (
      match Core.Bcdb_file.load rest with
      | Ok db ->
          set_db db;
          with_db (fun db -> Format.printf "%a@." Core.Bcdb.pp_summary db)
      | Error msg -> print_endline msg)
  | "save" ->
      with_db (fun db ->
          match Core.Bcdb_file.save rest db with
          | Ok () -> print_endline "saved"
          | Error msg -> print_endline msg)
  | "show" -> with_db cmd_show
  | "worlds" -> with_db cmd_worlds
  | "maximal" -> with_db cmd_maximal
  | "check" -> with_db (fun db -> cmd_check db rest)
  | "explain" -> with_db (fun db -> cmd_explain db rest)
  | "complexity" -> with_db (fun db -> cmd_complexity db rest)
  | "answers" -> with_db (fun db -> cmd_answers db rest)
  | "likelihood" -> with_db (fun db -> cmd_likelihood db rest)
  | "issue" -> with_db (fun db -> cmd_issue db rest)
  | "dryrun" -> with_db (fun db -> cmd_dryrun db rest)
  | "contradict" -> with_db (fun db -> cmd_contradict db rest)
  | "commit" -> with_db (fun db -> cmd_commit db rest)
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
