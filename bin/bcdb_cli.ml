(* bcdb: command-line front end.

   Subcommands:
     stats      - generate a dataset preset and print Table-1 statistics
     worlds     - enumerate the possible worlds of the paper's example
     check      - decide a denial constraint over a dataset or the paper
                  example, with a chosen algorithm
     likelihood - probability that a constraint is violated, under a
                  uniform per-transaction inclusion probability
     snapshot   - write a database as a binary snapshot, restorable with
                  check --snapshot FILE

   Datasets are synthesized deterministically from a seed, so commands
   are reproducible without any on-disk state. *)

module R = Relational
module Q = Bcquery
module Core = Bccore
module W = Workload
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments. *)

let preset_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (W.Datasets.preset_of_string s) in
  let print ppf p = Format.pp_print_string ppf (W.Datasets.name p) in
  Arg.conv (parse, print)

let preset =
  Arg.(
    value
    & opt (some preset_conv) None
    & info [ "preset" ] ~docv:"PRESET"
        ~doc:"Generated dataset preset: small, mid or large.")

let contradictions =
  Arg.(
    value
    & opt int W.Datasets.default_contradictions
    & info [ "contradictions" ] ~docv:"N"
        ~doc:"Number of injected fd contradictions (double spends).")

let paper =
  Arg.(
    value & flag
    & info [ "paper" ]
        ~doc:"Use the paper's running example (Figure 2) instead of a \
              generated dataset.")

let seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Override the generator seed.")

let file =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"FILE"
        ~doc:"Load the blockchain database from a .bcdb text file (see \
              'bcdb dump' for the format).")

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "Load the blockchain database from a binary snapshot written by \
           'bcdb snapshot'. The columnar state is restored directly — no \
           row parsing, no semantic re-validation (pass --validate-snapshot \
           to re-run it).")

let validate_snapshot_arg =
  Arg.(
    value & flag
    & info [ "validate-snapshot" ]
        ~doc:
          "With --snapshot, re-run the full R |= I validation pass after \
           restoring (a whole-state scan; snapshots written by this tool \
           already satisfied it when saved).")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for world evaluation: 1 (default) evaluates on \
           the calling domain alone; larger values fan OptDCSat's covered \
           components out over N parallel domains, at most one per core, \
           with identical results.")

let budget_conv what parse print =
  Arg.conv
    ( (fun s ->
        match parse s with
        | Some v -> Ok v
        | None -> Error (`Msg (Printf.sprintf "bad %s %S" what s))),
      print )

let timeout_arg =
  Arg.(
    value
    & opt (some (budget_conv "timeout" Serve.parse_timeout Format.pp_print_float)) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the solve. When it expires before the \
           enumeration completes (and no violation was found first) the \
           result is UNKNOWN and the exit code is 3.")

let max_worlds_arg =
  Arg.(
    value
    & opt (some (budget_conv "max-worlds" Serve.parse_max_worlds Format.pp_print_int)) None
    & info [ "max-worlds" ] ~docv:"N"
        ~doc:
          "Evaluate at most $(docv) candidate worlds. Exceeding the bound \
           without a verdict yields UNKNOWN (exit code 3).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record solver/engine/store instrumentation and write a Chrome \
           trace_event JSON trace to $(docv) (open in about:tracing or \
           https://ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record solver/engine/store instrumentation and write merged \
           counters, histograms and span aggregates as JSONL to $(docv).")

let obs_flag =
  Arg.(
    value & flag
    & info [ "obs" ]
        ~doc:
          "Record solver/engine/store instrumentation and print a summary \
           (span aggregates, counters, histograms) to stderr.")

(* The session recorder implied by the --trace/--metrics/--obs flags:
   null (zero overhead) unless at least one sink is requested. *)
let obs_of_flags ~trace ~metrics ~summary =
  let sinks =
    (if summary then [ Bcobs.Obs.pretty_sink () ] else [])
    @ (match metrics with Some f -> [ Bcobs.Obs.metrics_sink f ] | None -> [])
    @ match trace with Some f -> [ Bcobs.Obs.trace_sink f ] | None -> []
  in
  if sinks = [] then Bcobs.Obs.null else Bcobs.Obs.create ~sinks ()

(* An error on stderr, exit code 1; [let*] goes on with an [Ok] value
   or fails with the [Error] message. *)
let fail msg =
  Printf.eprintf "error: %s\n" msg;
  1

let ( let* ) r f = match r with Ok v -> f v | Error msg -> fail msg

let load_db ?file ?snapshot ?(validate_snapshot = false) ~paper ~preset
    ~contradictions ~seed () =
  match snapshot with
  | Some path -> Core.Bcdb_file.load_binary ~validate:validate_snapshot path
  | None ->
  match file with
  | Some path -> Core.Bcdb_file.load path
  | None ->
  if paper then Ok (W.Datasets.paper ())
  else
    let preset = Option.value preset ~default:W.Datasets.Mid in
    let params = W.Datasets.params preset in
    let params =
      match seed with
      | Some s -> { params with W.Generator.seed = s }
      | None -> params
    in
    let sim = W.Generator.generate params in
    match W.Generator.dataset sim ~contradictions () with
    | db -> Ok db
    | exception Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_cmd =
  let run preset seed =
    let preset = Option.value preset ~default:W.Datasets.Mid in
    let params = W.Datasets.params preset in
    let params =
      match seed with Some s -> { params with W.Generator.seed = s } | None -> params
    in
    let sim = W.Generator.generate params in
    let st = W.Datasets.state_stats sim in
    let take = List.length sim.W.Generator.pending_by_block in
    let pd =
      W.Datasets.pending_stats sim ~pending_take:take
        ~contradictions:W.Datasets.default_contradictions
    in
    Printf.printf "%s\n" (W.Datasets.name preset);
    Printf.printf "  state:   blocks=%d txs=%d inputs=%d outputs=%d\n"
      st.W.Datasets.blocks st.W.Datasets.transactions st.W.Datasets.input_rows
      st.W.Datasets.output_rows;
    Printf.printf "  pending: blocks=%d txs=%d inputs=%d outputs=%d\n"
      pd.W.Datasets.blocks pd.W.Datasets.transactions pd.W.Datasets.input_rows
      pd.W.Datasets.output_rows;
    0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Generate a dataset preset and print its statistics.")
    Term.(const run $ preset $ seed)

(* ------------------------------------------------------------------ *)
(* worlds *)

let worlds_cmd =
  let run () =
    let db = W.Datasets.paper () in
    let store = Core.Tagged_store.create db in
    Format.printf "%a@." Core.Bcdb.pp_summary db;
    Core.Poss.enumerate store (fun world ->
        let names =
          Bcgraph.Bitset.fold
            (fun i acc -> db.Core.Bcdb.pending.(i).Core.Pending.label :: acc)
            world []
          |> List.rev
        in
        Format.printf "R%s@."
          (match names with [] -> "" | _ -> " + " ^ String.concat " + " names);
        `Continue);
    0
  in
  Cmd.v
    (Cmd.info "worlds"
       ~doc:"Enumerate the possible worlds of the paper's running example.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* check *)

let algo_conv =
  Arg.conv
    ( (function
      | "naive" -> Ok `Naive
      | "opt" -> Ok `Opt
      | "brute" -> Ok `Brute
      | "auto" -> Ok `Auto
      | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))),
      fun ppf a ->
        Format.pp_print_string ppf
          (match a with
          | `Naive -> "naive"
          | `Opt -> "opt"
          | `Brute -> "brute"
          | `Auto -> "auto") )

let algo =
  Arg.(
    value & opt algo_conv `Auto
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:"Algorithm: naive, opt, brute or auto (dispatcher).")

let query_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"QUERY"
        ~doc:
          "Denial constraint, e.g. 'q() :- TxOut(t, s, \"U8Pk\", a).' \
           (see the README for the syntax).")

let report db (o : Core.Dcsat.outcome) strategy =
  Format.printf "%s@."
    (match o.Core.Dcsat.verdict with
    | Core.Dcsat.Satisfied ->
        "SATISFIED: the constraint holds in every possible world"
    | Core.Dcsat.Violated _ ->
        "UNSATISFIED: some possible world violates the constraint"
    | Core.Dcsat.Unknown reason ->
        Printf.sprintf
          "UNKNOWN: budget exhausted (%s) before the enumeration completed"
          (Core.Engine.Budget.reason_name reason));
  Format.printf "strategy: %s@." strategy;
  Format.printf
    "stats: worlds=%d cliques=%d components=%d/%d precheck=%b time=%.4fs@."
    o.Core.Dcsat.stats.Core.Dcsat.worlds_checked
    o.Core.Dcsat.stats.Core.Dcsat.cliques_enumerated
    o.Core.Dcsat.stats.Core.Dcsat.components_covered
    o.Core.Dcsat.stats.Core.Dcsat.components_total
    o.Core.Dcsat.stats.Core.Dcsat.precheck_decided
    o.Core.Dcsat.stats.Core.Dcsat.runtime;
  (match o.Core.Dcsat.witness_world with
  | Some ids ->
      Format.printf "witness world: R + {%s}@."
        (String.concat ", "
           (List.map (fun i -> db.Core.Bcdb.pending.(i).Core.Pending.label) ids))
  | None -> ());
  match o.Core.Dcsat.witness with
  | Some bindings ->
      Format.printf "witness assignment: %s@."
        (String.concat ", "
           (List.map
              (fun (v, value) ->
                Printf.sprintf "%s = %s" v (R.Value.to_string value))
              bindings))
  | None -> ()

let exit_of_verdict = function
  | Core.Dcsat.Satisfied -> 0
  | Core.Dcsat.Violated _ -> 2
  | Core.Dcsat.Unknown _ -> 3

let check_cmd =
  let run file snapshot validate_snapshot paper preset contradictions seed algo
      jobs timeout max_worlds trace metrics summary query =
    let* db =
      load_db ?file ?snapshot ~validate_snapshot ~paper ~preset ~contradictions
        ~seed ()
    in
    let* q = Q.Parser.parse ~catalog:(Core.Bcdb.catalog db) query in
    let obs = obs_of_flags ~trace ~metrics ~summary in
    let session = Core.Session.create ~obs db in
    let budget = Serve.budget_of_flags ~timeout ~max_worlds in
    let result =
      match algo with
      | `Naive ->
          Result.map
            (fun o -> (o, "NaiveDCSat"))
            (Result.map_error
               (Format.asprintf "%a" Core.Dcsat.pp_refusal)
               (Core.Dcsat.naive ~jobs ~budget session q))
      | `Opt ->
          Result.map
            (fun o -> (o, "OptDCSat"))
            (Result.map_error
               (Format.asprintf "%a" Core.Dcsat.pp_refusal)
               (Core.Dcsat.opt ~jobs ~budget session q))
      | `Brute -> (
          match Core.Dcsat.brute_force ~jobs ~budget session q with
          | o -> Ok (o, "brute force")
          | exception Invalid_argument msg -> Error msg)
      | `Auto ->
          Result.map
            (fun (o, s) -> (o, Core.Solver.strategy_name s))
            (Core.Solver.solve ~jobs ~budget session q)
    in
    Bcobs.Obs.flush obs;
    let* o, strategy = result in
    report db o strategy;
    exit_of_verdict o.Core.Dcsat.verdict
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Decide whether a denial constraint is satisfied (holds in every \
          possible world). Exit code 0: satisfied, 2: unsatisfied, 3: \
          unknown (budget exhausted before a verdict).")
    Term.(
      const run $ file $ snapshot_arg $ validate_snapshot_arg $ paper $ preset
      $ contradictions $ seed $ algo $ jobs $ timeout_arg $ max_worlds_arg
      $ trace_arg $ metrics_arg $ obs_flag $ query_arg)

(* ------------------------------------------------------------------ *)
(* likelihood *)

let likelihood_cmd =
  let prob =
    Arg.(
      value & opt float 0.8
      & info [ "p" ] ~docv:"P"
          ~doc:"Uniform per-transaction inclusion probability.")
  in
  let samples =
    Arg.(
      value & opt int 2000
      & info [ "samples" ] ~docv:"N" ~doc:"Monte-Carlo sample count.")
  in
  let run file paper preset contradictions seed p samples query =
    let* db = load_db ?file ~paper ~preset ~contradictions ~seed () in
    let* q = Q.Parser.parse ~catalog:(Core.Bcdb.catalog db) query in
    let session = Core.Session.create db in
    let model = Core.Likelihood.uniform p in
    let est =
      Core.Likelihood.estimate_violation_probability ~samples session model q
    in
    Printf.printf "P(violated) = %.4f (± %.4f, %d samples, p = %.2f per tx)\n"
      est.Core.Likelihood.probability est.Core.Likelihood.std_error
      est.Core.Likelihood.samples p;
    if Core.Bcdb.pending_count db <= 20 then
      Printf.printf "exact: %.4f\n"
        (Core.Likelihood.exact_violation_probability session model q);
    0
  in
  Cmd.v
    (Cmd.info "likelihood"
       ~doc:
         "Estimate the probability that a denial constraint is violated, \
          weighting worlds by per-transaction inclusion probability.")
    Term.(
      const run $ file $ paper $ preset $ contradictions $ seed $ prob
      $ samples $ query_arg)

(* ------------------------------------------------------------------ *)
(* explain *)

let explain_cmd =
  let run file paper preset contradictions seed jobs timeout max_worlds trace
      metrics summary query =
    let* db = load_db ?file ~paper ~preset ~contradictions ~seed () in
    let* q = Q.Parser.parse ~catalog:(Core.Bcdb.catalog db) query in
    let obs = obs_of_flags ~trace ~metrics ~summary in
    let session = Core.Session.create ~obs db in
    let budget = Serve.budget_of_flags ~timeout ~max_worlds in
    let result = Core.Explain.run ~jobs ~budget session q in
    Bcobs.Obs.flush obs;
    let* report = result in
    print_endline (Core.Explain.to_string db report);
    exit_of_verdict report.Core.Explain.outcome.Core.Dcsat.verdict
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Decide a denial constraint and print the reasoning: query \
          properties, complexity class (Theorems 1-2), chosen strategy, \
          and a trace of components, cliques and worlds. Exit codes as \
          for check.")
    Term.(
      const run $ file $ paper $ preset $ contradictions $ seed $ jobs
      $ timeout_arg $ max_worlds_arg $ trace_arg $ metrics_arg $ obs_flag
      $ query_arg)

(* ------------------------------------------------------------------ *)
(* answers *)

let answers_cmd =
  let vars =
    Arg.(
      non_empty
      & opt (list string) []
      & info [ "vars" ] ~docv:"X,Y"
          ~doc:"Output variables of the query body.")
  in
  let run file paper preset contradictions seed vars query =
    let* db = load_db ?file ~paper ~preset ~contradictions ~seed () in
    let* q = Q.Parser.parse ~catalog:(Core.Bcdb.catalog db) query in
    match q with
    | Q.Query.Aggregate _ -> fail "answers need a boolean query body"
    | Q.Query.Boolean body ->
        let session = Core.Session.create db in
        let show title tuples =
          Printf.printf "%s (%d):\n" title (List.length tuples);
          List.iter (fun t -> Printf.printf "  %s\n" (R.Tuple.to_string t)) tuples
        in
        let* certain = Core.Answers.certain session body ~vars in
        show "certain answers (hold in every future)" certain;
        let* uncertain = Core.Answers.uncertain session body ~vars in
        show "uncertain answers (depend on pending transactions)" uncertain;
        0
  in
  Cmd.v
    (Cmd.info "answers"
       ~doc:
         "Certain and possible answers of a conjunctive query over all \
          possible worlds (Section 5).")
    Term.(
      const run $ file $ paper $ preset $ contradictions $ seed $ vars
      $ query_arg)

(* ------------------------------------------------------------------ *)
(* dump *)

let dump_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to a file instead of stdout.")
  in
  let run paper preset contradictions seed out =
    let* db = load_db ~paper ~preset ~contradictions ~seed () in
    match out with
    | None ->
        print_string (Core.Bcdb_file.to_string db);
        0
    | Some path ->
        let* () = Core.Bcdb_file.save path db in
        0
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Write a blockchain database (the paper example or a generated \
          dataset) in the .bcdb text format, for later use with --file.")
    Term.(const run $ paper $ preset $ contradictions $ seed $ out)

(* ------------------------------------------------------------------ *)
(* snapshot *)

let snapshot_cmd =
  let out =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output path for the binary snapshot.")
  in
  let run file paper preset contradictions seed out =
    let* db = load_db ?file ~paper ~preset ~contradictions ~seed () in
    let* () = Core.Bcdb_file.save_binary out db in
    let bytes =
      In_channel.with_open_bin out (fun ic -> Int64.to_int (In_channel.length ic))
    in
    Printf.printf "wrote %s (%d bytes, %d pending txs)\n" out bytes
      (Core.Bcdb.pending_count db);
    0
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Write a blockchain database (a .bcdb text file, the paper example \
          or a generated dataset) as a versioned binary snapshot: the \
          columnar state plus pending transactions, restorable with \
          --snapshot in a fraction of the build time.")
    Term.(const run $ file $ paper $ preset $ contradictions $ seed $ out)

(* ------------------------------------------------------------------ *)
(* validate-trace *)

let validate_trace_cmd =
  let trace_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace_event JSON file to validate.")
  in
  let run path =
    match Bcobs.Obs.validate_trace_file path with
    | Ok events ->
        Printf.printf "%s: valid trace (%d events)\n" path events;
        0
    | Error errs ->
        List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) errs;
        1
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:
         "Check that a file produced by --trace is well-formed Chrome \
          trace_event JSON (loadable by Perfetto / chrome://tracing). \
          Exits non-zero and lists the problems otherwise.")
    Term.(const run $ trace_file)

(* ------------------------------------------------------------------ *)
(* serve: the transports of the long-running DCSat service; the
   protocol itself is the [Serve] library. *)

let serve_cmd =
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen on 127.0.0.1:$(docv) (TCP), one client at a time.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix domain socket at $(docv).")
  in
  let run file snapshot validate_snapshot paper preset contradictions seed jobs
      timeout max_worlds port socket =
    let* db =
      load_db ?file ?snapshot ~validate_snapshot ~paper ~preset ~contradictions
        ~seed ()
    in
    (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | _ -> ()
    | exception Invalid_argument _ -> ());
    let live = Core.Live.create db in
    let serve = Serve.session live { Serve.jobs; timeout; max_worlds } in
    let accept_loop sock =
      (* Sequential accept: the live context is single-writer. *)
      let rec loop () =
        let client, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr client in
        let oc = Unix.out_channel_of_descr client in
        (try serve ic oc with _ -> ());
        (try Unix.close client with Unix.Unix_error _ -> ());
        loop ()
      in
      loop ()
    in
    match (port, socket) with
    | Some _, Some _ -> fail "--port and --socket are exclusive"
    | Some port, None ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock
          (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen sock 8;
        Printf.eprintf "serving on 127.0.0.1:%d (%d pending txs)\n%!" port
          (Core.Live.pending_count live);
        accept_loop sock
    | None, Some path ->
        if Sys.file_exists path then Sys.remove path;
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 8;
        Printf.eprintf "serving on %s (%d pending txs)\n%!" path
          (Core.Live.pending_count live);
        accept_loop sock
    | None, None ->
        (* stdio mode: one session over stdin/stdout — what scripted
           clients and the CI drive. *)
        serve In_channel.stdin Out_channel.stdout;
        0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived DCSat service: load a database once, keep its \
          solver inputs maintained incrementally as transactions are added, \
          evicted and confirmed, and answer length-prefixed check requests \
          with per-request --timeout/--max-worlds admission budgets. \
          Response status codes mirror the check exit contract (0 \
          satisfied, 2 unsatisfied, 3 unknown). Default transport is \
          stdin/stdout; --port or --socket serve clients sequentially.")
    Term.(
      const run $ file $ snapshot_arg $ validate_snapshot_arg $ paper $ preset
      $ contradictions $ seed $ jobs $ timeout_arg $ max_worlds_arg $ port_arg
      $ socket_arg)

(* ------------------------------------------------------------------ *)
(* scenario: the named protocol-trace catalog. *)

let expect_conv =
  let parse = function
    | "satisfied" -> Ok Scenario.Expect.Satisfied
    | "violated" ->
        Ok (Scenario.Expect.Violated { class_ = "cli-override"; involves = [] })
    | "unknown" -> Ok Scenario.Expect.Unknown
    | s ->
        Error
          (`Msg
            (Printf.sprintf "unknown verdict %S (satisfied|violated|unknown)" s))
  in
  let print ppf e = Format.pp_print_string ppf (Scenario.Expect.name e) in
  Arg.conv (parse, print)

let scenario_engine_conv =
  let parse = function
    | "auto" -> Ok Scenario.Auto
    | "naive" -> Ok Scenario.Naive
    | "opt" -> Ok Scenario.Opt
    | "brute" -> Ok Scenario.Brute
    | s ->
        Error
          (`Msg (Printf.sprintf "unknown engine %S (auto|naive|opt|brute)" s))
  in
  let print ppf e = Format.pp_print_string ppf (Scenario.engine_name e) in
  Arg.conv (parse, print)

let scenario_list_cmd =
  let run () =
    List.iter
      (fun (s : Scenario.t) ->
        Printf.printf "%-45s %-22s %s\n" s.Scenario.name
          (Scenario.Expect.name s.Scenario.expect)
          s.Scenario.description)
      (Scenarios.Catalog.instances ());
    0
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List every named scenario instance (base traces and their tweak \
          variants) with its expected verdict.")
    Term.(const run $ const ())

let scenario_run_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Scenario instance name, as printed by `bcdb scenario list'.")
  in
  let engine_arg =
    Arg.(
      value
      & opt scenario_engine_conv Scenario.Auto
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Solver to run: auto (default), naive, opt or brute.")
  in
  let expect_arg =
    Arg.(
      value
      & opt (some expect_conv) None
      & info [ "expect" ] ~docv:"VERDICT"
          ~doc:
            "Override the scripted expectation (satisfied|violated|unknown); \
             the exit code reports the comparison against $(docv) instead.")
  in
  let run name engine jobs timeout max_worlds expect =
    match Scenarios.Catalog.find name with
    | None -> fail (Printf.sprintf "unknown scenario %S (try `bcdb scenario list')" name)
    | Some s -> (
        let s =
          match expect with
          | None -> s
          | Some e -> { s with Scenario.expect = e }
        in
        match
          Scenario.solve ~engine ~jobs ?timeout_s:timeout ?max_worlds s
        with
        | Error msg -> fail msg
        | Ok solved -> (
            Format.printf "scenario: %s@." s.Scenario.name;
            Format.printf "  %s@." s.Scenario.description;
            report (Scenario.Compile.db solved.Scenario.compiled)
              solved.Scenario.outcome solved.Scenario.strategy;
            match solved.Scenario.outcome.Core.Dcsat.verdict with
            | Core.Dcsat.Unknown _ ->
                Format.printf "expectation: undecided (expected %s)@."
                  (Scenario.Expect.name s.Scenario.expect);
                3
            | _ -> (
                match solved.Scenario.check with
                | Ok () ->
                    Format.printf "expectation: match (%s)@."
                      (Scenario.Expect.name s.Scenario.expect);
                    0
                | Error msg ->
                    Format.printf "expectation: MISMATCH - %s@." msg;
                    1)))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Replay a named scenario trace, compile it to an (R, I, T) instance, \
          solve the scripted denial constraint and compare against the \
          expected verdict. Exit 0 when the verdict matches, 1 on a \
          mismatch, 3 when the solve exhausted its budget (UNKNOWN).")
    Term.(
      const run $ name_arg $ engine_arg $ jobs $ timeout_arg $ max_worlds_arg
      $ expect_arg)

let scenario_cmd =
  Cmd.group
    (Cmd.info "scenario"
       ~doc:
         "Scripted multi-party protocol traces (escrow, auction, \
          crowdfunding, atomic swap, multisig treasury) compiled to DCSat \
          instances with known verdicts.")
    [ scenario_list_cmd; scenario_run_cmd ]

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "bcdb" ~version:"1.0.0"
      ~doc:"Reasoning about the future in blockchain databases (ICDE 2020)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            stats_cmd;
            worlds_cmd;
            check_cmd;
            explain_cmd;
            answers_cmd;
            likelihood_cmd;
            dump_cmd;
            snapshot_cmd;
            validate_trace_cmd;
            serve_cmd;
            scenario_cmd;
          ]))
