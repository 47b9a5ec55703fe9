module R = Relational
module Q = Bcquery
open Bccore

type request =
  | Check of {
      timeout : float option;
      max_worlds : int option;
      jobs : int option;
      query : Q.Query.t;
    }
  | Add of { label : string; rows : (string * R.Tuple.t) list }
  | Evict of string
  | Confirm of string
  | Stats
  | Quit

type defaults = {
  jobs : int;
  timeout : float option;
  max_worlds : int option;
}

let ( let* ) = Result.bind

let parse_timeout s =
  match float_of_string_opt s with
  | Some f when f >= 0.0 && Float.is_finite f -> Some f
  | _ -> None

let parse_max_worlds s =
  match int_of_string_opt s with Some n when n >= 0 -> Some n | _ -> None

let budget_of_flags ~timeout ~max_worlds =
  Engine.Budget.create ?timeout_s:timeout ?max_worlds ()

(* --- parsing: every check that needs no database state ------------- *)

(* `key=value` directives of a check's command line, overriding the
   server-wide admission defaults for this request only. *)
let directives words =
  List.fold_left
    (fun acc w ->
      let* t, mw, j = acc in
      match String.index_opt w '=' with
      | None -> Error (Printf.sprintf "unknown directive %S" w)
      | Some i -> (
          let key = String.sub w 0 i in
          let v = String.sub w (i + 1) (String.length w - i - 1) in
          let bad () = Error (Printf.sprintf "bad %s %S" key v) in
          match key with
          | "timeout" -> (
              match parse_timeout v with Some f -> Ok (Some f, mw, j) | None -> bad ())
          | "max-worlds" -> (
              match parse_max_worlds v with
              | Some n -> Ok (t, Some n, j)
              | None -> bad ())
          | "jobs" -> (
              match int_of_string_opt v with Some n -> Ok (t, mw, Some n) | None -> bad ())
          | _ -> Error (Printf.sprintf "unknown directive %S" key)))
    (Ok (None, None, None))
    words

(* An add's body: one row per line, blank lines skipped, at least one
   row; the first bad row is the error. *)
let rows catalog body =
  let rec go acc = function
    | [] -> if acc = [] then Error "add: no rows" else Ok (List.rev acc)
    | line :: rest -> (
        match String.trim line with
        | "" -> go acc rest
        | line ->
            let* row = Bcdb_file.parse_row catalog line in
            go (row :: acc) rest)
  in
  go [] (String.split_on_char '\n' body)

let unexpected cmd w = Error (Printf.sprintf "%s: unexpected argument %S" cmd w)

let label cmd = function
  | [ label ] -> Ok label
  | [] -> Error (cmd ^ ": missing label")
  | _ :: w :: _ -> unexpected cmd w

(* Commands other than check and add take nothing after their words. *)
let bare cmd body request =
  if String.trim body = "" then Ok request
  else Error (cmd ^ ": unexpected lines after the command")

let parse catalog payload =
  let command, body =
    match String.index_opt payload '\n' with
    | None -> (payload, "")
    | Some i ->
        ( String.sub payload 0 i,
          String.sub payload (i + 1) (String.length payload - i - 1) )
  in
  match String.split_on_char ' ' (String.trim command) |> List.filter (( <> ) "") with
  | [] -> Error "empty command"
  | "check" :: words ->
      let* timeout, max_worlds, jobs = directives words in
      let* query = Q.Parser.parse ~catalog (String.trim body) in
      Ok (Check { timeout; max_worlds; jobs; query })
  | "add" :: args ->
      let* label = label "add" args in
      let* rows = rows catalog body in
      Ok (Add { label; rows })
  | ("evict" | "confirm") as cmd :: args ->
      let* label = label cmd args in
      bare cmd body (if cmd = "evict" then Evict label else Confirm label)
  | ("stats" | "quit") as cmd :: args -> (
      match args with
      | w :: _ -> unexpected cmd w
      | [] -> bare cmd body (if cmd = "stats" then Stats else Quit))
  | cmd :: _ -> Error (Printf.sprintf "unknown command %S" cmd)

(* --- answering -------------------------------------------------------- *)

let error msg = Printf.sprintf "ERROR 1\n%s\n" msg

let outcome (o : Dcsat.outcome) strategy =
  let status =
    match o.Dcsat.verdict with
    | Dcsat.Satisfied -> "SATISFIED 0\n"
    | Dcsat.Violated _ -> "UNSATISFIED 2\n"
    | Dcsat.Unknown reason ->
        Printf.sprintf "UNKNOWN 3\nreason: budget exhausted (%s)\n"
          (Engine.Budget.reason_name reason)
  in
  let s = o.Dcsat.stats in
  Printf.sprintf
    "%sstrategy: %s\nstats: worlds=%d cliques=%d components=%d/%d time=%.4fs\n"
    status strategy s.Dcsat.worlds_checked s.Dcsat.cliques_enumerated
    s.Dcsat.components_covered s.Dcsat.components_total s.Dcsat.runtime

let stats live =
  let cs = Live.cache_stats live in
  Printf.sprintf
    "OK 0\n\
     pending=%d state_rows=%d conflicts=%d\n\
     comp_cache_hit=%d comp_cache_miss=%d comp_dirty=%d comp_cache_entries=%d\n"
    (Live.pending_count live)
    (R.Database.total_cardinality (Live.db live).Bcdb.state)
    (Fd_graph.conflict_count (Live.fd_graph live))
    cs.Live.cache_hits cs.Live.cache_misses cs.Live.cache_dirty
    cs.Live.cache_entries

let mutation verb label = function
  | Ok () -> Printf.sprintf "OK 0\n%s %s\n" verb label
  | Error msg -> error msg

let handle live (d : defaults) = function
  | Quit -> ("OK 0\nbye\n", false)
  | Stats -> (stats live, true)
  | Evict label -> (mutation "evicted" label (Live.evict live label), true)
  | Confirm label -> (mutation "confirmed" label (Live.confirm live label), true)
  | Add { label; rows } -> (mutation "added" label (Live.try_add live ~label rows), true)
  | Check { timeout; max_worlds; jobs; query } -> (
      let or_default req default = if Option.is_some req then req else default in
      let budget =
        budget_of_flags
          ~timeout:(or_default timeout d.timeout)
          ~max_worlds:(or_default max_worlds d.max_worlds)
      in
      match Live.check ~jobs:(Option.value jobs ~default:d.jobs) ~budget live query with
      | Ok (o, strategy) -> (outcome o (Solver.strategy_name strategy), true)
      | Error msg -> (error msg, true))

(* --- framing ---------------------------------------------------------- *)

let max_frame = 16 * 1024 * 1024

(* The longest length line: [max_frame]'s digits. *)
let max_length_line = String.length (string_of_int max_frame)

(* The length line, read a byte at a time against [max_length_line], so
   a peer that never sends '\n' cannot grow a buffer without bound.
   [None] at the end of input; a last line without '\n' is read as
   [In_channel.input_line] would. *)
let length_line ic =
  let b = Buffer.create max_length_line in
  let rec go () =
    match In_channel.input_char ic with
    | None -> if Buffer.length b = 0 then None else Some (Ok (Buffer.contents b))
    | Some '\n' -> Some (Ok (Buffer.contents b))
    | Some _ when Buffer.length b >= max_length_line ->
        Some (Error "frame length line too long")
    | Some c ->
        Buffer.add_char b c;
        go ()
  in
  go ()

let read_frame ic =
  match length_line ic with
  | (None | Some (Error _)) as r -> r
  | Some (Ok line) -> (
      match int_of_string_opt (String.trim line) with
      | None -> Some (Error "unparsable frame length")
      | Some n when n < 0 || n > max_frame -> Some (Error "bad frame length")
      | Some n -> (
          let buf = Bytes.create n in
          match In_channel.really_input ic buf 0 n with
          | None -> Some (Error "truncated frame")
          | Some () -> Some (Ok (Bytes.unsafe_to_string buf))))

let write_frame oc payload =
  Out_channel.output_string oc (string_of_int (String.length payload));
  Out_channel.output_char oc '\n';
  Out_channel.output_string oc payload;
  Out_channel.flush oc

let session live defaults ic oc =
  let rec loop () =
    match read_frame ic with
    | None -> ()
    | Some (Error msg) -> write_frame oc (error msg)
    | Some (Ok payload) ->
        let response, continue =
          try
            match parse (Bcdb.catalog (Live.db live)) payload with
            | Ok request -> handle live defaults request
            | Error msg -> (error msg, true)
          with e -> (error (Printexc.to_string e), true)
        in
        write_frame oc response;
        if continue then loop ()
  in
  loop ()
