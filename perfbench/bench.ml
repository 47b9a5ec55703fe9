(* The repository benchmark: one workload, one seed, one JSON line.

     bench.exe --workload serve-read|serve-churn|batch-solve
               --seed N --seconds S --trace 0|1

   Inputs are generated before any timing (the sweep economy, its
   snapshots, and from the seed the request stream and arrival times)
   and handed to the real
   `bcdb` binary as files. Every answer is checked against an
   in-process replay of the same inputs. With --trace 1 a second,
   traced replay times each layer's public entry points and the last
   line carries the per-layer ledger instead of the end-to-end metrics.
   See README.md beside this file. *)

module W = Workload
module Q = W.Queries
module Core = Bccore
module R = Relational
module Obs = Bcobs.Obs
module Monotime = Bcobs.Monotime
open Pbench

(* ------------------------------------------------------------------ *)
(* Settings. The churn rate is about half of that workload's
   closed-loop sustained_rps on a 2-core x86-64 host. The read rate is
   well below its own, so that the host's slow stretches do not turn
   into queueing (README.md). *)

let read_rate = 100.0 (* requests/s *)
let checks_per_add = 100
let read_pending_blocks = 47 (* of 50: three blocks held back as adds *)
let churn_rate = 25.0 (* arrival events/s, each a mutation plus a check *)
let churn_pending_blocks = 10
let contradictions = 20
let dense_pairs = 14
let setups_per_round = 3
let open_segments = 4
let oracle_samples = 4
let max_late_s = 0.05
let stats_rtts = 200
let closed_chunks = 8
let ingests_per_pass = 2

(* ------------------------------------------------------------------ *)
(* Plumbing. *)

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("[perfbench] " ^ s)) fmt

(* The run cannot produce a valid measurement: exit non-zero, print no
   result. *)
exception Invalid_run of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_run s)) fmt
let ok_or what = function Ok x -> x | Error e -> invalid "%s: %s" what e

let time f =
  let t0 = Monotime.now () in
  let r = f () in
  (r, Monotime.now () -. t0)

let span obs name f = Obs.span obs ~cat:"bench" name f

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let verdict_class = function
  | Core.Dcsat.Satisfied -> "SATISFIED"
  | Core.Dcsat.Violated _ -> "UNSATISFIED"
  | Core.Dcsat.Unknown _ -> "UNKNOWN"

let row_text (rel, tuple) =
  Printf.sprintf "%s(%s)" rel
    (String.concat ", " (List.map R.Value.to_string (Array.to_list tuple)))

(* ------------------------------------------------------------------ *)
(* Generated inputs. *)

(* The sweep preset's economy, the same on every seed: economies
   generated from different seeds differ by up to a quarter in serving
   cost (seed 1 against seed 2: 1270 and 1192 against 980 and 987
   requests/s closed loop), which would swamp every bound. The seed
   drives the request stream instead: the query mix, where the
   mutations fall, and the arrival times. *)
let economy () = W.Generator.generate W.Datasets.sweep_params

let tx_rows (sim : W.Generator.sim) (tx : Chain.Tx.t) =
  match Chain.Encode.rows_of_tx ~resolver:sim.W.Generator.resolver tx with
  | Ok rows -> List.map row_text rows
  | Error e -> invalid "encoding %s: %s" tx.Chain.Tx.txid e

let blocks_from (sim : W.Generator.sim) first =
  List.concat (List.filteri (fun i _ -> i >= first) sim.W.Generator.pending_by_block)

let blocks_before (sim : W.Generator.sim) last =
  List.concat (List.filteri (fun i _ -> i < last) sim.W.Generator.pending_by_block)

let query_text sim family variant =
  Bcquery.Query.to_string (Q.instantiate sim family variant)

let write_snapshot dir name db =
  let path = Filename.concat dir name in
  ok_or ("saving " ^ path) (Core.Bcdb_file.save_binary path db);
  path

let file_size path = (Unix.stat path).Unix.st_size

(* ------------------------------------------------------------------ *)
(* Host record. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let git_rev () =
  match String.trim (read_file ".git/HEAD") with
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
      let r = String.sub head 5 (String.length head - 5) in
      (try String.trim (read_file (Filename.concat ".git" r)) with _ -> head)
  | head -> head
  | exception Sys_error _ -> "none (not a git checkout)"

(* Digest of the program's sources, identifying the code measured when
   there is no git metadata. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
           then [ p ]
           else [])
  in
  let all = files "lib" @ files "bin" in
  Digest.to_hex (Digest.string (String.concat "" (List.map read_file all)))

(* A fixed arithmetic loop, timed: logged with every result so a run on
   a slow stretch of a shared host can be told from a regression. *)
let calibration_ms () =
  let loop () =
    let acc = ref 0 in
    for i = 1 to 20_000_000 do
      acc := (!acc * 31) + i
    done;
    Sys.opaque_identity !acc
  in
  Stats.median (Array.init 5 (fun _ -> snd (time loop))) *. 1e3

let host_record ~workload ~seed fields =
  let base =
    [
      ("calibration_ms", Printf.sprintf "%.2f" (calibration_ms ()));
      ("workload", workload);
      ("seed", string_of_int seed);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("git_rev", git_rev ());
      ("src_digest", source_digest ());
    ]
  in
  base @ fields

(* ------------------------------------------------------------------ *)
(* In-process replay of a serve stream: the reference verdicts and,
   when [obs] is enabled, the traced ledger. *)

type replay = {
  verdicts : string option array;  (** Per request; checks only. *)
  req_s : float array;  (** Per-request wall time. *)
  alloc_bytes : float;
  worlds : int;
  cliques : int;
  covered : int;
  prechecked : int;
  naive : int;
  checks : int;
  cache0 : Core.Live.cache_stats;
  cache1 : Core.Live.cache_stats;
  oracle_failures : string list;
  live : Core.Live.t;
}

let replay_serve ~obs ~snapshot ~oracle_at (items : Stream.item array) =
  let db = span obs "snapshot.load" (fun () ->
      ok_or "loading snapshot" (Core.Bcdb_file.load_binary snapshot)) in
  let live = span obs "live.create" (fun () -> Core.Live.create ~obs db) in
  let n = Array.length items in
  let verdicts = Array.make n None and req_s = Array.make n 0.0 in
  let worlds = ref 0 and cliques = ref 0 and covered = ref 0 in
  let prechecked = ref 0 and naive = ref 0 and checks = ref 0 in
  let oracle_failures = ref [] and alloc = ref 0.0 in
  let cache0 = Core.Live.cache_stats live in
  (* The "replay" span delimits the ledger's window. *)
  span obs "replay" @@ fun () ->
  Array.iteri
    (fun i (it : Stream.item) ->
      let a0 = Gc.allocated_bytes () in
      let t0 = Monotime.now () in
      let q =
        span obs "request" (fun () ->
            let catalog = Core.Bcdb.catalog (Core.Live.db live) in
            match it.Stream.req with
            | Stream.Check text -> (
                let q =
                  span obs "parser.parse" (fun () ->
                      ok_or "parsing a query" (Bcquery.Parser.parse ~catalog text))
                in
                match span obs "live.check" (fun () -> Core.Live.check live q) with
                | Error e -> invalid "replay check %d: %s" i e
                | Ok (o, strategy) ->
                    let st = o.Core.Dcsat.stats in
                    incr checks;
                    worlds := !worlds + st.Core.Dcsat.worlds_checked;
                    cliques := !cliques + st.Core.Dcsat.cliques_enumerated;
                    covered := !covered + st.Core.Dcsat.components_covered;
                    if st.Core.Dcsat.precheck_decided then incr prechecked;
                    if strategy = Core.Solver.Naive then incr naive;
                    verdicts.(i) <- Some (verdict_class o.Core.Dcsat.verdict);
                    Some q)
            | Stream.Add { label; rows } ->
                let rows =
                  span obs "rows.parse" (fun () ->
                      List.map
                        (fun r -> ok_or "parsing a row" (Core.Bcdb_file.parse_row catalog r))
                        rows)
                in
                span obs "live.add" (fun () -> Core.Live.add live ~label rows);
                None
            | Stream.Evict l ->
                ok_or "replay evict" (span obs "live.evict" (fun () -> Core.Live.evict live l));
                None
            | Stream.Confirm l ->
                ok_or "replay confirm"
                  (span obs "live.confirm" (fun () -> Core.Live.confirm live l));
                None)
      in
      req_s.(i) <- Monotime.now () -. t0;
      alloc := !alloc +. (Gc.allocated_bytes () -. a0);
      (* The from-scratch oracle: a fresh session over the same database. *)
      match q with
      | Some q when List.mem i oracle_at -> (
          let sess = Core.Session.create (Core.Live.db live) in
          match Core.Solver.solve sess q with
          | Ok (o, _) ->
              let fresh = verdict_class o.Core.Dcsat.verdict in
              if Some fresh <> verdicts.(i) then
                oracle_failures :=
                  Printf.sprintf "request %d: live %s, fresh solve %s" i
                    (Option.value verdicts.(i) ~default:"-") fresh
                  :: !oracle_failures
          | Error e -> oracle_failures := e :: !oracle_failures)
      | _ -> ())
    items;
  {
    verdicts;
    req_s;
    alloc_bytes = !alloc;
    worlds = !worlds;
    cliques = !cliques;
    covered = !covered;
    prechecked = !prechecked;
    naive = !naive;
    checks = !checks;
    cache0;
    cache1 = Core.Live.cache_stats live;
    oracle_failures = !oracle_failures;
    live;
  }

(* Check requests spread evenly over the stream, for the from-scratch
   oracle. *)
let oracle_positions (items : Stream.item array) =
  let checks =
    Array.of_list
      (List.filter
         (fun i -> Stream.is_check items.(i).Stream.req)
         (List.init (Array.length items) Fun.id))
  in
  let n = Array.length checks in
  List.init (min oracle_samples n) (fun k ->
      checks.((k + 1) * n / (oracle_samples + 1)))

(* ------------------------------------------------------------------ *)
(* Layer probes: the public entry points of the layers below the solver,
   timed one at a time on this workload's own inputs. *)

type world_probe = {
  bk_s : float;  (** Bron–Kerbosch over the target graph, no eval. *)
  cliques_n : int;
  get_maximal_us : float;
  switch_us : float;
  eval_us : float;
  big_world_ms : float;
  base_bytes : int;
}

let max_probe_worlds = 4096

(* [graphs]: (graph, id map) pairs whose maximal cliques are the
   probed worlds — Dense's whole fd graph, or the fd subgraphs of a
   serve query's ind-q components. *)
let probe_worlds ~store ~graphs ~q ~big_store ~big_q =
  let bk_s =
    snd
      (time (fun () ->
           List.iter
             (fun (g, _) ->
               Bcgraph.Bron_kerbosch.iter_maximal_cliques g (fun _ -> `Continue))
             graphs))
  in
  let cliques_n =
    List.fold_left
      (fun acc (g, _) -> acc + Bcgraph.Bron_kerbosch.count_maximal_cliques g)
      0 graphs
  in
  let worlds = ref [] and k = ref 0 in
  List.iter
    (fun (g, ids) ->
      Bcgraph.Bron_kerbosch.iter_maximal_cliques g (fun c ->
          if !k >= max_probe_worlds then `Stop
          else begin
            incr k;
            worlds := List.map (fun i -> ids.(i)) c :: !worlds;
            `Continue
          end))
    graphs;
  let worlds = Array.of_list (List.rev !worlds) in
  let k = float_of_int (max 1 (Array.length worlds)) in
  let maximal, gm_s =
    time (fun () -> Array.map (fun c -> Core.Get_maximal.run_list store c) worlds)
  in
  let ev = Core.Inc_eval.evaluator (Core.Inc_eval.plan q) in
  let switch_s = ref 0.0 and eval_s = ref 0.0 in
  Array.iter
    (fun w ->
      let (), s = time (fun () -> Core.Tagged_store.set_world store w) in
      switch_s := !switch_s +. s;
      let _, e = time (fun () -> Core.Inc_eval.eval_bool ev store) in
      eval_s := !eval_s +. e)
    maximal;
  let big =
    let ev = Core.Inc_eval.evaluator ~use_delta:false (Core.Inc_eval.plan big_q) in
    Core.Tagged_store.all_visible big_store;
    Stats.median
      (Array.init 3 (fun _ -> snd (time (fun () -> Core.Inc_eval.eval_bool ev big_store))))
  in
  Core.Tagged_store.base_only store;
  Core.Tagged_store.base_only big_store;
  {
    bk_s;
    cliques_n;
    get_maximal_us = gm_s /. k *. 1e6;
    switch_us = !switch_s /. k *. 1e6;
    eval_us = !eval_s /. k *. 1e6;
    big_world_ms = big *. 1e3;
    base_bytes = Core.Tagged_store.base_bytes big_store;
  }

(* Session precomputation, each structure forced on its own over a
   fresh session: medians of three. *)
let probe_session db =
  let one () =
    let s = Core.Session.create db in
    let _, fd = time (fun () -> Core.Session.fd_graph s) in
    let _, ind = time (fun () -> Core.Session.ind_base_edges s) in
    let _, inc = time (fun () -> Core.Session.includable s) in
    (fd, ind, inc)
  in
  let r = Array.init 3 (fun _ -> one ()) in
  let med f = Stats.median (Array.map f r) in
  (med (fun (a, _, _) -> a), med (fun (_, b, _) -> b), med (fun (_, _, c) -> c))

(* Live operations the workload's own stream does not exercise, run on
   its database so every Live metric is measured on every workload.
   Spans land outside the replay window and so outside the ledger. *)
let probe_live ~obs live ~adds ~evicts ~confirms ~q =
  let check () =
    ignore (span obs "live.check" (fun () -> Core.Live.check live q))
  in
  List.iter
    (fun (label, rows) ->
      let catalog = Core.Bcdb.catalog (Core.Live.db live) in
      let rows =
        span obs "rows.parse" (fun () ->
            List.map (fun r -> ok_or "parsing a row" (Core.Bcdb_file.parse_row catalog r)) rows)
      in
      span obs "live.add" (fun () -> Core.Live.add live ~label rows);
      check ())
    adds;
  List.iter
    (fun l ->
      ok_or "probe evict" (span obs "live.evict" (fun () -> Core.Live.evict live l));
      check ())
    evicts;
  List.iter
    (fun l ->
      ok_or "probe confirm" (span obs "live.confirm" (fun () -> Core.Live.confirm live l));
      check ())
    confirms

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from a traced run. *)

let ledger_of (summary : Obs.summary) =
  match
    List.rev
      (List.filter (fun (s : Obs.span) -> s.Obs.name = "replay") summary.Obs.spans)
  with
  | [] -> invalid "traced replay recorded no replay span"
  | (w : Obs.span) :: _ ->
      Ledger.compute ~lo:w.Obs.start_ns
        ~hi:(Int64.add w.Obs.start_ns w.Obs.dur_ns)
        summary.Obs.spans

let ms_metrics name spans =
  let d = Ledger.durations name spans in
  if Array.length d = 0 then invalid "traced run recorded no %s span" name;
  [
    m (name ^ "_p50_ms") "ms" (Stats.median d *. 1e3);
    m (name ^ "_tail_ms") "ms" (snd (Stats.tail d) *. 1e3);
  ]

let median_span name spans scale =
  let d = Ledger.durations name spans in
  if Array.length d = 0 then invalid "traced run recorded no %s span" name;
  Stats.median d *. scale

type common_layers = {
  summary : Obs.summary;
  ledger : Ledger.t;
  overhead : float;  (** Traced replay time ÷ untraced − 1. *)
  session : float * float * float;
  worlds_probe : world_probe;
  alloc_per_req : float;
  counts : int * int * int * int * int * int;
      (** worlds, cliques, covered, prechecked, naive, checks *)
  cache : Core.Live.cache_stats * Core.Live.cache_stats;
  client_late_tail : float;
  client_backlog : int;
  client_check_tail : float;
  client_mutate_tail : float;
  client_rps : float;  (** Closed loop, requests per second. *)
  client_solve_s : float;  (** Closed-loop pass time. *)
  stats_rtt : float;
}

let layer_metrics (c : common_layers) =
  let spans = c.summary.Obs.spans in
  let worlds, cliques, covered, prechecked, naive, checks = c.counts in
  let c0, c1 = c.cache in
  let hits = c1.Core.Live.cache_hits - c0.Core.Live.cache_hits
  and misses = c1.Core.Live.cache_misses - c0.Core.Live.cache_misses
  and dirty = c1.Core.Live.cache_dirty - c0.Core.Live.cache_dirty
  and ccheck = c1.Core.Live.cache_checks - c0.Core.Live.cache_checks in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let fd, ind, inc = c.session in
  let p = c.worlds_probe in
  [
    m "serve.stats_rtt_ms" "ms" (c.stats_rtt *. 1e3);
    m "parser.parse_ms" "ms" (median_span "parser.parse" spans 1e3);
    m "rows.parse_ms" "ms" (median_span "rows.parse" spans 1e3);
    m "snapshot.load_s" "s" (median_span "snapshot.load" spans 1.0);
  ]
  @ ms_metrics "live.add" spans
  @ ms_metrics "live.evict" spans
  @ ms_metrics "live.confirm" spans
  @ ms_metrics "live.check" spans
  @ [
      m "live.cache_hit_ratio" "frac" (ratio hits (hits + misses));
      m "live.dirty_per_check" "count" (ratio dirty ccheck);
      m "live.create_s" "s" (median_span "live.create" spans 1.0);
      m "session.fd_graph_s" "s" fd;
      m "session.ind_base_s" "s" ind;
      m "session.includable_s" "s" inc;
      m "dcsat.worlds" "count" (float_of_int worlds);
      m "dcsat.cliques" "count" (float_of_int cliques);
      m "dcsat.components_covered" "count" (float_of_int covered);
      m "dcsat.precheck_frac" "frac" (ratio prechecked checks);
      m "solver.naive_frac" "frac" (ratio naive checks);
      m "bk.enum_s" "s" p.bk_s;
      m "bk.cliques" "count" (float_of_int p.cliques_n);
      m "get_maximal.us_per_world" "us" p.get_maximal_us;
      m "store.switch_us_per_world" "us" p.switch_us;
      m "store.base_bytes" "bytes" (float_of_int p.base_bytes);
      m "eval.us_per_world" "us" p.eval_us;
      m "eval.big_world_ms" "ms" p.big_world_ms;
      m "gc.alloc_mb_per_req" "MB" (c.alloc_per_req /. 1048576.0);
      m "client.late_tail_ms" "ms" (c.client_late_tail *. 1e3);
      m "client.backlog_max" "count" (float_of_int c.client_backlog);
      m "client.check_tail_ms" "ms" (c.client_check_tail *. 1e3);
      m "client.mutate_tail_ms" "ms" (c.client_mutate_tail *. 1e3);
      m "client.sustained_rps" "1/s" c.client_rps;
      m "client.solve_s" "s" c.client_solve_s;
      m "trace.overhead_frac" "frac" c.overhead;
      m "unattributed_frac" "frac" c.ledger.Ledger.unattributed_frac;
    ]
  @ List.map
      (fun l -> m ("ledger." ^ l ^ "_frac") "frac" (Ledger.frac c.ledger l))
      Ledger.layers

let log_ledger (l : Ledger.t) =
  log "ledger over %.3f s of replay: %s; unattributed %.1f%%"
    (Int64.to_float l.Ledger.window_ns *. 1e-9)
    (String.concat ", "
       (List.map
          (fun (name, ns) ->
            Printf.sprintf "%s %.1f%%" name
              (100.0 *. Int64.to_float ns /. Int64.to_float (max 1L l.Ledger.window_ns)))
          l.Ledger.self_ns))
    (100.0 *. l.Ledger.unattributed_frac)

(* Spans of the replay window as a Chrome trace (spans shorter than
   5 µs dropped to bound the file). *)
let write_trace path (s : Obs.summary) =
  let spans =
    List.filter (fun (sp : Obs.span) -> sp.Obs.dur_ns >= 5_000L) s.Obs.spans
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Obs.trace_string [ { s with Obs.spans } ]))

(* ------------------------------------------------------------------ *)
(* End to end against the real binary: serve workloads. *)

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  notes : (string * string) list;  (** Host record additions. *)
}

let tally () =
  let attempted = ref 0 and failed = ref 0 in
  let count ok =
    incr attempted;
    if not ok then incr failed
  in
  (attempted, failed, count)

let response_ok ~expected (it : Stream.item) resp =
  match (resp, it.Stream.req, expected) with
  | None, _, _ -> false
  | Some p, Stream.Check _, Some "SATISFIED" -> Frame.status p = "SATISFIED 0"
  | Some p, Stream.Check _, Some "UNSATISFIED" -> Frame.status p = "UNSATISFIED 2"
  | Some _, Stream.Check _, _ -> false
  | Some p, _, _ -> Frame.status p = "OK 0"

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

type serve_run = {
  setup : float array;
  check_lat : float array;
  mut_lat : float array;
  check_kinds : float array list;
  mut_kinds : float array list;
  late : float array;
  backlog_max : int;
  rss_kib : int;
  closed_wall : float;  (** Closed-loop pass time, chunk-median based. *)
  rtt : float;
}

let serve_e2e ~trace ~bcdb ~snapshot ~stderr ~seconds ~count
    (items : Stream.item array) (expected : string option array) =
  let setups = ref [] in
  let start () =
    let c, first, s = Client.start ~bcdb ~snapshot ~stderr in
    count (starts_with ~prefix:"OK 0" first);
    setups := s :: !setups;
    c
  in
  let stop c =
    let code, rss = Client.stop c in
    count (code = 0);
    rss
  in
  (* Set-up samples: a round before the open loop and one after each of
     its segments, so they spread over the run; a slow stretch of the
     host lasts seconds to minutes. The open loop pauses between
     segments, its server idle. *)
  let setup_round () =
    if not trace then
      for _ = 1 to setups_per_round do
        ignore (stop (start ()))
      done
  in
  setup_round ();
  let c = start () in
  log "open loop: %d requests over %.0f s in %d segments" (Array.length items) seconds
    open_segments;
  let n = Array.length items in
  let parts =
    List.init open_segments (fun k ->
        let lo = k * n / open_segments and hi = (k + 1) * n / open_segments in
        let base = if lo < n then items.(lo).Stream.due else 0.0 in
        let part =
          Array.map
            (fun (it : Stream.item) -> { it with Stream.due = it.Stream.due -. base })
            (Array.sub items lo (hi - lo))
        in
        let r = Client.open_loop c ~drain_limit:(1.0 +. (0.25 *. seconds)) part in
        setup_round ();
        r)
  in
  let cat f = Array.concat (List.map f parts) in
  let r =
    {
      Client.responses = cat (fun r -> r.Client.responses);
      latency = cat (fun r -> r.Client.latency);
      late = cat (fun r -> r.Client.late);
      backlog_max = List.fold_left (fun a r -> max a r.Client.backlog_max) 0 parts;
      drain_s = List.fold_left (fun a r -> Float.max a r.Client.drain_s) 0.0 parts;
      dropped = List.find_map (fun r -> r.Client.dropped) parts;
    }
  in
  (match r.Client.dropped with
  | Some "backlog did not drain" ->
      invalid "open loop: backlog still growing %.1f s after the last request"
        r.Client.drain_s
  | Some why -> log "open loop: connection dropped (%s)" why
  | None -> ());
  Array.iteri
    (fun i it -> count (response_ok ~expected:expected.(i) it r.Client.responses.(i)))
    items;
  let pick pred =
    Array.of_list
      (List.filter_map
         (fun i ->
           if pred items.(i).Stream.req && r.Client.responses.(i) <> None then
             Some r.Client.latency.(i)
           else None)
         (List.init (Array.length items) Fun.id))
  in
  let check_lat = pick Stream.is_check
  and mut_lat = pick (fun q -> not (Stream.is_check q)) in
  (* Latencies per kind of request (a query text, or a mutation type:
     add, evict or confirm), each in due order. *)
  let kinds pred =
    let groups = Hashtbl.create 8 in
    Array.iteri
      (fun i (it : Stream.item) ->
        if pred it.Stream.req && r.Client.responses.(i) <> None then
          let p =
            match it.Stream.req with Stream.Check t -> t | q -> Stream.kind q
          in
          Hashtbl.replace groups p
            (r.Client.latency.(i) :: Option.value (Hashtbl.find_opt groups p) ~default:[]))
      items;
    Hashtbl.fold (fun p l acc -> (p, Array.of_list (List.rev l)) :: acc) groups []
    |> List.sort compare |> List.map snd
  in
  let late = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list r.Client.late)) in
  let late_name, late_tail = Stats.tail late in
  log "open loop: check %s" (Stats.describe check_lat);
  log "open loop: mutate %s" (Stats.describe mut_lat);
  log "open loop: send lateness %s %.3f ms, backlog max %d, drain %.3f s" late_name
    (late_tail *. 1e3) r.Client.backlog_max r.Client.drain_s;
  if late_tail > max_late_s then
    invalid "the generator fell behind: send lateness %s %.1f ms" late_name (late_tail *. 1e3);
  let rtt =
    match
      Array.init stats_rtts (fun _ ->
          let resp, dt = Client.roundtrip c "stats" in
          count (starts_with ~prefix:"OK 0" resp);
          dt)
    with
    | a -> Stats.median a
    | exception (Client.Dropped _ | Unix.Unix_error _) -> nan
  in
  let rss_kib = stop c in
  (* The closed loop feeds only per-layer figures: traced runs only. *)
  let closed_wall =
    if not trace then nan
    else begin
      let c = start () in
      let resp, service, wall = Client.closed_loop c items in
      Array.iteri (fun i it -> count (response_ok ~expected:expected.(i) it resp.(i))) items;
      ignore (stop c);
      (* The pass time is the median chunk time times the chunk count,
         so one slow stretch of the host moves one chunk, not the
         figure. *)
      let n = Array.length items in
      let chunk k =
        let lo = k * n / closed_chunks and hi = (k + 1) * n / closed_chunks in
        Array.fold_left ( +. ) 0.0 (Array.sub service lo (hi - lo))
      in
      let pass = Stats.median (Array.init closed_chunks chunk) *. float_of_int closed_chunks in
      log "closed loop: %d requests in %.3f s (chunked pass %.3f s)" n wall pass;
      pass
    end
  in
  {
    setup = Array.of_list (List.rev !setups);
    check_lat;
    mut_lat;
    check_kinds = kinds Stream.is_check;
    mut_kinds = kinds (fun q -> not (Stream.is_check q));
    late;
    backlog_max = r.Client.backlog_max;
    rss_kib;
    closed_wall;
    rtt;
  }

(* A timing figure is the geometric mean, over the kinds of request, of
   each kind's fastest sample. A kind is one query text or batch
   instance, or one mutation type. Noise on a shared host only ever
   adds time, in slow stretches of seconds to minutes that cover a
   varying share of a run, so a kind's best time is its steadiest
   figure (README.md). The geometric mean weighs each kind the same
   whatever its cost. Set-up time is one kind. Latency tails and the closed-loop figures (sustained_rps,
   solve_s) are reported per layer (client.* ) instead: across seeds
   they did not prove steady enough to carry a bound. *)
let e2e_metrics ~setup ~check_kinds ~mut_kinds ~rss_kib =
  let figure what kinds =
    if kinds = [] || List.exists (fun xs -> Array.length xs = 0) kinds then
      invalid "no %s samples recorded" what;
    Stats.geomean
      (Array.of_list (List.map (Array.fold_left Float.min Float.infinity) kinds))
  in
  [
    m "setup_s" "s" (figure "set-up" [ setup ]);
    m "check_ms" "ms" (figure "check" check_kinds *. 1e3);
    m "mutate_ms" "ms" (figure "mutation" mut_kinds *. 1e3);
    m "peak_rss_mb" "MB" (float_of_int rss_kib /. 1024.0);
  ]

type serve_kind = Read | Churn

let labels_of (db : Core.Bcdb.t) =
  Array.to_list (Array.map (fun (p : Core.Pending.t) -> p.Core.Pending.label) db.Core.Bcdb.pending)

let serve_workload kind ~seed ~seconds ~trace ~bcdb ~dir ~stderr =
  let sim = economy () in
  let with_rows (tx : Chain.Tx.t) = (tx.Chain.Tx.txid, tx_rows sim tx) in
  let primary = query_text sim (Q.Qp 3) Q.Unsatisfied in
  let db, items, rate =
    match kind with
    | Read ->
        let db =
          W.Generator.dataset sim ~pending_take:read_pending_blocks ~contradictions ()
        in
        let checks =
          Array.of_list
            (List.concat_map
               (fun f -> [ query_text sim f Q.Satisfied; query_text sim f Q.Unsatisfied ])
               [ Q.Qp 3; Q.Qr 3; Q.Qs ])
        in
        let adds = Array.of_list (List.map with_rows (blocks_from sim read_pending_blocks)) in
        (db, Stream.read_mix ~seed ~rate:read_rate ~seconds ~checks ~adds ~checks_per_add, read_rate)
    | Churn ->
        let db =
          W.Generator.dataset sim ~pending_take:churn_pending_blocks ~contradictions ()
        in
        let held = Array.of_list (List.map with_rows (blocks_from sim churn_pending_blocks)) in
        (* Mined in block order, except the planted payment chain and
           its descendants: confirming the chain moves the fixed
           constraint's violation into R and changes the check path
           mid-run. *)
        let kept = Hashtbl.create 16 in
        List.iter
          (fun (txid, _, _) -> Hashtbl.replace kept txid ())
          sim.W.Generator.planted.W.Generator.chain;
        let confirmable =
          blocks_before sim churn_pending_blocks
          |> List.filter (fun (tx : Chain.Tx.t) ->
                 let spends_kept =
                   List.exists
                     (fun (i : Chain.Tx.input) -> Hashtbl.mem kept i.Chain.Tx.prev.Chain.Tx.txid)
                     tx.Chain.Tx.inputs
                 in
                 if Hashtbl.mem kept tx.Chain.Tx.txid || spends_kept then begin
                   Hashtbl.replace kept tx.Chain.Tx.txid ();
                   false
                 end
                 else true)
          |> List.map (fun (tx : Chain.Tx.t) -> tx.Chain.Tx.txid)
          |> Array.of_list
        in
        let rbf =
          Array.of_list
            (List.map with_rows
               (List.filteri (fun i _ -> i >= contradictions) sim.W.Generator.conflict_pool))
        in
        (db, Stream.churn ~seed ~rate:churn_rate ~seconds ~held ~confirmable ~rbf ~check:primary, churn_rate)
  in
  let snapshot = write_snapshot dir "serve.snap" db in
  ok_or "stream validity" (Stream.validate ~initial:(labels_of db) items);
  let kinds k = Array.fold_left (fun acc (it : Stream.item) -> if Stream.kind it.Stream.req = k then acc + 1 else acc) 0 items in
  let notes =
    [
      ("snapshot_bytes", string_of_int (file_size snapshot));
      ("pending", string_of_int (Core.Bcdb.pending_count db));
      ("state_rows", string_of_int (R.Database.total_cardinality db.Core.Bcdb.state));
      ("rate", Printf.sprintf "%g" rate);
      ("requests", string_of_int (Array.length items));
      ( "mix",
        Printf.sprintf "check=%d add=%d evict=%d confirm=%d" (kinds "check") (kinds "add")
          (kinds "evict") (kinds "confirm") );
    ]
  in
  List.iter (fun (k, v) -> log "%s: %s" k v) notes;
  (* Reference verdicts, before any timing. *)
  let oracle_at = oracle_positions items in
  let ref_run = replay_serve ~obs:Obs.null ~snapshot ~oracle_at items in
  let busy (r : replay) = Array.fold_left ( +. ) 0.0 r.req_s in
  let ref_s = busy ref_run in
  log "untraced replay: %.3f s of requests (%s)" ref_s
    (String.concat ", "
       (List.map
          (fun k ->
            let xs =
              List.filteri (fun i _ -> Stream.kind items.(i).Stream.req = k)
                (Array.to_list ref_run.req_s)
            in
            Printf.sprintf "%s %d in %.3f s" k (List.length xs) (List.fold_left ( +. ) 0.0 xs))
          [ "check"; "add"; "evict"; "confirm" ]));
  let attempted, failed, count = tally () in
  let verdict_count v =
    Array.fold_left (fun n x -> if x = Some v then n + 1 else n) 0 ref_run.verdicts
  in
  log "reference verdicts: SATISFIED %d, UNSATISFIED %d" (verdict_count "SATISFIED")
    (verdict_count "UNSATISFIED");
  List.iter (fun e -> log "oracle: %s" e) ref_run.oracle_failures;
  List.iter (fun _ -> count true) oracle_at;
  List.iter (fun _ -> count false) ref_run.oracle_failures;
  (* Inert-workload guards. *)
  let c0 = ref_run.cache0 and c1 = ref_run.cache1 in
  let hits = c1.Core.Live.cache_hits - c0.Core.Live.cache_hits in
  let dirty = c1.Core.Live.cache_dirty - c0.Core.Live.cache_dirty in
  let classes = Array.to_list ref_run.verdicts |> List.filter_map Fun.id in
  (match kind with
  | Read ->
      if hits = 0 then invalid "serve-read: the verdict cache never hit";
      if ref_run.prechecked = 0 then invalid "serve-read: no precheck-decided check";
      if not (List.mem "UNSATISFIED" classes) then invalid "serve-read: no violated check";
      if kinds "add" = 0 then invalid "serve-read: no add"
  | Churn ->
      if kinds "confirm" = 0 || kinds "evict" = 0 || kinds "add" = 0 then
        invalid "serve-churn: the stream lacks a mutation kind";
      if dirty = 0 then invalid "serve-churn: no check re-solved a dirty component");
  let run =
    serve_e2e ~trace ~bcdb ~snapshot ~stderr ~seconds ~count items ref_run.verdicts
  in
  let metrics =
    if not trace then
      e2e_metrics ~setup:run.setup ~check_kinds:run.check_kinds ~mut_kinds:run.mut_kinds
        ~rss_kib:run.rss_kib
    else begin
      let obs = Obs.create () in
      let traced = replay_serve ~obs ~snapshot ~oracle_at:[] items in
      let traced_s = busy traced in
      Array.iteri
        (fun i v -> if v <> ref_run.verdicts.(i) then invalid "traced replay: verdict %d differs" i)
        traced.verdicts;
      (* Live operations this stream lacks. *)
      let q = ok_or "parsing" (Bcquery.Parser.parse ~catalog:(Core.Bcdb.catalog db) primary) in
      (match kind with
      | Read ->
          let added =
            List.filter_map
              (fun (it : Stream.item) ->
                match it.Stream.req with Stream.Add { label; _ } -> Some label | _ -> None)
              (Array.to_list items)
          in
          let evicts = List.filteri (fun i _ -> i < 6) (List.rev added) in
          let confirms =
            List.filteri (fun i _ -> i < 6)
              (List.map (fun (tx : Chain.Tx.t) -> tx.Chain.Tx.txid) (blocks_before sim 1))
          in
          probe_live ~obs traced.live ~adds:[] ~evicts ~confirms ~q
      | Churn -> ());
      let summary = Obs.summary obs in
      let ledger = ledger_of summary in
      log_ledger ledger;
      write_trace (Filename.concat dir "trace.json") summary;
      let sess = Core.Session.create db in
      let fdg = (Core.Session.fd_graph sess).Core.Fd_graph.graph in
      let graphs =
        List.map (fun comp -> Bcgraph.Undirected.induced fdg comp)
          (Core.Session.ind_components sess q)
      in
      let store = Core.Session.store sess in
      let worlds_probe = probe_worlds ~store ~graphs ~q ~big_store:store ~big_q:q in
      layer_metrics
        {
          summary;
          ledger;
          overhead = (traced_s /. ref_s) -. 1.0;
          session = probe_session db;
          worlds_probe;
          alloc_per_req = ref_run.alloc_bytes /. float_of_int (Array.length items);
          counts =
            ( ref_run.worlds, ref_run.cliques, ref_run.covered, ref_run.prechecked,
              ref_run.naive, ref_run.checks );
          cache = (c0, c1);
          client_late_tail = snd (Stats.tail run.late);
          client_backlog = run.backlog_max;
          client_check_tail = snd (Stats.tail run.check_lat);
          client_mutate_tail = snd (Stats.tail run.mut_lat);
          client_rps = float_of_int (Array.length items) /. run.closed_wall;
          client_solve_s = run.closed_wall;
          stats_rtt = run.rtt;
        }
    end
  in
  { metrics; attempted = !attempted; failed = !failed; notes }

(* ------------------------------------------------------------------ *)
(* batch-solve: cold one-shot `bcdb check` processes. *)

type instance = {
  iname : string;
  snap : string;
  algo : string list;  (** Extra CLI flags. *)
  text : string;
  naive_only : bool;  (** Run NaiveDCSat directly (--algo naive). *)
}

type reference = { cls : string; worlds_checked : int; strategy : string }

(* In-process replay of one pass: the ingest of both dumps, then each
   instance as its own process would run it. *)
let replay_batch ~obs ~dumps instances =
  span obs "replay" @@ fun () ->
  List.iter
    (fun dump ->
      span obs "request" (fun () ->
          let db =
            span obs "ingest.parse" (fun () ->
                ok_or "parsing a dump" (Core.Bcdb_file.of_string (read_file dump)))
          in
          ignore (span obs "ingest.write" (fun () -> Core.Bcdb_file.to_binary_string db))))
    dumps;
  List.map
    (fun inst ->
      span obs "request" (fun () ->
          let db =
            span obs "snapshot.load" (fun () ->
                ok_or "loading snapshot" (Core.Bcdb_file.load_binary inst.snap))
          in
          let q =
            span obs "parser.parse" (fun () ->
                ok_or "parsing a query"
                  (Bcquery.Parser.parse ~catalog:(Core.Bcdb.catalog db) inst.text))
          in
          let sess = span obs "session.create" (fun () -> Core.Session.create ~obs db) in
          if inst.naive_only then
            match Core.Dcsat.naive sess q with
            | Ok o -> (o, "NaiveDCSat")
            | Error r -> invalid "%s: %s" inst.iname (Format.asprintf "%a" Core.Dcsat.pp_refusal r)
          else
            let o, s = ok_or inst.iname (Core.Solver.solve sess q) in
            (o, Core.Solver.strategy_name s)))
    instances

(* "stats: worlds=N ..." of a check's output. *)
let worlds_of_output out =
  List.find_map
    (fun line ->
      if starts_with ~prefix:"stats: worlds=" line then
        Scanf.sscanf_opt line "stats: worlds=%d" Fun.id
      else None)
    (String.split_on_char '\n' out)

let strategy_of_output out =
  List.find_map
    (fun line ->
      if starts_with ~prefix:"strategy: " line then
        Some (String.sub line 10 (String.length line - 10))
      else None)
    (String.split_on_char '\n' out)

let batch_workload ~seed ~seconds ~trace ~bcdb ~dir ~stderr =
  let sim = economy () in
  let sweep = W.Generator.dataset sim ~contradictions () in
  let dense = W.Dense.db ~pairs:dense_pairs in
  let sweep_snap = write_snapshot dir "sweep.snap" sweep in
  let dense_snap = write_snapshot dir "dense.snap" dense in
  let dump name db =
    let path = Filename.concat dir name in
    ok_or ("saving " ^ path) (Core.Bcdb_file.save path db);
    path
  in
  let sweep_dump = dump "sweep.bcdb" sweep in
  let dumps = List.init ingests_per_pass (fun _ -> sweep_dump) in
  (* What `bcdb snapshot --file` must write. *)
  let ingested =
    Core.Bcdb_file.to_binary_string (ok_or "loading a dump" (Core.Bcdb_file.load sweep_dump))
  in
  let instances =
    [
      { iname = "dense"; snap = dense_snap; algo = [ "--algo"; "naive" ];
        text = Bcquery.Query.to_string (W.Dense.query ()); naive_only = true };
      { iname = "qa"; snap = sweep_snap; algo = [];
        text = query_text sim Q.Qa Q.Unsatisfied; naive_only = false };
      { iname = "qp3"; snap = sweep_snap; algo = [];
        text = query_text sim (Q.Qp 3) Q.Unsatisfied; naive_only = false };
    ]
  in
  let setup_text = query_text sim Q.Qs Q.Satisfied in
  let notes =
    [
      ("sweep_snapshot_bytes", string_of_int (file_size sweep_snap));
      ("dense_snapshot_bytes", string_of_int (file_size dense_snap));
      ("pending", string_of_int (Core.Bcdb.pending_count sweep));
      ("dense_pairs", string_of_int dense_pairs);
    ]
  in
  List.iter (fun (k, v) -> log "%s: %s" k v) notes;
  let a0 = Gc.allocated_bytes () in
  let outcomes, ref_s = time (fun () -> replay_batch ~obs:Obs.null ~dumps instances) in
  let alloc_per_req =
    (Gc.allocated_bytes () -. a0) /. float_of_int (List.length dumps + List.length instances)
  in
  log "untraced replay: %.3f s" ref_s;
  let refs =
    List.map2
      (fun inst ((o : Core.Dcsat.outcome), strategy) ->
        log "reference %s: %s via %s, worlds=%d" inst.iname
          (verdict_class o.Core.Dcsat.verdict) strategy o.Core.Dcsat.stats.Core.Dcsat.worlds_checked;
        { cls = verdict_class o.Core.Dcsat.verdict;
          worlds_checked = o.Core.Dcsat.stats.Core.Dcsat.worlds_checked; strategy })
      instances outcomes
  in
  (* Inert-workload guards. *)
  (match refs with
  | [ d; qa; qp3 ] ->
      if d.worlds_checked <> W.Dense.worlds ~pairs:dense_pairs || d.cls <> "SATISFIED" then
        invalid "batch-solve: Dense enumerated %d worlds, not 2^%d" d.worlds_checked dense_pairs;
      if qa.strategy <> "NaiveDCSat" || qa.cls <> "UNSATISFIED" then
        invalid "batch-solve: qa was %s via %s, not UNSATISFIED via NaiveDCSat" qa.cls qa.strategy;
      if qp3.strategy <> "OptDCSat" || qp3.cls <> "UNSATISFIED" then
        invalid "batch-solve: qp3 was %s via %s, not UNSATISFIED via OptDCSat" qp3.cls qp3.strategy
  | _ -> assert false);
  let attempted, failed, count = tally () in
  let run args =
    let (code, out, rss), dt = time (fun () -> Proc.run ~stderr bcdb args) in
    (code, out, rss, dt)
  in
  let peak = ref 0 in
  (* Set-up samples: three before the passes and one after each, so
     they spread over the run. *)
  let setups = ref [] in
  let setup_probe () =
    let code, out, rss, dt = run [ "check"; "--snapshot"; sweep_snap; setup_text ] in
    let words = List.concat_map (String.split_on_char ' ') (String.split_on_char '\n' out) in
    count (code = 0 && List.mem "precheck=true" words);
    peak := max !peak rss;
    setups := dt :: !setups
  in
  for _ = 1 to 3 do setup_probe () done;
  let checks = ref [] and muts = ref [] and passes = ref [] and late = ref [] in
  let per_inst = Hashtbl.create 4 in
  let rates = ref [] and rng = Random.State.make [| seed; 0xba7c |] in
  let t_start = Monotime.now () in
  let last_end = ref t_start in
  let timed args =
    late := (Monotime.now () -. !last_end) :: !late;
    let r = run args in
    last_end := Monotime.now ();
    r
  in
  while
    List.length !passes < 2 || Monotime.now () -. t_start < seconds
  do
    let pass_start = Monotime.now () in
    List.iter
      (fun dump ->
        let out_path = Filename.concat dir "ingest.snap" in
        let code, _, rss, dt = timed [ "snapshot"; "--file"; dump; out_path ] in
        count (code = 0 && Sys.file_exists out_path && read_file out_path = ingested);
        (try Sys.remove out_path with Sys_error _ -> ());
        peak := max !peak rss;
        muts := dt :: !muts)
      dumps;
    (* Instances in a seeded order per pass, so a slow stretch of the
       host does not always land on the same one. *)
    let order = Array.of_list (List.combine instances refs) in
    Stream.shuffle rng order;
    let pass =
      Array.fold_left
        (fun acc (inst, r) ->
          let code, out, rss, dt = timed ([ "check"; "--snapshot"; inst.snap ] @ inst.algo @ [ inst.text ]) in
          let want_code = if r.cls = "SATISFIED" then 0 else 2 in
          let ok =
            code = want_code
            && worlds_of_output out = Some r.worlds_checked
            && strategy_of_output out = Some r.strategy
          in
          if not ok then log "batch %s: exit %d, output %S" inst.iname code out;
          count ok;
          peak := max !peak rss;
          checks := dt :: !checks;
          Hashtbl.replace per_inst inst.iname
            (dt :: Option.value (Hashtbl.find_opt per_inst inst.iname) ~default:[]);
          acc +. dt)
        0.0 order
    in
    passes := pass :: !passes;
    rates :=
      float_of_int (List.length dumps + List.length instances)
      /. (Monotime.now () -. pass_start)
      :: !rates;
    setup_probe ();
    last_end := Monotime.now ()
  done;
  let wall = Monotime.now () -. t_start in
  let passes = Array.of_list !passes in
  log "batch: %d passes in %.3f s, pass %s" (Array.length passes) wall
    (Stats.describe ~scale:1.0 ~unit:"s" passes);
  (* In the order taken. *)
  let in_order l = Array.of_list (List.rev l) in
  let check_lat = in_order !checks and mut_lat = in_order !muts in
  let check_kinds =
    List.map
      (fun inst ->
        let xs = in_order (Option.value (Hashtbl.find_opt per_inst inst.iname) ~default:[]) in
        log "batch: %s %s" inst.iname (Stats.describe xs);
        xs)
      instances
  in
  log "batch: check %s; ingest %s" (Stats.describe check_lat) (Stats.describe mut_lat);
  let metrics =
    if not trace then
      e2e_metrics ~setup:(in_order !setups) ~check_kinds ~mut_kinds:[ mut_lat ] ~rss_kib:!peak
    else begin
      let obs = Obs.create () in
      let traced, traced_s = time (fun () -> replay_batch ~obs ~dumps instances) in
      List.iter2
        (fun ((o : Core.Dcsat.outcome), _) r ->
          if verdict_class o.Core.Dcsat.verdict <> r.cls then invalid "traced replay: verdict differs")
        traced refs;
      let sweep_q = ok_or "parsing" (Bcquery.Parser.parse ~catalog:(Core.Bcdb.catalog sweep)
                                         (List.nth instances 2).text) in
      (* Live never runs in this workload: probe it on the sweep database. *)
      let live = span obs "live.create" (fun () -> Core.Live.create ~obs sweep) in
      let rbf =
        List.filteri (fun i _ -> i >= contradictions && i < contradictions + 6)
          sim.W.Generator.conflict_pool
        |> List.mapi (fun i (tx : Chain.Tx.t) ->
               (Printf.sprintf "%s~p%d" tx.Chain.Tx.txid i, tx_rows sim tx))
      in
      let c0 = Core.Live.cache_stats live in
      probe_live ~obs live ~adds:rbf ~evicts:(List.map fst rbf)
        ~confirms:
          (List.filteri (fun i _ -> i < 6)
             (List.map (fun (tx : Chain.Tx.t) -> tx.Chain.Tx.txid) (blocks_before sim 1)))
        ~q:sweep_q;
      let c1 = Core.Live.cache_stats live in
      (* The serve loop never runs either: time `stats` round trips. *)
      let c, first, _ = Client.start ~bcdb ~snapshot:sweep_snap ~stderr in
      count (starts_with ~prefix:"OK 0" first);
      let rtt = Stats.median (Array.init stats_rtts (fun _ -> snd (Client.roundtrip c "stats"))) in
      count (fst (Client.stop c) = 0);
      let summary = Obs.summary obs in
      let ledger = ledger_of summary in
      log_ledger ledger;
      write_trace (Filename.concat dir "trace.json") summary;
      let dsess = Core.Session.create dense in
      let ssess = Core.Session.create sweep in
      let worlds_probe =
        probe_worlds ~store:(Core.Session.store dsess)
          ~graphs:
            [ (let g = (Core.Session.fd_graph dsess).Core.Fd_graph.graph in
               (g, Array.init (Bcgraph.Undirected.node_count g) Fun.id)) ]
          ~q:(W.Dense.query ()) ~big_store:(Core.Session.store ssess)
          ~big_q:
            (ok_or "parsing" (Bcquery.Parser.parse ~catalog:(Core.Bcdb.catalog sweep)
                                (List.nth instances 1).text))
      in
      let sum f = List.fold_left (fun acc ((o : Core.Dcsat.outcome), _) -> acc + f o) 0 outcomes in
      layer_metrics
        {
          summary;
          ledger;
          overhead = (traced_s /. ref_s) -. 1.0;
          session = probe_session sweep;
          worlds_probe;
          alloc_per_req;
          counts =
            ( sum (fun o -> o.Core.Dcsat.stats.Core.Dcsat.worlds_checked),
              sum (fun o -> o.Core.Dcsat.stats.Core.Dcsat.cliques_enumerated),
              sum (fun o -> o.Core.Dcsat.stats.Core.Dcsat.components_covered),
              sum (fun o -> if o.Core.Dcsat.stats.Core.Dcsat.precheck_decided then 1 else 0),
              List.length (List.filter (fun (_, s) -> s = "NaiveDCSat") outcomes),
              List.length outcomes );
          cache = (c0, c1);
          client_late_tail = snd (Stats.tail (Array.of_list !late));
          client_backlog = 1;
          client_check_tail = snd (Stats.tail check_lat);
          client_mutate_tail = snd (Stats.tail mut_lat);
          client_rps = Stats.median (Array.of_list !rates);
          client_solve_s = Stats.median passes;
          stats_rtt = rtt;
        }
    end
  in
  { metrics; attempted = !attempted; failed = !failed; notes }

(* ------------------------------------------------------------------ *)
(* Entry point. *)

let json_number v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Bcobs.Json.escape x.name)
          (json_number x.value) (Bcobs.Json.escape x.unit))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let bcdb = ref "_build/default/bin/bcdb_cli.exe" and out = ref "_perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-read | serve-churn | batch-solve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured duration");
      ("--trace", Arg.Set_int trace, "0|1 per-layer ledger instead of end-to-end metrics");
      ("--bcdb", Arg.Set_string bcdb, "PATH the bcdb binary");
      ("--out", Arg.Set_string out, "DIR scratch and results directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seconds = !seconds and seed = !seed in
  let bcdb = if Filename.is_relative !bcdb then Filename.concat (Sys.getcwd ()) !bcdb else !bcdb in
  (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat !out (Printf.sprintf "%s-%d-%d" !workload seed (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  let stderr_log = Filename.concat dir "server.stderr" in
  let stderr =
    Unix.openfile stderr_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let code =
    try
      if not (Sys.file_exists bcdb) then invalid "no bcdb binary at %s" bcdb;
      log "generating inputs (workload %s, seed %d)" !workload seed;
      let result =
        match !workload with
        | "serve-read" -> serve_workload Read ~seed ~seconds ~trace ~bcdb ~dir ~stderr
        | "serve-churn" -> serve_workload Churn ~seed ~seconds ~trace ~bcdb ~dir ~stderr
        | "batch-solve" -> batch_workload ~seed ~seconds ~trace ~bcdb ~dir ~stderr
        | w -> invalid "unknown workload %S" w
      in
      List.iter
        (fun x ->
          if not (Float.is_finite x.value) then invalid "metric %s is not finite" x.name)
        result.metrics;
      let host = host_record ~workload:!workload ~seed (("trace", string_of_bool trace) :: result.notes) in
      List.iter (fun (k, v) -> log "host %s: %s" k v) host;
      let record = Filename.concat !out (Printf.sprintf "%s-seed%d-trace%d.txt" !workload seed (Bool.to_int trace)) in
      Out_channel.with_open_text record (fun oc ->
          List.iter (fun (k, v) -> Printf.fprintf oc "%s: %s\n" k v) host;
          List.iter (fun x -> Printf.fprintf oc "%s: %s %s\n" x.name (json_number x.value) x.unit) result.metrics);
      if trace then
        (try Sys.rename (Filename.concat dir "trace.json")
               (Filename.concat !out (!workload ^ ".trace.json"))
         with Sys_error _ -> ());
      log "failed %d of %d requests" result.failed result.attempted;
      print_result ~correct:(result.failed = 0) ~attempted:result.attempted
        ~failed:result.failed result.metrics;
      0
    with Invalid_run msg ->
      log "invalid run: %s" msg;
      1
  in
  Proc.kill_all ();
  Unix.close stderr;
  (if code = 0 then try remove_tree dir with Sys_error _ -> ()
   else log "scratch files kept in %s" dir);
  exit code
