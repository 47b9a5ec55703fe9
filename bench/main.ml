(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7) over the synthetic Bitcoin economy.

   Usage: main.exe [--smoke] [section ...] where a section is one of
   table1 fig6a fig6b fig6c fig6d fig6e fig6f fig6g fig6h datasize
   parallel dense dense-groups evalbench serve ablation scenarios. With no arguments,
   everything runs; `--smoke` alone runs the fixed CI subset,
   `--smoke SECTION...` runs the named sections scaled down. *)

module Core = Bccore
module W = Workload
module E = W.Experiment
module Q = W.Queries

(* ------------------------------------------------------------------ *)
(* Cached simulations and sessions. *)

type simkey = Preset of W.Datasets.preset | Sweep

let sims : (simkey, W.Generator.sim) Hashtbl.t = Hashtbl.create 4

let sim key =
  match Hashtbl.find_opt sims key with
  | Some s -> s
  | None ->
      let params =
        match key with
        | Preset p -> W.Datasets.params p
        | Sweep -> W.Datasets.sweep_params
      in
      let label =
        match key with
        | Preset p -> W.Datasets.name p
        | Sweep -> "D-sweep"
      in
      Printf.printf "[gen] building %s economy...\n%!" label;
      let s = W.Generator.generate params in
      Hashtbl.replace sims key s;
      s

let sessions : (simkey * int option * int, Core.Session.t) Hashtbl.t =
  Hashtbl.create 8

let session key ?pending_take ~contradictions () =
  let k = (key, pending_take, contradictions) in
  match Hashtbl.find_opt sessions k with
  | Some s -> s
  | None ->
      let db = W.Generator.dataset (sim key) ?pending_take ~contradictions () in
      let s = E.session_of db in
      Hashtbl.replace sessions k s;
      s

let default_c = W.Datasets.default_contradictions

(* ------------------------------------------------------------------ *)
(* Table 1: dataset statistics. *)

let table1 () =
  let row preset =
    let s = sim (Preset preset) in
    let st = W.Datasets.state_stats s in
    let take = List.length s.W.Generator.pending_by_block in
    let pd = W.Datasets.pending_stats s ~pending_take:take ~contradictions:default_c in
    [
      [
        W.Datasets.name preset ^ " (state)";
        string_of_int st.W.Datasets.blocks;
        string_of_int st.W.Datasets.transactions;
        string_of_int st.W.Datasets.input_rows;
        string_of_int st.W.Datasets.output_rows;
      ];
      [
        W.Datasets.name preset ^ " (pending)";
        string_of_int pd.W.Datasets.blocks;
        string_of_int pd.W.Datasets.transactions;
        string_of_int pd.W.Datasets.input_rows;
        string_of_int pd.W.Datasets.output_rows;
      ];
    ]
  in
  E.print_table ~title:"Table 1: datasets (scaled; paper: D100/D200/D300)"
    ~columns:[ "Dataset"; "Blocks"; "Transactions"; "Input"; "Output" ]
    ~rows:(List.concat_map row [ W.Datasets.Small; W.Datasets.Mid; W.Datasets.Large ])

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every measurement taken during a run is
   recorded and dumped to BENCH_dcsat.json on exit, so the performance
   trajectory (including jobs=1 vs jobs=N) is trackable across PRs.
   Every series row carries a numeric [x] — the figure's x-axis value
   (pending transactions, contradictions, query size, worker count,
   ...) — so plots can be regenerated from the JSON alone. *)

let bench_json_path = "BENCH_dcsat.json"
let recorded : (string * float * E.measurement) list ref = ref []

(* --trace FILE: every measurement's instrumented run pushes its obs
   summary into this collector; one Chrome trace_event file covering the
   whole bench run is written (and schema-validated) at exit. *)
let trace_out : string option ref = ref None
let trace_collector = Bcobs.Obs.collector ()

let obs_sinks () =
  match !trace_out with
  | Some _ -> [ Bcobs.Obs.collector_sink trace_collector ]
  | None -> []

(* Worker count that the jobs sweep found fastest on the largest
   series; falls back to the runtime's guess when the sweep was not
   among the requested sections. *)
let recommended_domains = ref (Domain.recommended_domain_count ())

(* Failed invariants (e.g. jobs=2 slower than jobs=1); printed at exit
   and turned into a non-zero exit code. *)
let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let record ~figure ~x (m : E.measurement) =
  recorded := (figure, x, m) :: !recorded;
  m

let variant_name = function
  | Q.Satisfied -> "satisfied"
  | Q.Unsatisfied -> "unsatisfied"

let write_bench_json path =
  match !recorded with
  | [] -> ()
  | entries ->
      let buf = Buffer.create 4096 in
      Buffer.add_string buf "{\n";
      Buffer.add_string buf
        (Printf.sprintf "  \"recommended_domains\": %d,\n"
           !recommended_domains);
      Buffer.add_string buf "  \"series\": [\n";
      List.rev entries
      |> List.iteri (fun i (figure, x, (m : E.measurement)) ->
             if i > 0 then Buffer.add_string buf ",\n";
             Buffer.add_string buf
               (* "unknown" records a budget-truncated run. Kept out of
                  [required_keys]: older committed series predate it and
                  must keep validating. *)
               (Printf.sprintf
                  "    {\"figure\": %S, \"label\": %S, \"algo\": %S, \
                   \"variant\": %S, \"jobs\": %d, \"x\": %g, \
                   \"satisfied\": %b, \"unknown\": %b, \"seconds\": %.6f, \
                   \"worlds\": %d, \
                   \"cliques\": %d, \"components\": %d, \
                   \"components_covered\": %d, \"precheck\": %b, \
                   \"obs_worlds\": %d, \"cache_hit_ratio\": %.6f, \
                   \"comp_cache_hit_ratio\": %.6f, \
                   \"worker_util\": %.6f, \"eval_full\": %d, \
                   \"eval_delta\": %d, \"eval_delta_tuples\": %d, \
                   \"eval_delta_ratio\": %.6f, \"base_bytes\": %d, \
                   \"dict_hits\": %d}"
                  figure m.E.label
                  (E.algo_name m.E.algo)
                  (variant_name m.E.variant)
                  m.E.jobs x m.E.satisfied m.E.unknown m.E.seconds
                  m.E.stats.Core.Dcsat.worlds_checked
                  m.E.stats.Core.Dcsat.cliques_enumerated
                  m.E.stats.Core.Dcsat.components_total
                  m.E.stats.Core.Dcsat.components_covered
                  m.E.stats.Core.Dcsat.precheck_decided m.E.obs_worlds
                  m.E.cache_hit_ratio m.E.comp_cache_hit_ratio m.E.worker_util
                  m.E.eval_full
                  m.E.eval_delta m.E.eval_delta_tuples m.E.eval_delta_ratio
                  m.E.base_bytes m.E.dict_hits));
      Buffer.add_string buf "\n  ]\n}\n";
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "\n[json] wrote %s (%d measurements)\n" path
        (List.length entries)

(* Schema smoke-check over a written results file: shape-validates the
   JSON the same way downstream tooling consumes it (one series object
   per line), without pulling in a JSON parser dependency. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let required_keys =
  [
    "\"figure\":"; "\"label\":"; "\"algo\":"; "\"variant\":"; "\"jobs\":";
    "\"x\":"; "\"satisfied\":"; "\"seconds\":"; "\"worlds\":"; "\"cliques\":";
    "\"components\":"; "\"components_covered\":"; "\"precheck\":";
    "\"obs_worlds\":"; "\"cache_hit_ratio\":"; "\"worker_util\":";
    "\"eval_delta_ratio\":";
    (* base_bytes/dict_hits and comp_cache_hit_ratio are
       written but deliberately NOT required: committed series predate
       them and must keep validating. *)
  ]

let validate_bench_json path =
  if not (Sys.file_exists path) then [ Printf.sprintf "%s: missing" path ]
  else begin
    let ic = open_in path in
    let lines = In_channel.input_lines ic in
    close_in ic;
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    if not (List.exists (fun l -> contains l "\"recommended_domains\":") lines)
    then err "%s: no recommended_domains field" path;
    let rows = List.filter (fun l -> contains l "{\"figure\":") lines in
    if rows = [] then err "%s: no series rows" path;
    List.iteri
      (fun i row ->
        List.iter
          (fun key ->
            if not (contains row key) then
              err "%s: series row %d lacks %s" path i key)
          required_keys;
        if
          not
            (contains row "\"algo\": \"NaiveDCSat\""
            || contains row "\"algo\": \"OptDCSat\"")
        then err "%s: series row %d has an unknown algo" path i)
      rows;
    List.rev !errors
  end

(* ------------------------------------------------------------------ *)
(* Fig 6a/6b: query types. *)

let run_measure ?(figure = "adhoc") ?(x = 0.0) ?repeats ?warmup ?summary ?jobs
    ?config ~session ~label ~algo ~variant q =
  record ~figure ~x
    (E.run ?repeats ?warmup ?summary ?jobs ?config ~obs_sinks:(obs_sinks ())
       ~session ~label ~algo ~variant q)

(* The full-evaluation baseline: the incremental layer off. *)
let full_eval = { Core.Dcsat.default with delta = false }

let query_types variant =
  let figure = match variant with Q.Satisfied -> "fig6a" | Q.Unsatisfied -> "fig6b" in
  let s = sim (Preset W.Datasets.Mid) in
  let sess = session (Preset W.Datasets.Mid) ~contradictions:default_c () in
  let families = [ Q.Qs; Q.Qp 3; Q.Qr 3 ] in
  let rows =
    List.mapi
      (fun i family ->
        (* x: ordinal position of the query family on the figure. *)
        let x = float_of_int (i + 1) in
        let q = Q.instantiate s family variant in
        let naive =
          run_measure ~figure ~x ~session:sess ~label:(Q.family_name family)
            ~algo:E.Naive ~variant q
        in
        let opt =
          run_measure ~figure ~x ~session:sess ~label:(Q.family_name family)
            ~algo:E.Opt ~variant q
        in
        [
          Q.family_name family;
          E.ms naive.E.seconds;
          E.ms opt.E.seconds;
          string_of_bool naive.E.satisfied;
        ])
      families
  in
  (* qa is not connected in the OptDCSat sense (aggregate): Naive only,
     as in the paper. *)
  let qa = Q.instantiate s Q.Qa variant in
  let naive_qa =
    run_measure ~figure ~x:(float_of_int (List.length families + 1))
      ~session:sess ~label:"qa" ~algo:E.Naive ~variant qa
  in
  rows
  @ [
      [ "qa"; E.ms naive_qa.E.seconds; "n/a (aggregate)";
        string_of_bool naive_qa.E.satisfied ];
    ]

let fig6a () =
  E.print_table ~title:"Fig 6a: query types (satisfied constraints)"
    ~columns:[ "query"; "NaiveDCSat"; "OptDCSat"; "satisfied" ]
    ~rows:(query_types Q.Satisfied)

let fig6b () =
  E.print_table ~title:"Fig 6b: query types (unsatisfied constraints)"
    ~columns:[ "query"; "NaiveDCSat"; "OptDCSat"; "satisfied" ]
    ~rows:(query_types Q.Unsatisfied)

(* ------------------------------------------------------------------ *)
(* Fig 6c/6d: number of pending transactions. *)

(* Scaling gate on fig6d's NaiveDCSat series: from the 10-block to the
   50-block point, the unsatisfied qp3 solve may grow at most with the
   square of the pending count — the cost of writing the fd graph's
   rows. Steeper growth means per-pair (or worse) bookkeeping in the
   graph layer: the fd-graph pair loop, the degeneracy peel and the
   pivot scan once made this series grow 49x for 4.6x the transactions. *)
let naive_scaling_gate ~small:(n_small, t_small) ~large:(n_large, t_large) =
  let bound = (float_of_int n_large /. float_of_int n_small) ** 2.0 in
  let ratio = t_large /. t_small in
  Printf.printf
    "[fig6d] NaiveDCSat %d -> %d pending txs: %.1fx time (bound %.1fx)\n%!"
    n_small n_large ratio bound;
  if ratio > bound then
    fail
      "fig6d/qp3 (NaiveDCSat): %.1fx time from %d to %d pending txs (%s -> \
       %s), over the quadratic bound %.1fx"
      ratio n_small n_large (E.ms t_small) (E.ms t_large) bound

let pending_sweep variant =
  let figure = match variant with Q.Satisfied -> "fig6c" | Q.Unsatisfied -> "fig6d" in
  let s = sim Sweep in
  let points =
    List.map
      (fun take ->
        let sess =
          session Sweep ~pending_take:take ~contradictions:default_c ()
        in
        let q = Q.instantiate s (Q.Qp 3) variant in
        let count =
          W.Generator.pending_count s ~pending_take:take
            ~contradictions:default_c
        in
        (* x: number of pending transactions, the figure's x-axis. *)
        let x = float_of_int count in
        let naive =
          run_measure ~figure ~x ~session:sess ~label:"qp3" ~algo:E.Naive
            ~variant q
        in
        let opt =
          run_measure ~figure ~x ~session:sess ~label:"qp3" ~algo:E.Opt
            ~variant q
        in
        (take, count, naive.E.seconds, opt.E.seconds))
      [ 10; 20; 30; 40; 50 ]
  in
  if variant = Q.Unsatisfied then begin
    let naive_at t =
      List.find_map
        (fun (take, count, naive, _) ->
          if take = t then Some (count, naive) else None)
        points
      |> Option.get
    in
    naive_scaling_gate ~small:(naive_at 10) ~large:(naive_at 50)
  end;
  List.map
    (fun (take, count, naive, opt) ->
      [ string_of_int take; string_of_int count; E.ms naive; E.ms opt ])
    points

let fig6c () =
  E.print_table ~title:"Fig 6c: pending transactions (satisfied)"
    ~columns:[ "blocks"; "pending txs"; "NaiveDCSat"; "OptDCSat" ]
    ~rows:(pending_sweep Q.Satisfied)

let fig6d () =
  E.print_table ~title:"Fig 6d: pending transactions (unsatisfied)"
    ~columns:[ "blocks"; "pending txs"; "NaiveDCSat"; "OptDCSat" ]
    ~rows:(pending_sweep Q.Unsatisfied)

(* ------------------------------------------------------------------ *)
(* Fig 6e/6f: number of fd contradictions. *)

let contradiction_sweep variant =
  let figure = match variant with Q.Satisfied -> "fig6e" | Q.Unsatisfied -> "fig6f" in
  let s = sim (Preset W.Datasets.Mid) in
  List.map
    (fun c ->
      let sess = session (Preset W.Datasets.Mid) ~contradictions:c () in
      let q = Q.instantiate s (Q.Qp 3) variant in
      (* x: number of injected fd contradictions. *)
      let x = float_of_int c in
      let naive =
        run_measure ~figure ~x ~session:sess ~label:"qp3" ~algo:E.Naive
          ~variant q
      in
      let opt =
        run_measure ~figure ~x ~session:sess ~label:"qp3" ~algo:E.Opt ~variant q
      in
      [ string_of_int c; E.ms naive.E.seconds; E.ms opt.E.seconds ])
    [ 10; 20; 30; 40; 50 ]

let fig6e () =
  E.print_table ~title:"Fig 6e: fd contradictions (satisfied)"
    ~columns:[ "contradictions"; "NaiveDCSat"; "OptDCSat" ]
    ~rows:(contradiction_sweep Q.Satisfied)

let fig6f () =
  E.print_table ~title:"Fig 6f: fd contradictions (unsatisfied)"
    ~columns:[ "contradictions"; "NaiveDCSat"; "OptDCSat" ]
    ~rows:(contradiction_sweep Q.Unsatisfied)

(* ------------------------------------------------------------------ *)
(* Fig 6g: query size (path lengths 2..5, unsatisfied). *)

let fig6g () =
  let s = sim (Preset W.Datasets.Mid) in
  let sess = session (Preset W.Datasets.Mid) ~contradictions:default_c () in
  let rows =
    List.map
      (fun i ->
        let q = Q.instantiate s (Q.Qp i) Q.Unsatisfied in
        (* x: the path length of the query. *)
        let x = float_of_int i in
        let naive =
          run_measure ~figure:"fig6g" ~x ~session:sess
            ~label:(Printf.sprintf "qp%d" i)
            ~algo:E.Naive ~variant:Q.Unsatisfied q
        in
        let opt =
          run_measure ~figure:"fig6g" ~x ~session:sess
            ~label:(Printf.sprintf "qp%d" i)
            ~algo:E.Opt ~variant:Q.Unsatisfied q
        in
        [ Printf.sprintf "qp%d" i; E.ms naive.E.seconds; E.ms opt.E.seconds ])
      [ 2; 3; 4; 5 ]
  in
  E.print_table ~title:"Fig 6g: query sizes (unsatisfied)"
    ~columns:[ "query"; "NaiveDCSat"; "OptDCSat" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Fig 6h: data sizes (comparable pending sets, unsatisfied). *)

let fig6h_take preset =
  (* Aim for roughly equal pending sets across presets. *)
  let p = W.Datasets.params preset in
  max 1 (300 / p.W.Generator.txs_per_block)

let fig6h () =
  let rows =
    List.map
      (fun preset ->
        let s = sim (Preset preset) in
        let take = fig6h_take preset in
        let sess =
          session (Preset preset) ~pending_take:take ~contradictions:default_c ()
        in
        let q = Q.instantiate s (Q.Qp 3) Q.Unsatisfied in
        let st = W.Datasets.state_stats s in
        (* x: total state rows — the figure's dataset-size axis. *)
        let x =
          float_of_int (st.W.Datasets.input_rows + st.W.Datasets.output_rows)
        in
        let naive =
          run_measure ~figure:"fig6h" ~x ~session:sess ~label:"qp3"
            ~algo:E.Naive ~variant:Q.Unsatisfied q
        in
        let opt =
          run_measure ~figure:"fig6h" ~x ~session:sess ~label:"qp3" ~algo:E.Opt
            ~variant:Q.Unsatisfied q
        in
        let pending =
          W.Generator.pending_count s ~pending_take:take
            ~contradictions:default_c
        in
        [
          W.Datasets.name preset;
          string_of_int (st.W.Datasets.input_rows + st.W.Datasets.output_rows);
          string_of_int pending;
          E.ms naive.E.seconds;
          E.ms opt.E.seconds;
        ])
      [ W.Datasets.Small; W.Datasets.Mid; W.Datasets.Large ]
  in
  E.print_table ~title:"Fig 6h: data sizes (unsatisfied)"
    ~columns:[ "dataset"; "state rows"; "pending txs"; "NaiveDCSat"; "OptDCSat" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Data sizes at paper scale (`make bench-data`): columnar Huge states,
   cold generator build + solve vs binary snapshot save / restore +
   re-solve. In full mode the restore must be at least 10x faster than
   the generator build, and the restored session's verdicts must match
   the cold session's — either miss fails the bench. Smoke mode runs
   one CI-sized state and only logs the ratio (too small for the 10x
   bound to be meaningful). *)

(* Set when named sections run under --smoke; only [datasize] consults
   it (the other sections' cost is governed by which ones are named). *)
let smoke_flag = ref false

let datasize () =
  let sizes =
    if !smoke_flag then [ W.Huge.smoke ]
    else
      [
        { W.Huge.default with W.Huge.rows = 1_000_000 };
        W.Huge.default (* 10M rows *);
      ]
  in
  let measure_size p =
    let rows = p.W.Huge.rows in
    Printf.printf "[datasize] building %s (%d rows)...\n%!" (W.Huge.name p)
      rows;
    let t0 = Bcobs.Monotime.now () in
    let db = W.Huge.generate p in
    let build_s = Bcobs.Monotime.elapsed ~since:t0 in
    let sess = E.session_of db in
    let x = float_of_int rows in
    let q_hit = W.Huge.query_hit () and q_miss = W.Huge.query_miss () in
    (* The hit query matches in the worlds containing the marked
       transaction, so its denial constraint is unsatisfied; the miss
       query matches nowhere, so its constraint holds in every world. *)
    let hit =
      run_measure ~figure:"datasize" ~x ~session:sess ~label:"huge-hit"
        ~algo:E.Opt ~variant:Q.Unsatisfied q_hit
    in
    let miss =
      run_measure ~figure:"datasize" ~x ~session:sess ~label:"huge-miss"
        ~algo:E.Opt ~variant:Q.Satisfied q_miss
    in
    let snap = Filename.temp_file "bcdb-bench" ".snap" in
    let t0 = Bcobs.Monotime.now () in
    (match Core.Bcdb_file.save_binary snap db with
    | Ok () -> ()
    | Error e -> fail "datasize (%d rows): save_binary: %s" rows e);
    let save_s = Bcobs.Monotime.elapsed ~since:t0 in
    (* The restore models a fresh-process restart (the snapshot's whole
       point), so the cold build's and the save buffer's GC debt — paid
       here, outside any timed region — must not bill to the load. *)
    Gc.compact ();
    let t0 = Bcobs.Monotime.now () in
    let restored =
      match Core.Bcdb_file.load_binary snap with
      | Ok db' -> db'
      | Error e ->
          fail "datasize (%d rows): load_binary: %s" rows e;
          db
    in
    let load_s = Bcobs.Monotime.elapsed ~since:t0 in
    Sys.remove snap;
    let sess' = E.session_of restored in
    let check label (cold : E.measurement) q variant =
      let warm =
        E.run ~obs_sinks:(obs_sinks ()) ~session:sess'
          ~label:(label ^ "-restored") ~algo:E.Opt ~variant q
      in
      if warm.E.satisfied <> cold.E.satisfied || warm.E.unknown <> cold.E.unknown
      then
        fail
          "datasize (%d rows): restored %s disagrees with cold build \
           (satisfied %b/%b vs %b/%b)"
          rows label warm.E.satisfied warm.E.unknown cold.E.satisfied
          cold.E.unknown;
      ignore (record ~figure:"datasize" ~x warm)
    in
    check "huge-hit" hit q_hit Q.Unsatisfied;
    check "huge-miss" miss q_miss Q.Satisfied;
    (* Build/save/load timings, recorded as series rows derived from a
       real measurement so every schema key is present. *)
    ignore
      (record ~figure:"datasize" ~x
         { hit with E.label = "cold-build"; seconds = build_s });
    ignore
      (record ~figure:"datasize" ~x
         { hit with E.label = "snapshot-save"; seconds = save_s });
    ignore
      (record ~figure:"datasize" ~x
         { hit with E.label = "snapshot-load"; seconds = load_s });
    let ratio = build_s /. Float.max 1e-9 load_s in
    if !smoke_flag then
      Printf.printf
        "[datasize] %d rows: build %s, save %s, load %s (%.1fx; 10x bound \
         not enforced in smoke mode)\n\
         %!"
        rows (E.ms build_s) (E.ms save_s) (E.ms load_s) ratio
    else if ratio < 10.0 then
      fail
        "datasize (%d rows): load_binary %.3fs is only %.1fx faster than the \
         %.3fs generator build (need >=10x)"
        rows load_s ratio build_s;
    [
      W.Huge.name p;
      string_of_int rows;
      Printf.sprintf "%.1f MB" (float_of_int hit.E.base_bytes /. 1e6);
      E.ms build_s;
      E.ms save_s;
      E.ms load_s;
      Printf.sprintf "%.0fx" ratio;
      E.ms hit.E.seconds;
      E.ms miss.E.seconds;
    ]
  in
  E.print_table
    ~title:"Data sizes: cold build vs binary snapshot restore (OptDCSat)"
    ~columns:
      [
        "dataset"; "rows"; "base"; "build"; "save"; "load"; "build/load";
        "q-hit"; "q-miss";
      ]
    ~rows:(List.map measure_size sizes)

(* ------------------------------------------------------------------ *)
(* Parallel engine: jobs=1 vs jobs=2 on the unsatisfied-constraint
   figures (OptDCSat spreads its covered components; NaiveDCSat is one
   group on one worker at any jobs), plus a wider jobs sweep on the
   largest series from which the recommended worker count is
   recomputed.

   The parallel backend's fixed overhead (waking one parked helper,
   joining it) is far below scheduler noise on these solve times, so
   each jobs=1/jobs=2 pair is measured warm with a min-of-repeats
   summary, and the pair is re-measured a few times if the ordering
   comes out inverted — the minimum of enough runs estimates the true
   floor of both backends. If jobs=2 still measures slower, that is a
   real regression: it is reported and the bench exits non-zero. *)

let jobs_attempts = 6

let paired_jobs ~figure ~label ~session ~algo q =
  (* [full_eval] — the pair compares engine backends on full
     evaluations. With the incremental layer on, whichever side runs
     second replays the first side's cached worlds and the comparison
     measures cache luck, not backend overhead. *)
  let measure jobs =
    E.run ~repeats:5 ~warmup:1 ~summary:`Min ~jobs ~config:full_eval
      ~obs_sinks:(obs_sinks ()) ~session ~label ~algo ~variant:Q.Unsatisfied q
  in
  let rec attempt n best =
    let seq = measure 1 in
    let par = measure 2 in
    let gap = par.E.seconds -. seq.E.seconds in
    let best =
      match best with Some (_, _, g) when g <= gap -> best | _ -> Some (seq, par, gap)
    in
    if gap <= 0.0 || n >= jobs_attempts then Option.get best
    else attempt (n + 1) best
  in
  let seq, par, gap = attempt 1 None in
  if gap > 0.0 && algo = E.Opt then
    fail
      "%s/%s (%s): jobs=2 slower than jobs=1 (%.4fs vs %.4fs) after %d \
       paired attempts"
      figure label (E.algo_name algo) par.E.seconds seq.E.seconds
      jobs_attempts;
  let seq = record ~figure ~x:1.0 seq in
  let par = record ~figure ~x:2.0 par in
  [
    figure ^ "/" ^ label;
    E.algo_name algo;
    E.ms seq.E.seconds;
    E.ms par.E.seconds;
    Printf.sprintf "%.2fx" (seq.E.seconds /. par.E.seconds);
  ]

(* Sweep worker counts on the largest series (fig6d's 50-block point)
   and recompute the recommended worker count from the measurements —
   the runtime's [Domain.recommended_domain_count] reflects the host's
   core count, not this workload. *)
let jobs_sweep () =
  let s = sim Sweep in
  let sess = session Sweep ~pending_take:50 ~contradictions:default_c () in
  let q = Q.instantiate s (Q.Qp 3) Q.Unsatisfied in
  let candidates = [ 1; 2; 4 ] in
  let measured =
    List.map
      (fun jobs ->
        let m =
          (* [full_eval] for the same reason as [paired_jobs]. *)
          run_measure ~figure:"jobs_sweep" ~x:(float_of_int jobs) ~repeats:5
            ~warmup:1 ~summary:`Min ~jobs ~config:full_eval ~session:sess
            ~label:"qp3" ~algo:E.Opt ~variant:Q.Unsatisfied q
        in
        (jobs, m.E.seconds))
      candidates
  in
  let best_jobs, _ =
    List.fold_left
      (fun (bj, bs) (j, s) -> if s < bs then (j, s) else (bj, bs))
      (List.hd measured) (List.tl measured)
  in
  recommended_domains := best_jobs;
  E.print_table
    ~title:
      (Printf.sprintf
         "Jobs sweep (OptDCSat, D-sweep/50 blocks): recommended_domains = %d \
          (runtime suggests %d)"
         best_jobs
         (Domain.recommended_domain_count ()))
    ~columns:[ "jobs"; "seconds" ]
    ~rows:
      (List.map
         (fun (j, s) -> [ string_of_int j; E.ms s ])
         measured)

let parallel () =
  let s = sim Sweep in
  let sess = session Sweep ~pending_take:50 ~contradictions:default_c () in
  let s_mid = sim (Preset W.Datasets.Mid) in
  let mid_sess = session (Preset W.Datasets.Mid) ~contradictions:default_c () in
  let row ~figure ~label ~sim:s ~session:sess ~algo family =
    let q = Q.instantiate s family Q.Unsatisfied in
    paired_jobs ~figure ~label ~session:sess ~algo q
  in
  let rows =
    [
      row ~figure:"fig6d-jobs" ~label:"qp3" ~sim:s ~session:sess ~algo:E.Naive
        (Q.Qp 3);
      row ~figure:"fig6d-jobs" ~label:"qp3" ~sim:s ~session:sess ~algo:E.Opt
        (Q.Qp 3);
      row ~figure:"fig6b-jobs" ~label:"qr3" ~sim:s_mid ~session:mid_sess
        ~algo:E.Naive (Q.Qr 3);
      row ~figure:"fig6g-jobs" ~label:"qp5" ~sim:s_mid ~session:mid_sess
        ~algo:E.Opt (Q.Qp 5);
    ]
  in
  E.print_table
    ~title:"Parallel engine: jobs=1 vs jobs=2 (unsatisfied, min of 5 warm runs)"
    ~columns:[ "workload"; "algo"; "jobs=1"; "jobs=2"; "speedup" ]
    ~rows;
  jobs_sweep ()

(* ------------------------------------------------------------------ *)
(* Dense-component worst case: one cocktail-party compatibility graph
   K_{pairs x 2} whose 2^pairs maximal worlds all live in a single
   component. NaiveDCSat must grind through every world (the query is
   true over R ∪ T but false in each world), and all of them form one
   engine group walked by one worker: the engine never splits a clique
   stream between workers, because that did not pay (EXPERIMENTS.md,
   "Where parallelism pays"). The jobs rows record what the idle
   helpers cost, with worker_util per row; the jobs gates live on
   [dense-groups], where jobs can win.

   OptDCSat dissolves this workload outright — its component split
   yields one 2-clique component per pair, 2·pairs worlds instead of
   2^pairs — so one Opt row is recorded as the contrast, not raced. It
   is measured first, as the minimum of 5 solves: after the 2^pairs
   world solves its sub-millisecond time would measure their heap. *)

let dense_pairs () = if !smoke_flag then 12 else 20

let dense_session pairs = E.session_of (W.Dense.db ~pairs)

let dense_measure ~session ~figure ~x ~jobs label =
  run_measure ~figure ~x ~repeats:1 ~summary:`Min ~jobs ~config:full_eval
    ~session ~label ~algo:E.Naive ~variant:Q.Satisfied (W.Dense.query ())

(* worker_util = Σ world evaluation time / (jobs × runtime). One worker's
   worlds run one after another inside the solve, so their sum is at
   most the runtime: a jobs=2 run whose utilization exceeds 1/2
   evaluated on both workers. *)
let second_worker_evaluated (m : E.measurement) =
  m.E.jobs = 2 && m.E.worker_util > 0.5

let dense () =
  let pairs = dense_pairs () in
  let worlds = W.Dense.worlds ~pairs in
  let label = Printf.sprintf "dense-%dp" pairs in
  let sess = dense_session pairs in
  let opt =
    run_measure ~figure:"dense" ~x:(float_of_int worlds) ~repeats:5
      ~summary:`Min ~config:full_eval ~session:sess ~label ~algo:E.Opt
      ~variant:Q.Satisfied (W.Dense.query ())
  in
  let check_exhaustive (m : E.measurement) =
    if (not m.E.satisfied) || m.E.stats.Core.Dcsat.worlds_checked <> worlds
    then
      fail "dense/%s (jobs=%d): expected SATISFIED over %d worlds, got %s/%d"
        label m.E.jobs worlds
        (if m.E.satisfied then "SATISFIED" else "not-satisfied")
        m.E.stats.Core.Dcsat.worlds_checked;
    m
  in
  let measure jobs =
    check_exhaustive
      (dense_measure ~session:sess ~figure:"dense-jobs" ~x:(float_of_int jobs)
         ~jobs label)
  in
  let m1 = measure 1 in
  let m2 = measure 2 in
  let m4 = measure 4 in
  E.print_table
    ~title:
      (Printf.sprintf
         "Dense component (K_{%dx2}, %d maximal worlds, NaiveDCSat, \
          delta off)"
         pairs worlds)
    ~columns:
      [ "run"; "jobs"; "seconds"; "worlds"; "util" ]
    ~rows:
      (List.map
         (fun (name, (m : E.measurement)) ->
           [
             name;
             string_of_int m.E.jobs;
             E.ms m.E.seconds;
             string_of_int m.E.stats.Core.Dcsat.worlds_checked;
             Printf.sprintf "%.2f" m.E.worker_util;
           ])
         [
           ("opt-contrast", opt);
           ("one group", m1);
           ("one group", m2);
           ("one group", m4);
         ])

(* ------------------------------------------------------------------ *)
(* Grouped dense components (Dense.grouped): [groups] satisfied
   components of 2^pairs worlds each, so OptDCSat walks every world of
   every component, and each component is one engine group — the regime
   where workers share the work. Default config, min of 3 solves, and a
   fresh session per jobs value, so that no run replays the world
   caches of another.

   Gates: jobs=2 must not be slower than jobs=1, and jobs=4 must be
   >= 2x faster, but only on hosts with enough cores to make the bound
   physically meaningful (a single-core host cannot exhibit parallel
   speedup, only scheduler interleaving); on such hosts the sweep is
   recorded and the gate logged as vacuous. At smoke scale only the
   second worker must engage. *)

let dense_groups_shape () = if !smoke_flag then (8, 9) else (8, 13)

let dense_groups_measure ~jobs =
  let groups, pairs = dense_groups_shape () in
  let label = Printf.sprintf "dense-groups-%dx%dp" groups pairs in
  let worlds = W.Dense.grouped_worlds ~groups ~pairs in
  let m =
    run_measure ~figure:"dense-groups" ~x:(float_of_int jobs) ~repeats:3
      ~summary:`Min ~jobs
      ~session:(E.session_of (W.Dense.grouped ~groups ~pairs))
      ~label ~algo:E.Opt ~variant:Q.Satisfied
      (W.Dense.grouped_query ())
  in
  if (not m.E.satisfied) || m.E.stats.Core.Dcsat.worlds_checked <> worlds then
    fail "dense-groups/%s (jobs=%d): expected SATISFIED over %d worlds, got %s/%d"
      label jobs worlds
      (if m.E.satisfied then "SATISFIED" else "not-satisfied")
      m.E.stats.Core.Dcsat.worlds_checked;
  m

let dense_groups () =
  let m1 = dense_groups_measure ~jobs:1 in
  let m2 = dense_groups_measure ~jobs:2 in
  let label = m2.E.label in
  if !smoke_flag then begin
    if not (second_worker_evaluated m2) then
      fail "dense-groups/%s: jobs=2 run never evaluated on a second worker \
            (worker_util %.2f)"
        label m2.E.worker_util
  end
  else begin
    let m4 = dense_groups_measure ~jobs:4 in
    let cores = Domain.recommended_domain_count () in
    if cores < 2 then
      Printf.printf
        "[dense-groups] single-core host (%d): jobs gates vacuous (jobs=1 \
         %s, jobs=2 %s, jobs=4 %s)\n\
         %!"
        cores (E.ms m1.E.seconds) (E.ms m2.E.seconds) (E.ms m4.E.seconds)
    else begin
      if m2.E.seconds > m1.E.seconds then
        fail "dense-groups/%s: jobs=2 slower than jobs=1 (%.4fs vs %.4fs)"
          label m2.E.seconds m1.E.seconds;
      if cores >= 4 && m4.E.seconds > m1.E.seconds /. 2.0 then
        fail
          "dense-groups/%s: jobs=4 not >=2x faster than jobs=1 (%.4fs vs \
           %.4fs)"
          label m4.E.seconds m1.E.seconds
    end;
    E.print_table
      ~title:
        (Printf.sprintf "Grouped dense components (%s, OptDCSat, min of 3)"
           label)
      ~columns:[ "jobs"; "seconds"; "worlds"; "util" ]
      ~rows:
        (List.map
           (fun (m : E.measurement) ->
             [
               string_of_int m.E.jobs;
               E.ms m.E.seconds;
               string_of_int m.E.stats.Core.Dcsat.worlds_checked;
               Printf.sprintf "%.2f" m.E.worker_util;
             ])
           [ m1; m2; m4 ])
  end

(* ------------------------------------------------------------------ *)
(* Eval layer micro-benchmark (`make bench-eval`): the incremental
   evaluation layer (Inc_eval — per-store world caches, replay,
   delta-seeded search) against the full-evaluation baseline on the
   same workloads. Warm repeated solves are the layer's target setting:
   a validator re-checks the same denial constraints as pending
   transactions trickle in. *)

let evalbench () =
  let s = sim Sweep in
  let sess = session Sweep ~pending_take:50 ~contradictions:default_c () in
  let s_mid = sim (Preset W.Datasets.Mid) in
  let mid_sess = session (Preset W.Datasets.Mid) ~contradictions:default_c () in
  let row ?(precheck = false) ~label ~session:sess ~algo ~variant q =
    let measure delta x =
      run_measure ~figure:"evalbench" ~x ~repeats:5 ~warmup:1 ~summary:`Min
        ~config:{ Core.Dcsat.default with delta } ~session:sess ~label ~algo
        ~variant q
    in
    (* Baseline first so the incremental side cannot inherit its cached
       worlds — each measure's warmup run warms its own caches. *)
    let full = measure false 0.0 in
    let inc = measure true 1.0 in
    let st = inc.E.stats in
    (* A precheck-decided row reads R ∪ T outside the world cache, so it
       can record no eval.delta: it must stay decided that way instead.
       Every row that evaluates a world must replay or delta-seed. *)
    if precheck then begin
      if
        (not st.Core.Dcsat.precheck_decided) || st.Core.Dcsat.worlds_checked <> 0
      then
        fail
          "evalbench/%s (%s): expected a precheck-decided row with 0 worlds, \
           got precheck=%b worlds=%d"
          label (E.algo_name algo) st.Core.Dcsat.precheck_decided
          st.Core.Dcsat.worlds_checked
    end
    else if st.Core.Dcsat.worlds_checked >= 1 && inc.E.eval_delta = 0 then
      fail "evalbench/%s (%s): incremental run recorded no eval.delta" label
        (E.algo_name algo);
    [
      label;
      E.algo_name algo;
      E.ms full.E.seconds;
      E.ms inc.E.seconds;
      Printf.sprintf "%.1fx" (full.E.seconds /. max 1e-9 inc.E.seconds);
      Printf.sprintf "%d/%d" inc.E.eval_delta
        (inc.E.eval_full + inc.E.eval_delta);
    ]
  in
  let groups, pairs = (8, 9) in
  let rows =
    [
      row ~label:"qp3-unsat-50blk" ~session:sess ~algo:E.Naive
        ~variant:Q.Unsatisfied (Q.instantiate s (Q.Qp 3) Q.Unsatisfied);
      row ~label:"qp3-unsat-50blk" ~session:sess ~algo:E.Opt
        ~variant:Q.Unsatisfied (Q.instantiate s (Q.Qp 3) Q.Unsatisfied);
      row ~precheck:true ~label:"qp3-sat-mid" ~session:mid_sess ~algo:E.Opt
        ~variant:Q.Satisfied (Q.instantiate s_mid (Q.Qp 3) Q.Satisfied);
      row ~precheck:true ~label:"qa-sat-mid" ~session:mid_sess ~algo:E.Naive
        ~variant:Q.Satisfied (Q.instantiate s_mid Q.Qa Q.Satisfied);
      row
        ~label:(Printf.sprintf "dense-groups-%dx%dp" groups pairs)
        ~session:(E.session_of (W.Dense.grouped ~groups ~pairs))
        ~algo:E.Opt ~variant:Q.Satisfied (W.Dense.grouped_query ());
    ]
  in
  E.print_table
    ~title:
      "Eval layer: full re-evaluation vs incremental (warm, min of 5 runs)"
    ~columns:
      [ "workload"; "algo"; "full"; "incremental"; "speedup"; "delta/evals" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out, each toggled
   individually. *)

let time_runs n f =
  let t0 = Bcobs.Monotime.now () in
  for _ = 1 to n do
    f ()
  done;
  Bcobs.Monotime.elapsed ~since:t0 /. float_of_int n

let ablation () =
  let s = sim Sweep in
  let sess = session Sweep ~pending_take:40 ~contradictions:default_c () in
  let q_sat = Q.instantiate s (Q.Qp 3) Q.Satisfied in
  let q_unsat = Q.instantiate s (Q.Qp 3) Q.Unsatisfied in
  let ok = function
    | Ok (o : Core.Dcsat.outcome) -> ignore o.Core.Dcsat.satisfied
    | Error _ -> failwith "refused"
  in
  (* 1. Dry-run session extension vs full rebuild per what-if. *)
  let hypothetical =
    [
      ( "TxOut",
        Relational.Tuple.make
          [
            Relational.Value.Str "hypothetical-tx";
            Relational.Value.Int 0;
            Relational.Value.Str "PKhypothetical";
            Relational.Value.Int 1234;
          ] );
    ]
  in
  let dry_run_time =
    time_runs 5 (fun () ->
        Core.Dry_run.with_transaction sess hypothetical (fun extended _ ->
            ignore (Core.Session.fd_graph extended);
            ok (Core.Dcsat.opt extended q_unsat)))
  in
  let rebuild_time =
    time_runs 3 (fun () ->
        let db' =
          Core.Bcdb.with_pending (Core.Session.db sess) hypothetical
        in
        let fresh = E.session_of db' in
        ok (Core.Dcsat.opt fresh q_unsat))
  in
  (* 2. The R ∪ T pre-check, on a satisfied constraint. *)
  let precheck_on = time_runs 5 (fun () -> ok (Core.Dcsat.opt sess q_sat)) in
  let precheck_off =
    time_runs 3 (fun () ->
        ok
          (Core.Dcsat.opt
             ~config:{ Core.Dcsat.default with precheck = false }
             sess q_sat))
  in
  (* 3. Tractable PTIME procedure vs generic clique enumeration, on a
     key-only variant of the same data. *)
  let db = Core.Session.db sess in
  let key_only =
    List.filter
      (fun c ->
        match c with
        | Relational.Constr.Fd _ -> true
        | Relational.Constr.Ind _ -> false)
      db.Core.Bcdb.constraints
  in
  let fd_only_db =
    Core.Bcdb.create_exn ~state:db.Core.Bcdb.state ~constraints:key_only
      ~pending:
        (Array.to_list db.Core.Bcdb.pending
        |> List.map (fun (tx : Core.Pending.t) -> tx.Core.Pending.rows))
      ()
  in
  let fd_sess = E.session_of fd_only_db in
  let q_simple = Q.instantiate s Q.Qs Q.Unsatisfied in
  let tractable_time =
    time_runs 5 (fun () ->
        match Core.Tractable.solve fd_sess q_simple with
        | Some _ -> ()
        | None -> failwith "expected tractable case")
  in
  let generic_time =
    time_runs 5 (fun () -> ok (Core.Dcsat.naive fd_sess q_simple))
  in
  E.print_table ~title:"Ablations (design choices, D-sweep/40 blocks)"
    ~columns:[ "design choice"; "enabled"; "disabled"; "speedup" ]
    ~rows:
      [
        [
          "dry-run session extension (what-if qp3)";
          E.ms dry_run_time;
          E.ms rebuild_time;
          Printf.sprintf "%.0fx" (rebuild_time /. dry_run_time);
        ];
        [
          "R+T pre-check (satisfied qp3)";
          E.ms precheck_on;
          E.ms precheck_off;
          Printf.sprintf "%.0fx" (precheck_off /. precheck_on);
        ];
        [
          "tractable fd-only solver vs NaiveDCSat (qs)";
          E.ms tractable_time;
          E.ms generic_time;
          Printf.sprintf "%.1fx" (generic_time /. tractable_time);
        ];
      ]

(* ------------------------------------------------------------------ *)
(* Scenario attack library (examples/scenarios): solve every named
   instance, record solve times as a "scenarios" series, and check two
   invariants per instance — the scripted expectation holds, and the
   verdict survives a binary snapshot round-trip ({!Bccore.Bcdb_file}):
   serialization must not change what the solver can prove about the
   future. A fixed-seed round of the trace generator's differential
   oracle rides along so the fuzz layer runs under bench-smoke too. *)

module Sc = Scenario

let scenario_verdict_class = function
  | Core.Dcsat.Satisfied -> "satisfied"
  | Core.Dcsat.Violated _ -> "violated"
  | Core.Dcsat.Unknown _ -> "unknown"

let scenario_snapshot_check (s : Sc.t) (solved : Sc.solved) =
  let bin = Core.Bcdb_file.to_binary_string (Sc.Compile.db solved.Sc.compiled) in
  match Core.Bcdb_file.of_binary_string ~validate:true bin with
  | Error e -> fail "scenarios: %s: snapshot restore failed: %s" s.Sc.name e
  | Ok restored -> (
      let sess = Core.Session.create restored in
      let budget = Core.Engine.Budget.create ?max_worlds:s.Sc.max_worlds () in
      match Core.Solver.solve ~budget sess solved.Sc.query with
      | Error e ->
          fail "scenarios: %s: post-snapshot solve refused: %s" s.Sc.name e
      | Ok (outcome, _) ->
          let before =
            scenario_verdict_class solved.Sc.outcome.Core.Dcsat.verdict
          in
          let after = scenario_verdict_class outcome.Core.Dcsat.verdict in
          if before <> after then
            fail "scenarios: %s: verdict changed across snapshot (%s -> %s)"
              s.Sc.name before after)

let scenario_fuzz_seed = 42
let scenario_fuzz_cases = 6

let scenario_fuzz_round () =
  let cell =
    QCheck.Test.make_cell ~count:scenario_fuzz_cases
      ~name:"bench trace differential" Sc.Trace_gen.arbitrary (fun script ->
        match Sc.Trace_gen.differential script with
        | Ok () -> true
        | Error msg -> QCheck.Test.fail_report msg)
  in
  let rand = Random.State.make [| scenario_fuzz_seed |] in
  match QCheck.TestResult.get_state (QCheck.Test.check_cell ~rand cell) with
  | QCheck.TestResult.Success -> ()
  | QCheck.TestResult.Failed { instances = c :: _ } ->
      fail "scenarios: differential fuzz (seed %d) failed on:\n%s"
        scenario_fuzz_seed
        (Sc.Trace_gen.print c.QCheck.TestResult.instance)
  | QCheck.TestResult.Failed { instances = [] } ->
      fail "scenarios: differential fuzz (seed %d) failed without a witness"
        scenario_fuzz_seed
  | QCheck.TestResult.Failed_other { msg } ->
      fail "scenarios: differential fuzz (seed %d): %s" scenario_fuzz_seed msg
  | QCheck.TestResult.Error { exn; _ } ->
      fail "scenarios: differential fuzz (seed %d) raised %s"
        scenario_fuzz_seed (Printexc.to_string exn)

let scenarios_section () =
  let instances = Scenarios.Catalog.instances () in
  let rows =
    List.mapi
      (fun i (s : Sc.t) ->
        let x = float_of_int (i + 1) in
        match Sc.compile s with
        | Error e ->
            fail "scenarios: %s: trace failed to run: %s" s.Sc.name e;
            [ s.Sc.name; "trace error"; "-"; "-"; "-" ]
        | Ok compiled -> (
            match Sc.solve_compiled s compiled with
            | Error e ->
                fail "scenarios: %s: solve failed: %s" s.Sc.name e;
                [ s.Sc.name; "solve error"; "-"; "-"; "-" ]
            | Ok solved ->
                (match solved.Sc.check with
                | Ok () -> ()
                | Error e ->
                    fail "scenarios: %s: expectation: %s" s.Sc.name e);
                scenario_snapshot_check s solved;
                (* The timed series re-solves on a warm session; the
                   variant slot records which side of the verdict the
                   scenario scripts. *)
                let variant =
                  match s.Sc.expect with
                  | Sc.Expect.Satisfied -> Q.Satisfied
                  | Sc.Expect.Violated _ | Sc.Expect.Unknown -> Q.Unsatisfied
                in
                let m =
                  record ~figure:"scenarios" ~x
                    (E.run ~repeats:2 ~summary:`Min
                       ?max_worlds:s.Sc.max_worlds ~obs_sinks:(obs_sinks ())
                       ~session:(E.session_of (Sc.Compile.db compiled))
                       ~label:s.Sc.name ~algo:E.Naive ~variant solved.Sc.query)
                in
                [
                  s.Sc.name;
                  scenario_verdict_class solved.Sc.outcome.Core.Dcsat.verdict;
                  solved.Sc.strategy;
                  E.ms m.E.seconds;
                  (match solved.Sc.check with Ok () -> "ok" | Error _ -> "FAIL");
                ]))
      instances
  in
  E.print_table
    ~title:"Scenario attack library (expected verdicts + snapshot round-trip)"
    ~columns:[ "scenario"; "verdict"; "strategy"; "time"; "check" ]
    ~rows;
  scenario_fuzz_round ()

(* ------------------------------------------------------------------ *)
(* Live serving (`serve`): the maintained solving context under a
   Poisson-arrival request stream, against the naive per-request
   alternative of rebuilding a fresh session (store, graphs, caches)
   for every check. Three streams on qp3-unsat-50blk:

   - warm incremental: the steady state of a validator re-checking the
     same constraint — every structure is maintained, every world is a
     cache replay;
   - churn: each request is preceded by a transaction arrival and
     followed by an RBF eviction, so the fd/ind graphs and components
     are incrementally updated between checks;
   - rebuild: [Session.create] + solve per request, the cost the live
     layer exists to amortize.

   Recorded rows (figure "serve", x = offered rate λ) reuse the schema
   via a template measurement: mean service time per stream, plus the
   client-visible p50/p99 latency and the seconds-per-check of the
   incremental stream (label [serve-checks-per-sec]; its [x] is the
   measured checks/sec). *)

let servebench () =
  let s = sim Sweep in
  let pending_take = if !smoke_flag then 10 else 50 in
  let requests = if !smoke_flag then 10 else 60 in
  let db = W.Generator.dataset s ~pending_take ~contradictions:default_c () in
  let q = Q.instantiate s (Q.Qp 3) Q.Unsatisfied in
  let label = Printf.sprintf "qp3-unsat-%dblk" pending_take in
  let live = Core.Live.create db in
  let rate = 200.0 in
  let check () =
    match Core.Live.check live q with
    | Ok _ -> ()
    | Error e -> fail "serve/%s: live check: %s" label e
  in
  check () (* warm: plans compiled, graphs built, worlds cached *);
  let inc = W.Poisson.run ~seed:0xD0C ~rate ~requests (fun _ -> check ()) in
  let churn_rows = db.Core.Bcdb.pending.(0).Core.Pending.rows in
  let churn =
    W.Poisson.run ~seed:0xD0C ~rate ~requests (fun i ->
        let lbl = Printf.sprintf "churn-%d" i in
        Core.Live.add live ~label:lbl churn_rows;
        check ();
        match Core.Live.evict live lbl with
        | Ok () -> ()
        | Error e -> fail "serve/%s: evict: %s" label e)
  in
  let rebuild =
    W.Poisson.run ~seed:0xD0C ~rate ~requests (fun _ ->
        let sess = Core.Session.create db in
        match Core.Solver.solve sess q with
        | Ok _ -> ()
        | Error e -> fail "serve/%s: batch solve: %s" label e)
  in
  (* The headline invariant: a warm incremental check must beat the
     per-request rebuild by a wide margin — that is the live layer's
     reason to exist. Smoke scale only insists on "faster at all". *)
  let floor = if !smoke_flag then 1.0 else 5.0 in
  if inc.W.Poisson.mean_service *. floor > rebuild.W.Poisson.mean_service then
    fail
      "serve/%s: warm incremental check (%.6fs) not %.0fx faster than \
       per-request rebuild (%.6fs)"
      label inc.W.Poisson.mean_service floor rebuild.W.Poisson.mean_service;
  if inc.W.Poisson.p99 < inc.W.Poisson.p50 then
    fail "serve/%s: p99 below p50" label;
  (* The per-(query, component) verdict cache, forced on vs off over the
     same warm mempool. First the pointwise contract: the second check
     of an unchanged mempool must hit the cache at least once. *)
  let cached_check () =
    match Core.Live.check ~use_cache:true live q with
    | Ok _ -> ()
    | Error e -> fail "serve/%s: cached check: %s" label e
  in
  let uncached_check () =
    match Core.Live.check ~use_cache:false live q with
    | Ok _ -> ()
    | Error e -> fail "serve/%s: uncached check: %s" label e
  in
  cached_check () (* populate the verdict cache *);
  let s1 = Core.Live.cache_stats live in
  cached_check ();
  let s2 = Core.Live.cache_stats live in
  if s2.Core.Live.cache_hits - s1.Core.Live.cache_hits < 1 then
    fail
      "serve/%s: second check of an unchanged mempool recorded no \
       comp-cache hit"
      label;
  (* Dirt scoping: one arriving transaction must leave the warm check
     re-solving only the dirty components, not the whole partition. *)
  let comps_total = List.length (Core.Live.components live q) in
  Core.Live.add live ~label:"cache-probe" churn_rows;
  let before = Core.Live.cache_stats live in
  cached_check ();
  let after = Core.Live.cache_stats live in
  let dirty_delta = after.Core.Live.cache_dirty - before.Core.Live.cache_dirty in
  if comps_total >= 2 && dirty_delta >= comps_total then
    fail
      "serve/%s: a single tx add dirtied every component (%d re-solved of %d)"
      label dirty_delta comps_total;
  (match Core.Live.evict live "cache-probe" with
  | Ok () -> ()
  | Error e -> fail "serve/%s: evict cache-probe: %s" label e);
  (* The headline series: warm checks with the cache on vs off. *)
  let c0 = Core.Live.cache_stats live in
  let cache_on =
    W.Poisson.run ~seed:0xCAC ~rate ~requests (fun _ -> cached_check ())
  in
  let c1 = Core.Live.cache_stats live in
  let cache_off =
    W.Poisson.run ~seed:0xCAC ~rate ~requests (fun _ -> uncached_check ())
  in
  let comp_ratio =
    let h = c1.Core.Live.cache_hits - c0.Core.Live.cache_hits
    and m = c1.Core.Live.cache_misses - c0.Core.Live.cache_misses in
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  let cache_speedup =
    cache_off.W.Poisson.mean_service
    /. Float.max 1e-9 cache_on.W.Poisson.mean_service
  in
  if (not !smoke_flag) && cache_speedup < 3.0 then
    fail
      "serve/%s: cached warm check (%.6fs) not >=3x faster than \
       uncached (%.6fs, %.1fx)"
      label cache_on.W.Poisson.mean_service cache_off.W.Poisson.mean_service
      cache_speedup;
  let template =
    E.run ~repeats:1 ~obs_sinks:(obs_sinks ())
      ~session:(E.session_of db) ~label ~algo:E.Opt ~variant:Q.Unsatisfied q
  in
  let row ?(comp_ratio = 0.0) lbl ~x seconds =
    ignore
      (record ~figure:"serve" ~x
         {
           template with
           E.label = lbl;
           seconds;
           comp_cache_hit_ratio = comp_ratio;
         })
  in
  row (label ^ "-inc-mean") ~x:rate inc.W.Poisson.mean_service;
  row (label ^ "-churn-mean") ~x:rate churn.W.Poisson.mean_service;
  row (label ^ "-rebuild-mean") ~x:rate rebuild.W.Poisson.mean_service;
  row (label ^ "-inc-p50") ~x:rate inc.W.Poisson.p50;
  row (label ^ "-inc-p99") ~x:rate inc.W.Poisson.p99;
  row ~comp_ratio (label ^ "-cached-mean") ~x:rate
    cache_on.W.Poisson.mean_service;
  row (label ^ "-uncached-mean") ~x:rate cache_off.W.Poisson.mean_service;
  row "serve-checks-per-sec" ~x:inc.W.Poisson.checks_per_sec
    (1.0 /. Float.max 1e-9 inc.W.Poisson.checks_per_sec);
  let fmt_summary (p : W.Poisson.summary) =
    [
      E.ms p.W.Poisson.mean_service;
      Printf.sprintf "%.0f" p.W.Poisson.checks_per_sec;
      E.ms p.W.Poisson.p50;
      E.ms p.W.Poisson.p99;
    ]
  in
  E.print_table
    ~title:
      (Printf.sprintf
         "Live serving: %s, Poisson arrivals at %.0f req/s (%d requests)"
         label rate requests)
    ~columns:[ "stream"; "service"; "checks/s"; "p50"; "p99" ]
    ~rows:
      [
        "incremental (warm)" :: fmt_summary inc;
        "incremental (churn)" :: fmt_summary churn;
        "rebuild per request" :: fmt_summary rebuild;
        "verdict cache on" :: fmt_summary cache_on;
        "verdict cache off" :: fmt_summary cache_off;
      ];
  Printf.printf
    "[serve] verdict cache: %.1fx per warm check (hit ratio %.2f, %d dirty \
     of %d components after one add)\n\
     %!"
    cache_speedup comp_ratio dirty_delta comps_total

(* ------------------------------------------------------------------ *)
(* Smoke mode (--smoke): a minutes-scale subset that exercises the full
   record → JSON → validate pipeline. It writes to a scratch path (the
   committed BENCH_dcsat.json only comes from full runs) but
   shape-checks the committed file too, when present, so schema drift
   fails CI. *)

let smoke_json_path = "BENCH_dcsat.smoke.json"

(* Structural gate: a jobs=1 NaiveDCSat solve of the Dense component
   may switch the store's world once per evaluated world (the eval
   itself), plus one per solve (the final restore). The precheck reads
   R ∪ T through the store's fixed union view and getMaximal reads the
   clique's own rows, so neither switches; a world-switching getMaximal
   would add one switch per included transaction, about [pairs + 2] per
   world. A count, so it holds on any host. *)
let epoch_switch_gate ~pairs =
  let per_solve = 1 in
  let sess = dense_session pairs in
  let obs = Bcobs.Obs.create () in
  Core.Session.set_obs sess obs;
  let solved =
    Core.Dcsat.naive ~jobs:1 ~config:full_eval sess (W.Dense.query ())
  in
  Core.Session.set_obs sess Bcobs.Obs.null;
  Bcobs.Obs.flush obs;
  let worlds = Bcobs.Obs.counter obs "dcsat.worlds" in
  let switches = Bcobs.Obs.counter obs "store.epoch_switch" in
  Printf.printf "[smoke] dense-%dp jobs=1: %d store.epoch_switch over %d worlds\n%!"
    pairs switches worlds;
  if Result.is_error solved || worlds <> W.Dense.worlds ~pairs then
    fail "smoke: dense-%dp jobs=1 did not enumerate its %d worlds (%d)" pairs
      (W.Dense.worlds ~pairs) worlds;
  if switches > worlds + per_solve then
    fail
      "smoke: dense-%dp jobs=1 switched the store's world %d times over %d \
       worlds (bound: one per world + %d per solve)"
      pairs switches worlds per_solve

(* Count gate: a solve the precheck decides never switches the store's
   world — not to R ∪ T, and so not back either. *)
let precheck_switch_gate sess q =
  let obs = Bcobs.Obs.create () in
  Core.Session.set_obs sess obs;
  let solved = Core.Dcsat.opt ~jobs:1 sess q in
  Core.Session.set_obs sess Bcobs.Obs.null;
  Bcobs.Obs.flush obs;
  let switches = Bcobs.Obs.counter obs "store.epoch_switch" in
  Printf.printf "[smoke] precheck-decided opt: %d store.epoch_switch\n%!"
    switches;
  (match solved with
  | Ok o when o.Core.Dcsat.stats.Core.Dcsat.precheck_decided -> ()
  | _ -> fail "smoke: the precheck switch gate's solve was not precheck-decided");
  if switches <> 0 then
    fail "smoke: a precheck-decided solve switched the store's world %d times"
      switches

let smoke () =
  let s = sim Sweep in
  let sess = session Sweep ~pending_take:10 ~contradictions:default_c () in
  let q = Q.instantiate s (Q.Qp 3) Q.Unsatisfied in
  let count take =
    W.Generator.pending_count s ~pending_take:take ~contradictions:default_c
  in
  let x = float_of_int (count 10) in
  let measure ?jobs ?(x = x) ?summary ?(session = sess) figure algo =
    run_measure ~figure ~x ~repeats:2 ?summary ?jobs ~session ~label:"qp3"
      ~algo ~variant:Q.Unsatisfied q
  in
  let m ?jobs ?x ?summary figure algo =
    ignore (measure ?jobs ?x ?summary figure algo)
  in
  (* fig6d's NaiveDCSat end points and their scaling gate. *)
  let naive_small = measure "fig6d" E.Naive in
  let naive_large =
    measure ~x:(float_of_int (count 50))
      ~session:(session Sweep ~pending_take:50 ~contradictions:default_c ())
      "fig6d" E.Naive
  in
  naive_scaling_gate
    ~small:(count 10, naive_small.E.seconds)
    ~large:(count 50, naive_large.E.seconds);
  m "fig6d" E.Opt;
  m ~jobs:1 ~x:1.0 ~summary:`Min "fig6d-jobs" E.Opt;
  m ~jobs:2 ~x:2.0 ~summary:`Min "fig6d-jobs" E.Opt;
  (* The incremental layer must actually engage: this session is warm
     from the measurements above, so a re-solve replays cached worlds
     and the instrumented run must report eval.delta > 0. *)
  let warm =
    run_measure ~figure:"evalbench" ~x ~repeats:2 ~session:sess ~label:"qp3"
      ~algo:E.Opt ~variant:Q.Unsatisfied q
  in
  if warm.E.eval_delta = 0 then
    fail "smoke: warm re-solve recorded no eval.delta (incremental layer inert)";
  (* The converse: a config with delta off must never reach the
     incremental layer, or every baseline row would silently measure
     the fast path. *)
  let slow =
    run_measure ~figure:"evalbench" ~x ~repeats:2 ~session:sess
      ~config:full_eval ~label:"qp3-baseline" ~algo:E.Opt
      ~variant:Q.Unsatisfied q
  in
  if slow.E.eval_delta <> 0 then
    fail "smoke: delta off still took the fast path (eval.delta %d)"
      slow.E.eval_delta;
  (* Dense smoke: NaiveDCSat must enumerate every world of the one
     dense component, here at jobs=2. *)
  let dpairs = 12 in
  let dm =
    dense_measure
      ~session:(dense_session dpairs)
      ~figure:"dense-jobs" ~x:2.0 ~jobs:2
      (Printf.sprintf "dense-%dp" dpairs)
  in
  if
    (not dm.E.satisfied)
    || dm.E.stats.Core.Dcsat.worlds_checked <> W.Dense.worlds ~pairs:dpairs
  then
    fail "smoke: dense component not exhaustively enumerated (%d worlds)"
      dm.E.stats.Core.Dcsat.worlds_checked;
  (* Grouped smoke: the second pool worker must actually engage where
     there are groups to share — an inert pool would otherwise pass
     silently. *)
  dense_groups ();
  epoch_switch_gate ~pairs:dpairs;
  precheck_switch_gate sess (Q.instantiate s (Q.Qp 3) Q.Satisfied);
  (* Scenario library: every named instance must meet its scripted
     expectation and keep its verdict across a binary snapshot
     round-trip; one fixed-seed differential fuzz round rides along. *)
  scenarios_section ();
  (* The live serving layer at CI scale: warm incremental checks must
     at least beat the per-request rebuild, and the serve rows must
     round-trip the JSON schema. *)
  servebench ();
  Printf.printf "[smoke] ran %d measurements\n%!" (List.length !recorded)

let sections =
  [
    ("table1", table1);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig6c", fig6c);
    ("fig6d", fig6d);
    ("fig6e", fig6e);
    ("fig6f", fig6f);
    ("fig6g", fig6g);
    ("fig6h", fig6h);
    ("datasize", datasize);
    ("parallel", parallel);
    ("dense", dense);
    ("dense-groups", dense_groups);
    ("evalbench", evalbench);
    ("serve", servebench);
    ("ablation", ablation);
    ("scenarios", scenarios_section);
  ]

let write_and_validate_trace () =
  match !trace_out with
  | None -> []
  | Some path -> (
      Bcobs.Obs.write_trace trace_collector path;
      match Bcobs.Obs.validate_trace_file path with
      | Ok events ->
          Printf.printf "[trace] wrote %s (%d events)\n" path events;
          []
      | Error errs ->
          List.map (Printf.sprintf "trace %s: %s" path) errs)

let finish_with ~json_path ~check_committed =
  write_bench_json json_path;
  let errors =
    (if !recorded <> [] then validate_bench_json json_path else [])
    @ write_and_validate_trace ()
    @
    if check_committed && Sys.file_exists bench_json_path then
      validate_bench_json bench_json_path
    else []
  in
  List.iter (Printf.eprintf "[bench] schema error: %s\n") errors;
  List.iter (Printf.eprintf "[bench] FAILED: %s\n") !failures;
  if errors = [] && !failures = [] then begin
    if !recorded <> [] then
      Printf.printf "[bench] results schema OK\n";
    print_newline ()
  end
  else exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec strip_trace = function
    | "--trace" :: file :: rest ->
        trace_out := Some file;
        strip_trace rest
    | "--trace" :: [] ->
        prerr_endline "--trace requires a FILE argument";
        exit 1
    | a :: rest -> a :: strip_trace rest
    | [] -> []
  in
  let args = strip_trace args in
  let smoke_mode = List.mem "--smoke" args in
  let section_args = List.filter (fun a -> a <> "--smoke") args in
  let run_sections requested =
    List.iter
      (fun name ->
        match List.assoc_opt name sections with
        | Some f -> f ()
        | None ->
            Printf.eprintf "unknown section %s (available: %s)\n" name
              (String.concat " " (List.map fst sections));
            exit 1)
      requested
  in
  if smoke_mode then begin
    (* `--smoke` alone runs the fixed smoke subset; `--smoke SECTION...`
       runs the named sections in smoke mode (sections that scale, like
       datasize, shrink their inputs). Either way results go to the
       scratch JSON — the committed file only comes from full runs. *)
    smoke_flag := true;
    (match section_args with [] -> smoke () | l -> run_sections l);
    finish_with ~json_path:smoke_json_path ~check_committed:true
  end
  else begin
    let requested =
      match section_args with [] -> List.map fst sections | l -> l
    in
    run_sections requested;
    finish_with ~json_path:bench_json_path ~check_committed:false
  end
