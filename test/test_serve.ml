(* The serve protocol over the paper's example: every response status
   through the framed session loop, the refusals of malformed requests
   and frames, and — for every rejected mutation, and after a dry run
   on the live session — a live context equal to a from-scratch
   rebuild of its database. *)

module R = Relational
module Q = Bcquery
module Core = Bccore

let defaults = { Serve.jobs = 1; timeout = None; max_worlds = None }
let fresh () = Core.Live.create (Workload.Datasets.paper ())
let q8 = {|q() :- TxOut(t, s, "U8Pk", a).|}
let check_q8 = "check\n" ^ q8

(* --- the session loop over real channels --- *)

let frame p = string_of_int (String.length p) ^ "\n" ^ p

let decode s =
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let nl = String.index_from s pos '\n' in
      let n = int_of_string (String.sub s pos (nl - pos)) in
      go (nl + 1 + n) (String.sub s (nl + 1) n :: acc)
  in
  go 0 []

(* Feed raw bytes to [Serve.session]; the response payloads, in order. *)
let session_raw live bytes =
  let inp = Filename.temp_file "serve" ".in" in
  let out = Filename.temp_file "serve" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove inp; Sys.remove out)
    (fun () ->
      Out_channel.with_open_bin inp (fun oc -> Out_channel.output_string oc bytes);
      In_channel.with_open_bin inp (fun ic ->
          Out_channel.with_open_bin out (fun oc -> Serve.session live defaults ic oc));
      decode (In_channel.with_open_bin out In_channel.input_all))

let session live payloads = session_raw live (String.concat "" (List.map frame payloads))

let respond live payload =
  match session live [ payload ] with
  | [ r ] -> r
  | rs -> Alcotest.failf "%d responses to one request" (List.length rs)

let status r = match String.index_opt r '\n' with Some i -> String.sub r 0 i | None -> r

let check_status want r =
  Alcotest.(check string) (Printf.sprintf "status of %S" r) want (status r)

(* --- one case per status --- *)

let test_statuses () =
  List.iter
    (fun (payload, want) -> check_status want (respond (fresh ()) payload))
    [
      ({|check
q() :- TxOut(t, s, "U99Pk", a).|}, "SATISFIED 0");
      (check_q8, "UNSATISFIED 2");
      ("check max-worlds=0\n" ^ q8, "UNKNOWN 3");
      ("check jobs=2 timeout=60\n" ^ q8, "UNSATISFIED 2");
      ("stats", "OK 0");
      ("evict T4", "OK 0");
      ("confirm T1", "OK 0");
      ({|add X1
TxOut("99", 1, "U8Pk", 2.5)

TxOut("99", 2, "U9Pk", 1.0)|}, "OK 0");
      ("quit", "OK 0");
      ("check\nthis is not datalog", "ERROR 1");
      ("check timeout=nan\n" ^ q8, "ERROR 1");
      ("check timeout=inf\n" ^ q8, "ERROR 1");
      ("check max-worlds=-1\n" ^ q8, "ERROR 1");
      ("check colour=red\n" ^ q8, "ERROR 1");
      ("frobnicate", "ERROR 1");
      ("", "ERROR 1");
    ];
  let live = fresh () in
  Alcotest.(check (list string))
    "mutation responses and the check they change"
    [ "OK 0\nevicted T4\n"; "OK 0\nconfirmed T1\n"; "SATISFIED 0";
      "OK 0\nadded X1\n"; "UNSATISFIED 2"; "OK 0\nbye\n" ]
    (List.map
       (fun r -> if String.starts_with ~prefix:"OK" r then r else status r)
       (session live
          [ "evict T4"; "confirm T1"; check_q8;
            "add X1\n" ^ {|TxOut("99", 1, "U8Pk", 2.5)|}; check_q8; "quit";
            "stats" ]))

(* --- refusals of malformed requests --- *)

let test_refusals () =
  let live = fresh () in
  let responses =
    session live
      [ "evict T4 junk"; "confirm T1 and more"; "stats extra"; "quit now";
        "add"; "add\n" ^ {|TxOut("99", 1, "U8Pk", 2.5)|}; "evict"; "confirm";
        "add X1 X2\n" ^ {|TxOut("99", 1, "U8Pk", 2.5)|}; "evict T4\nT5";
        "stats" ]
  in
  Alcotest.(check (list string))
    "each refused with its reason, and the session goes on"
    [ "ERROR 1\nevict: unexpected argument \"junk\"\n";
      "ERROR 1\nconfirm: unexpected argument \"and\"\n";
      "ERROR 1\nstats: unexpected argument \"extra\"\n";
      "ERROR 1\nquit: unexpected argument \"now\"\n";
      "ERROR 1\nadd: missing label\n";
      "ERROR 1\nadd: missing label\n";
      "ERROR 1\nevict: missing label\n";
      "ERROR 1\nconfirm: missing label\n";
      "ERROR 1\nadd: unexpected argument \"X2\"\n";
      "ERROR 1\nevict: unexpected lines after the command\n" ]
    (List.filteri (fun i _ -> i < 10) responses);
  check_status "OK 0" (List.nth responses 10);
  Alcotest.(check int) "nothing evicted, confirmed or added" 5
    (Core.Live.pending_count live)

let test_frames () =
  let live = fresh () in
  (* A length line longer than max_frame's digits is refused after that
     many bytes, however long the line would go on. *)
  let long = String.make 100_000 '1' in
  Alcotest.(check (list string)) "endless length line"
    [ "ERROR 1\nframe length line too long\n" ]
    (session_raw live (long ^ frame "stats"));
  let digits = String.length (string_of_int Serve.max_frame) in
  Alcotest.(check (list string)) "one digit too many"
    [ "ERROR 1\nframe length line too long\n" ]
    (session_raw live (String.make (digits + 1) '0' ^ "\n"));
  Alcotest.(check (list string)) "over max_frame"
    [ "ERROR 1\nbad frame length\n" ]
    (session_raw live (string_of_int (Serve.max_frame + 1) ^ "\n"));
  Alcotest.(check (list string)) "not a number"
    [ "ERROR 1\nunparsable frame length\n" ]
    (session_raw live "x\n");
  Alcotest.(check (list string)) "cut short"
    [ "ERROR 1\ntruncated frame\n" ]
    (session_raw live "10\nstats");
  (* Leading zeros and a CR still fit, and the session reads on. *)
  check_status "OK 0"
    (List.hd (session_raw live ("0005\r\nstats" ^ frame "quit")))

(* --- rejected mutations leave a rebuild's structures --- *)

let edge_list g =
  let n = Bcgraph.Undirected.node_count g in
  let acc = ref [] in
  for i = 0 to n - 1 do
    List.iter
      (fun j -> if j > i then acc := (i, j) :: !acc)
      (Bcgraph.Undirected.neighbours g i)
  done;
  List.sort compare !acc

let norm_pairs ps = List.sort compare (List.map (fun (a, b) -> (min a b, max a b)) ps)
let norm_comps cs = List.sort compare (List.map (List.sort compare) cs)
let pairs = Alcotest.(list (pair int int))

(* The live context against a fresh session over its database, and the
   database against its bytes before the event. *)
let assert_rebuild what live ~before =
  let db = Core.Live.db live in
  Alcotest.(check string) (what ^ ": database unchanged") before
    (Core.Bcdb_file.to_string db);
  let fresh = Core.Session.create db in
  let lf = Core.Live.fd_graph live and ff = Core.Session.fd_graph fresh in
  Alcotest.(check (array bool)) (what ^ ": fd node validity")
    ff.Core.Fd_graph.node_ok lf.Core.Fd_graph.node_ok;
  Alcotest.check pairs (what ^ ": fd edges")
    (edge_list ff.Core.Fd_graph.graph) (edge_list lf.Core.Fd_graph.graph);
  Alcotest.check pairs (what ^ ": fd conflicts")
    (norm_pairs ff.Core.Fd_graph.conflicts) (norm_pairs lf.Core.Fd_graph.conflicts);
  Alcotest.check pairs (what ^ ": ΘI edges")
    (norm_pairs (Core.Session.ind_base_edges fresh))
    (norm_pairs (Core.Live.ind_base_edges live));
  Alcotest.(check (array bool)) (what ^ ": includable")
    (Core.Session.includable fresh) (Core.Live.includable live);
  List.iter
    (fun text ->
      let q = Q.Parser.parse_exn ~catalog:(Core.Bcdb.catalog db) text in
      Alcotest.(check (list (list int))) (what ^ ": components of " ^ text)
        (norm_comps (Core.Session.ind_components fresh q))
        (norm_comps (Core.Live.components live q));
      let verdict = function
        | Ok (o, _) -> o.Core.Dcsat.satisfied
        | Error e -> Alcotest.failf "%s: %s" what e
      in
      Alcotest.(check bool) (what ^ ": verdict of " ^ text)
        (verdict (Core.Solver.solve fresh q)) (verdict (Core.Live.check live q)))
    [ q8; {|q() :- TxIn(p, s, k, a, n1, g1), TxIn(p, s, k, a, n2, g2), n1 != n2.|} ]

let test_rejected_mutations () =
  let live = fresh () in
  let bytes () = Core.Bcdb_file.to_string (Core.Live.db live) in
  (* Accepted events first, so the rejections meet a state and a pending
     set that have both moved, with components tracked. *)
  List.iter
    (fun p -> check_status "OK 0" (respond live p))
    [ "evict T4"; "confirm T1";
      "add X1\n" ^ {|TxOut("99", 1, "U8Pk", 2.5)|};
      "add BAD2\n" ^ {|TxOut("1", 1, "U9Pk", 3.0)|} ];
  assert_rebuild "accepted events" live ~before:(bytes ());
  List.iter
    (fun (what, payload) ->
      let before = bytes () in
      check_status "ERROR 1" (respond live payload);
      assert_rebuild what live ~before)
    [
      ("unknown relation", "add Y\nNope(1)");
      ("wrong arity", "add Y\n" ^ {|TxOut("9", 1)|});
      ("malformed row", "add Y\n" ^ {|TxOut("9", 1, "U9Pk"|});
      ("bad row after a good one",
       "add Y\n" ^ {|TxOut("9", 1, "U9Pk", 2.0)|} ^ "\nTxOut(");
      ("empty add", "add Y\n \n");
      ("duplicate label", "add X1\n" ^ {|TxOut("98", 1, "U8Pk", 2.5)|});
      ("unknown label (evict)", "evict nope");
      ("unknown label (confirm)", "confirm nope");
      ("confirm not includable", "confirm BAD2");
    ];
  (* Live's own checks, for rows that never passed through [parse]. *)
  List.iter
    (fun (what, rows) ->
      let before = bytes () in
      (match Core.Live.try_add live ~label:"Z" rows with
      | Ok () -> Alcotest.failf "%s: accepted" what
      | Error _ -> ());
      assert_rebuild what live ~before)
    [
      ("try_add: wrong arity", [ ("TxOut", R.Tuple.make [ R.Value.Int 1 ]) ]);
      ("try_add: unknown relation", [ ("Nope", R.Tuple.make [ R.Value.Int 1 ]) ]);
      ("try_add: no rows", []);
    ]

(* What bcdb-shell's `dryrun` runs: a hypothetical transaction on the
   live session, rolled back. *)
let test_dry_run_leaves_live () =
  let live = fresh () in
  ignore (Core.Live.check live (Q.Parser.parse_exn
    ~catalog:(Core.Bcdb.catalog (Core.Live.db live)) q8));
  let before = Core.Bcdb_file.to_string (Core.Live.db live) in
  let catalog = Core.Bcdb.catalog (Core.Live.db live) in
  let rows =
    match Core.Bcdb_file.parse_rows catalog {|TxOut("10", 1, "U8Pk", 1.0)|} with
    | Ok rows -> rows
    | Error e -> Alcotest.fail e
  in
  (match
     Core.Dry_run.safe_to_issue (Core.Live.session live) rows
       [ Q.Parser.parse_exn ~catalog {|q() :- TxOut(t, s, "U10Pk", a).|} ]
   with
  | Ok (safe, _) -> Alcotest.(check bool) "safe" true safe
  | Error e -> Alcotest.fail e);
  assert_rebuild "after a dry run" live ~before

(* Bcdb.append_to_state is one can-append step, as Live.confirm is. *)
let test_append_to_state_is_confirm () =
  let db = Workload.Datasets.paper () in
  let live = Core.Live.create db in
  (match Core.Live.confirm live "T1" with Ok () -> () | Error e -> Alcotest.fail e);
  match Core.Bcdb.append_to_state db 0 with
  | Error e -> Alcotest.fail e
  | Ok db' ->
      Alcotest.(check string) "same file bytes"
        (Core.Bcdb_file.to_string (Core.Live.db live))
        (Core.Bcdb_file.to_string db')

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "one case per status" `Quick test_statuses;
          Alcotest.test_case "malformed requests are refused" `Quick test_refusals;
          Alcotest.test_case "malformed frames are refused" `Quick test_frames;
        ] );
      ( "one mutation path",
        [
          Alcotest.test_case "rejected mutations = rebuild" `Quick
            test_rejected_mutations;
          Alcotest.test_case "dry run on the live session = rebuild" `Quick
            test_dry_run_leaves_live;
          Alcotest.test_case "append_to_state = Live.confirm" `Quick
            test_append_to_state_is_confirm;
        ] );
    ]
