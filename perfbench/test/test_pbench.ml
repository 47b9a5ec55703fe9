(* Tests for the benchmark's own helpers: request streams, the
   tail-percentile rule and the frame codec. *)

open Pbench

let checks = [| "q() :- TxOut(t, s, \"A\", a)."; "q() :- TxIn(p, s, \"B\", a, n, g)." |]

let adds =
  Array.init 40 (fun i ->
      (Printf.sprintf "tx%d" i, [ Printf.sprintf "TxOut(\"tx%d\", 1, \"pk\", 1.5)" i ]))

let read seed = Stream.read_mix ~seed ~rate:200.0 ~seconds:5.0 ~checks ~adds ~checks_per_add:50

let churn seed =
  Stream.churn ~seed ~rate:20.0 ~seconds:5.0 ~held:adds
    ~confirmable:(Array.init 40 (Printf.sprintf "old%d"))
    ~rbf:[| ("rbf", [ "TxIn(\"old0\", 1, \"pk\", 1.5, \"rbf\", \"sig\")" ]) |]
    ~check:checks.(0)

let test_same_seed () =
  Alcotest.(check string) "read" (Stream.to_bytes (read 7)) (Stream.to_bytes (read 7));
  Alcotest.(check string) "churn" (Stream.to_bytes (churn 7)) (Stream.to_bytes (churn 7))

let test_other_seed () =
  Alcotest.(check bool) "read" false (Stream.to_bytes (read 7) = Stream.to_bytes (read 8));
  Alcotest.(check bool) "churn" false (Stream.to_bytes (churn 7) = Stream.to_bytes (churn 8))

let test_stream_shape () =
  let r = read 3 in
  Alcotest.(check int) "read size" 1000 (Array.length r);
  let adds = Array.fold_left (fun n it -> if Stream.is_check it.Stream.req then n else n + 1) 0 r in
  Alcotest.(check int) "one add per 50 checks" (1000 / 51) adds;
  let initial = List.init 40 (Printf.sprintf "old%d") in
  Alcotest.(check (result unit string)) "read valid" (Ok ()) (Stream.validate ~initial r);
  Alcotest.(check (result unit string)) "churn valid" (Ok ()) (Stream.validate ~initial (churn 3))

let test_validate_rejects () =
  let it req = { Stream.due = 0.0; req } in
  let add l = Stream.Add { label = l; rows = [ "R(1)" ] } in
  let bad items = Result.is_error (Stream.validate ~initial:[ "a" ] (Array.of_list items)) in
  Alcotest.(check bool) "duplicate of a snapshot label" true (bad [ it (add "a") ]);
  Alcotest.(check bool) "duplicate add" true (bad [ it (add "b"); it (add "b") ]);
  Alcotest.(check bool) "re-add after evict" true
    (bad [ it (add "b"); it (Stream.Evict "b"); it (add "b") ]);
  Alcotest.(check bool) "evict unknown" true (bad [ it (Stream.Evict "z") ]);
  Alcotest.(check bool) "confirm twice" true
    (bad [ it (Stream.Confirm "a"); it (Stream.Confirm "a") ]);
  Alcotest.(check bool) "valid" false (bad [ it (add "b"); it (Stream.Confirm "b") ])

let test_tail_rule () =
  let p = Alcotest.(option (float 0.0)) in
  Alcotest.check p "n=10000" (Some 0.999) (Stats.tail_percentile 10000);
  Alcotest.check p "n=9999" (Some 0.99) (Stats.tail_percentile 9999);
  Alcotest.check p "n=1000" (Some 0.99) (Stats.tail_percentile 1000);
  Alcotest.check p "n=999" (Some 0.95) (Stats.tail_percentile 999);
  Alcotest.check p "n=100" (Some 0.90) (Stats.tail_percentile 100);
  Alcotest.check p "n=40" (Some 0.75) (Stats.tail_percentile 40);
  Alcotest.check p "n=39" (Some 0.50) (Stats.tail_percentile 39);
  Alcotest.check p "n=20" (Some 0.50) (Stats.tail_percentile 20);
  Alcotest.check p "n=19" None (Stats.tail_percentile 19);
  let xs = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (pair string (float 0.0))) "p99 of 1..1000" ("p99", 990.0) (Stats.tail xs);
  Alcotest.(check (pair string (float 0.0))) "max below 20"
    ("max", 19.0) (Stats.tail (Array.init 19 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (float 0.0)) "median even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |])

let test_geomean () =
  Alcotest.(check (float 1e-9)) "two" 4.0 (Stats.geomean [| 2.0; 8.0 |]);
  Alcotest.(check (float 1e-9)) "one" 3.0 (Stats.geomean [| 3.0 |])

let decode_all chunks =
  let d = Frame.decoder () in
  let out = ref [] in
  List.iter
    (fun c ->
      Frame.feed_string d c;
      let rec go () =
        match Frame.next d with
        | Ok (Some p) ->
            out := p :: !out;
            go ()
        | Ok None -> ()
        | Error e -> failwith e
      in
      go ())
    chunks;
  List.rev !out

let test_frame_roundtrip () =
  let payloads = [ "stats"; ""; "check\nq() :- R(x)."; String.make 70000 'x'; "OK 0\n" ] in
  let wire = String.concat "" (List.map Frame.encode payloads) in
  Alcotest.(check (list string)) "one chunk" payloads (decode_all [ wire ]);
  Alcotest.(check (list string)) "byte by byte" payloads
    (decode_all (List.init (String.length wire) (fun i -> String.make 1 wire.[i])));
  Alcotest.(check string) "encoding" "5\nstats" (Frame.encode "stats");
  Alcotest.(check string) "status line" "UNSATISFIED 2"
    (Frame.status "UNSATISFIED 2\nstrategy: OptDCSat\n")

let test_frame_errors () =
  let err s =
    let d = Frame.decoder () in
    Frame.feed_string d s;
    Result.is_error (Frame.next d)
  in
  Alcotest.(check bool) "non-numeric length" true (err "abc\nxyz");
  Alcotest.(check bool) "negative length" true (err "-1\n");
  Alcotest.(check bool) "unterminated length" true (err "123456789012345");
  Alcotest.(check bool) "incomplete is not an error" false (err "10\nabc")

let () =
  Alcotest.run "perfbench"
    [
      ( "stream",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_same_seed;
          Alcotest.test_case "other seed, other bytes" `Quick test_other_seed;
          Alcotest.test_case "shape and validity" `Quick test_stream_shape;
          Alcotest.test_case "validity rejects" `Quick test_validate_rejects;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "errors" `Quick test_frame_errors;
        ] );
    ]
