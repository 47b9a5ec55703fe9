(* The bcdb text format: parsing, validation errors, round-trips. *)

module R = Relational
module V = R.Value
module Core = Bccore

let sample =
  {|
# a tiny ledger
relation Item(id, kind)
relation Move(id, owner, epoch)
key Item(id)
key Move(id, epoch)
fd Move(id -> owner)            % every id has one owner over all moves
ind Move(id) <= Item(id)

state Item("axe", "tool")
state Move("axe", "ann", 1)

tx first
  Item("saw", "tool")
  Move("saw", "bob", 1)

tx
  Move("axe", "ann", 2)
|}

let parse_ok s =
  match Core.Bcdb_file.of_string s with
  | Ok db -> db
  | Error msg -> Alcotest.fail msg

let decls_ok = "relation Item(id, kind)\nkey Item(id)\n"

let test_parse () =
  let db = parse_ok sample in
  Alcotest.(check int) "pending" 2 (Core.Bcdb.pending_count db);
  Alcotest.(check int) "constraints" 4 (List.length db.Core.Bcdb.constraints);
  Alcotest.(check string) "first label" "first"
    db.Core.Bcdb.pending.(0).Core.Pending.label;
  Alcotest.(check string) "default label" "T2"
    db.Core.Bcdb.pending.(1).Core.Pending.label;
  Alcotest.(check int) "state rows" 2
    (R.Database.total_cardinality db.Core.Bcdb.state)

let test_roundtrip () =
  let db = parse_ok sample in
  let printed = Core.Bcdb_file.to_string db in
  let db' = parse_ok printed in
  Alcotest.(check string) "print is a fixpoint" printed
    (Core.Bcdb_file.to_string db');
  (* Same possible worlds. *)
  let worlds db =
    let store = Core.Tagged_store.create db in
    let acc = ref [] in
    Core.Poss.enumerate store (fun w ->
        acc := Bcgraph.Bitset.to_list w :: !acc;
        `Continue);
    List.sort compare !acc
  in
  Alcotest.(check (list (list int))) "same worlds" (worlds db) (worlds db')

let test_roundtrip_paper () =
  let db = Fixtures.paper_db () in
  let printed = Core.Bcdb_file.to_string db in
  let db' = parse_ok printed in
  Alcotest.(check int) "pending preserved" 5 (Core.Bcdb.pending_count db');
  let store = Core.Tagged_store.create db' in
  Alcotest.(check int) "nine worlds" 9 (Core.Poss.count store);
  (* Values (including floats and ints) survive the round trip. *)
  Alcotest.(check string) "second print stable" printed
    (Core.Bcdb_file.to_string db')

let expect_error fragment s =
  match Core.Bcdb_file.of_string s with
  | Ok _ -> Alcotest.failf "expected failure mentioning %S" fragment
  | Error msg ->
      let contains =
        let lf = String.lowercase_ascii fragment
        and lm = String.lowercase_ascii msg in
        let n = String.length lf in
        let rec go i =
          i + n <= String.length lm && (String.sub lm i n = lf || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (Printf.sprintf "%S in %S" fragment msg) true contains

let test_errors () =
  expect_error "not declared" {| state Foo(1) |};
  expect_error "expects 2 values" {|
relation Item(id, kind)
state Item(1)
|};
  expect_error "declared twice" {|
relation Item(id)
relation Item(id)
|};
  expect_error "before any" {|
relation Item(id)
Item(1)
|};
  expect_error "->" {|
relation Item(id, kind)
fd Item(id, kind)
|};
  expect_error "violates" {|
relation Item(id, kind)
key Item(id)
state Item(1, "a")
state Item(1, "b")
|};
  expect_error "cannot parse" {|
relation Item(id)
state Item(unquoted)
|}

(* The reader's error behaviour, pinned message for message: each case
   is a whole file whose one fault is reported with its line number.
   Row cases put the row under a [tx] header on line 4 and also run the
   bare row through [parse_row], which reports the same fault without a
   line number, except that it names an unknown relation before a bad
   value. *)
let decls = "relation Item(id, kind)\nkey Item(id)\ntx T1\n"

type error_case = {
  what : string;
  text : string;  (* the whole file *)
  file_error : string;
  row : (string * string) option;  (* a bare row and parse_row's error *)
}

let row_case what row ~file ~row_error =
  {
    what;
    text = decls ^ "  " ^ row ^ "\n";
    file_error = "line 4: " ^ file;
    row = Some (row, row_error);
  }

let file_case what text file_error = { what; text; file_error; row = None }

let error_cases =
  [
    row_case "unterminated string" {|Item("abc, 1)|}
      ~file:"unterminated string" ~row_error:"unterminated string";
    row_case "missing )" {|Item(1, "a"|} ~file:"missing closing ')'"
      ~row_error:"missing closing ')'";
    row_case "missing name" {|(1, "a")|} ~file:"missing name before '('"
      ~row_error:"missing name before '('";
    row_case "no parentheses" {|Item|} ~file:"expected NAME(...)"
      ~row_error:"expected NAME(...)";
    row_case "empty item" {|Item(1,,2)|} ~file:"empty item in argument list"
      ~row_error:"empty item in argument list";
    row_case "trailing comma" {|Item(1,)|} ~file:"empty item in argument list"
      ~row_error:"empty item in argument list";
    row_case "text after a string" {|Item("ab"cd, 1)|}
      ~file:"unterminated string" ~row_error:"unterminated string";
    row_case "unquoted word" {|Item(abc, 1)|}
      ~file:{|cannot parse value "abc" (strings are quoted)|}
      ~row_error:{|cannot parse value "abc" (strings are quoted)|};
    row_case "wrong arity" {|Item(1)|} ~file:"Item expects 2 values, got 1"
      ~row_error:"Item expects 2 values, got 1";
    row_case "no items" {|Item()|} ~file:"Item expects 2 values, got 0"
      ~row_error:"Item expects 2 values, got 0";
    row_case "blank items" {|Item( )|} ~file:"Item expects 2 values, got 0"
      ~row_error:"Item expects 2 values, got 0";
    row_case "undeclared relation" {|Foo(1)|} ~file:"relation Foo not declared"
      ~row_error:"unknown relation Foo";
    (* A file reports a value's fault first, a request its relation. *)
    row_case "undeclared relation, unquoted word" {|Foo(abc)|}
      ~file:{|cannot parse value "abc" (strings are quoted)|}
      ~row_error:"unknown relation Foo";
    row_case "undeclared relation, unterminated string" {|Foo("abc, 1)|}
      ~file:"unterminated string" ~row_error:"unknown relation Foo";
    file_case "row before any tx header" "relation Item(id, kind)\nItem(1, 2)\n"
      "line 2: transaction row before any 'tx' header";
    file_case "state row of an undeclared relation"
      "relation Item(id, kind)\n\nstate Foo(1)\n" "line 3: relation Foo not declared";
    file_case "relation without attributes" "relation Flag()\n"
      "line 1: Schema.relation: no attributes";
    file_case "bad attribute name" "relation Item(id, a b)\n"
      {|line 1: bad attribute name "a b"|};
    file_case "fd without an arrow" "relation Item(id, kind)\nfd Item(id, kind)\n"
      "line 2: fd needs '->'";
    file_case "fd with two arrows"
      "relation Item(id, kind)\nfd Item(id -> kind, id -> kind)\n"
      "line 2: two arrows in fd";
    file_case "fd with a chained arrow"
      "relation Item(id, kind)\nfd Item(id -> kind -> id)\n"
      {|line 2: bad attribute name "kind -> id"|};
    file_case "ind without <=" "relation Item(id, kind)\nind Item(id) Item(kind)\n"
      "line 2: ind needs '<='";
    file_case "key on an undeclared relation" "relation Item(id)\nkey Foo(id)\n"
      "line 2: relation Foo not declared";
    file_case "relation declared twice" "relation Item(id)\n# again\nrelation Item(id)\n"
      "line 3: relation Item declared twice";
  ]

let test_error_table () =
  List.iter
    (fun c ->
      (match Core.Bcdb_file.of_string c.text with
      | Ok _ -> Alcotest.failf "%s: accepted" c.what
      | Error msg -> Alcotest.(check string) c.what c.file_error msg);
      match c.row with
      | None -> ()
      | Some (row, row_error) -> (
          let db = parse_ok decls_ok in
          match Core.Bcdb_file.parse_row (Core.Bcdb.catalog db) row with
          | Ok _ -> Alcotest.failf "%s: parse_row accepted %S" c.what row
          | Error msg ->
              Alcotest.(check string) (c.what ^ " (parse_row)") row_error msg))
    error_cases;
  (* A request row is one line; a trailing line end is fine. *)
  let catalog = Core.Bcdb.catalog (parse_ok decls_ok) in
  (match Core.Bcdb_file.parse_row catalog "Item(1,\n 2)" with
  | Ok _ -> Alcotest.fail "parse_row accepted a row over two lines"
  | Error msg -> Alcotest.(check string) "two lines" "a row is one line" msg);
  match Core.Bcdb_file.parse_row catalog "Item(1, 2)  # note\n" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "trailing line end: %s" msg

(* Labels name transactions for evict/confirm, so a file may not give
   two transactions one label — an unlabelled one included, which takes
   "T<position>" — and a snapshot that does is corrupt. A transaction
   without rows is reported at its header. *)
let test_tx_headers () =
  let expect text msg =
    match Core.Bcdb_file.of_string text with
    | Ok db ->
        Alcotest.failf "accepted %d pending (expected %S)"
          (Core.Bcdb.pending_count db) msg
    | Error got -> Alcotest.(check string) "tx header" msg got
  in
  expect (decls ^ "  Item(1, 2)\ntx T1\n  Item(2, 2)\n")
    "line 5: duplicate transaction label T1 (first at line 3)";
  expect (decls_ok ^ "tx T2\n  Item(1, 2)\n\ntx\n  Item(2, 2)\n")
    "line 6: duplicate transaction label T2 (first at line 3)";
  expect (decls ^ "tx T2\n  Item(2, 2)\n") "line 3: transaction #1 has no rows";
  expect (decls ^ "  Item(1, 2)\n# the last one is empty\ntx T2\n")
    "line 6: transaction #2 has no rows";
  let db =
    Core.Bcdb.create_exn
      ~state:(R.Database.create (Core.Bcdb.catalog (parse_ok decls_ok)))
      ~constraints:[]
      ~pending:
        [
          [ ("Item", R.Tuple.make [ V.Int 1; V.Int 2 ]) ];
          [ ("Item", R.Tuple.make [ V.Int 2; V.Int 2 ]) ];
        ]
      ~labels:[ "A"; "A" ] ()
  in
  match Core.Bcdb_file.of_binary_string (Core.Bcdb_file.to_binary_string db) with
  | Ok _ -> Alcotest.fail "a snapshot with duplicate labels loaded"
  | Error msg ->
      Alcotest.(check string) "binary duplicate label"
        "binary snapshot: duplicate transaction label A" msg

(* What an interactive session issues must save and load: an unlabelled
   issue takes the first free "T<n>" (the paper's database has T1..T5, so
   the sixth is T6, not a second T5), and a taken label is refused. *)
let test_issued_labels_roundtrip () =
  let row = ("TxOut", R.Tuple.make [ V.Str "9|x"; V.Int 1; V.Str "U9Pk"; V.Float 2.0 ]) in
  let labels db =
    Array.to_list (Array.map (fun (p : Core.Pending.t) -> p.Core.Pending.label) db.Core.Bcdb.pending)
  in
  let db = Core.Bcdb.with_pending (Fixtures.paper_db ()) [ row ] in
  let db = Core.Bcdb.with_pending db ~label:"T1'" [ row ] in
  let db = Core.Bcdb.with_pending db [ row ] in
  Alcotest.(check (list string)) "fresh labels"
    [ "T1"; "T2"; "T3"; "T4"; "T5"; "T6"; "T1'"; "T8" ] (labels db);
  (match Core.Bcdb.with_pending db ~label:"T1'" [ row ] with
  | _ -> Alcotest.fail "a taken label was issued"
  | exception Invalid_argument _ -> ());
  (match Core.Bcdb_file.of_string (Core.Bcdb_file.to_string db) with
  | Ok db' -> Alcotest.(check (list string)) "text roundtrip" (labels db) (labels db')
  | Error msg -> Alcotest.failf "text roundtrip: %s" msg);
  (match Core.Bcdb_file.of_binary_string (Core.Bcdb_file.to_binary_string db) with
  | Ok db' -> Alcotest.(check (list string)) "binary roundtrip" (labels db) (labels db')
  | Error msg -> Alcotest.failf "binary roundtrip: %s" msg);
  (* "T<n+1>" taken: the next free number. *)
  let db =
    Core.Bcdb.create_exn
      ~state:(R.Database.create (Core.Bcdb.catalog (parse_ok decls_ok)))
      ~constraints:[]
      ~pending:[ [ ("Item", R.Tuple.make [ V.Int 1; V.Int 2 ]) ]; [ ("Item", R.Tuple.make [ V.Int 2; V.Int 2 ]) ] ]
      ~labels:[ "T3"; "T4" ] ()
  in
  Alcotest.(check string) "skips taken labels" "T5" (Core.Bcdb.fresh_label db)

(* '#' and '%' start a comment only outside quotes: strings holding them
   print unescaped and must read back, in a file and through parse_row. *)
let test_comment_chars_roundtrip () =
  let db =
    parse_ok
      (decls_ok ^ "state Item(\"a#b\", \"x%y\")  # a comment\n\
                   tx T1\n  Item(\"#\", \"%\") % another\n")
  in
  let printed = Core.Bcdb_file.to_string db in
  Alcotest.(check string) "print is a fixpoint" printed
    (Core.Bcdb_file.to_string (parse_ok printed));
  match R.Relation.to_list (R.Database.relation db.Core.Bcdb.state "Item") with
  | [ t ] ->
      Alcotest.(check bool) "state row" true
        (R.Tuple.equal t (R.Tuple.make [ V.Str "a#b"; V.Str "x%y" ]))
  | l -> Alcotest.failf "expected one state row, got %d" (List.length l)

(* Accepted edge cases, each row read both in a file and by parse_row. *)
let test_accepted_table () =
  let check_row what row expected =
    let text = decls ^ "  " ^ row ^ "\n" in
    (match Core.Bcdb_file.of_string text with
    | Error msg -> Alcotest.failf "%s: %s" what msg
    | Ok db -> (
        match db.Core.Bcdb.pending.(0).Core.Pending.rows with
        | [ ("Item", t) ] ->
            Alcotest.(check bool) what true (R.Tuple.equal t expected)
        | _ -> Alcotest.failf "%s: expected one Item row" what));
    let db = parse_ok decls_ok in
    match Core.Bcdb_file.parse_row (Core.Bcdb.catalog db) row with
    | Ok ("Item", t) ->
        Alcotest.(check bool) (what ^ " (parse_row)") true (R.Tuple.equal t expected)
    | Ok (rel, _) -> Alcotest.failf "%s: parse_row read relation %s" what rel
    | Error msg -> Alcotest.failf "%s (parse_row): %s" what msg
  in
  let item a b = R.Tuple.make [ a; b ] in
  check_row "tabs" "Item(\t1,\t\"a\"\t)\t" (item (V.Int 1) (V.Str "a"));
  check_row "trailing comment" {|Item(1, "a")   # note, with "quotes"|}
    (item (V.Int 1) (V.Str "a"));
  check_row "trailing % comment" {|Item(1, "a") % note|}
    (item (V.Int 1) (V.Str "a"));
  check_row "escapes" {|Item("a\nb\tc", "say \"hi\"")|}
    (item (V.Str "a\nb\tc") (V.Str "say \"hi\""));
  check_row "backslash" {|Item("a\\b", -2)|} (item (V.Str "a\\b") (V.Int (-2)));
  check_row "decimal escapes" {|Item("\195\169\001", "\b\999")|}
    (item (V.Str "\195\169\001") (V.Str "\b999"));
  check_row "comment characters in strings" {|Item("a#b", "x%y")  # real|}
    (item (V.Str "a#b") (V.Str "x%y"));
  check_row "numbers" {|Item(-0.5, 1e3)|} (item (V.Float (-0.5)) (V.Float 1000.0));
  check_row "keywords" {|Item(true, null)|} (item (V.Bool true) V.Null);
  (* CRLF line ends and tabs around tokens. *)
  let db =
    parse_ok
      "relation Item(id, kind)\r\n\
       key Item(\tid\t)\r\n\
       \tstate Item(1, \"a\")\t# one\r\n\
       \r\n\
       tx T1\r\n\
      \  Item(2, \"b\")\r\n"
  in
  Alcotest.(check int) "CRLF state rows" 1
    (R.Database.total_cardinality db.Core.Bcdb.state);
  Alcotest.(check string) "CRLF label" "T1" db.Core.Bcdb.pending.(0).Core.Pending.label;
  Alcotest.(check int) "CRLF constraints" 1 (List.length db.Core.Bcdb.constraints)

let test_values () =
  let db =
    parse_ok
      {|
relation Mixed(a, b, c, d, e)
state Mixed(42, -7.5, "hello, world", true, null)
|}
  in
  let rel = R.Database.relation db.Core.Bcdb.state "Mixed" in
  match R.Relation.to_list rel with
  | [ t ] ->
      Alcotest.(check bool) "int" true (V.equal (R.Tuple.get t 0) (V.Int 42));
      Alcotest.(check bool) "float" true
        (V.equal (R.Tuple.get t 1) (V.Float (-7.5)));
      Alcotest.(check bool) "string with comma" true
        (V.equal (R.Tuple.get t 2) (V.Str "hello, world"));
      Alcotest.(check bool) "bool" true (V.equal (R.Tuple.get t 3) (V.Bool true));
      Alcotest.(check bool) "null" true (V.equal (R.Tuple.get t 4) V.Null)
  | other -> Alcotest.failf "expected one tuple, got %d" (List.length other)

let test_save_load () =
  let db = Fixtures.paper_db () in
  let path = Filename.temp_file "bcdb" ".txt" in
  (match Core.Bcdb_file.save path db with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Core.Bcdb_file.load path with
  | Ok db' -> Alcotest.(check int) "reloaded" 5 (Core.Bcdb.pending_count db')
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_binary_save_load () =
  let db = Fixtures.paper_db () in
  let path = Filename.temp_file "bcdb" ".snap" in
  (match Core.Bcdb_file.save_binary path db with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Core.Bcdb_file.load_binary path with
  | Ok db' ->
      Alcotest.(check int) "pending restored" 5 (Core.Bcdb.pending_count db');
      Alcotest.(check string) "labels restored" "T5"
        db'.Core.Bcdb.pending.(4).Core.Pending.label;
      Alcotest.(check string) "text render identical"
        (Core.Bcdb_file.to_string db)
        (Core.Bcdb_file.to_string db');
      let store = Core.Tagged_store.create db' in
      Alcotest.(check int) "nine worlds" 9 (Core.Poss.count store)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_binary_rejects_garbage () =
  let reject label s =
    match Core.Bcdb_file.of_binary_string s with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error _ -> ()
  in
  reject "empty" "";
  reject "bad magic" "NOTASNAP";
  let good = Core.Bcdb_file.to_binary_string (Fixtures.paper_db ()) in
  reject "truncated" (String.sub good 0 (String.length good / 2));
  reject "trailing bytes" (good ^ "x");
  (* Flip a byte in the middle: must error, never crash. *)
  let b = Bytes.of_string good in
  Bytes.set b (Bytes.length b / 2) '\xff';
  match Core.Bcdb_file.of_binary_string (Bytes.to_string b) with
  | Ok _ | Error _ -> ()

(* The offset of every value's tag byte in a snapshot: the dictionary
   values of each column blob and the values of each pending row,
   found by walking the layout Bcdb_file documents. *)
let value_tag_offsets (db : Core.Bcdb.t) s =
  let pos = ref 12 in
  let i64 () =
    let v = Int64.to_int (String.get_int64_le s !pos) in
    pos := !pos + 8;
    v
  in
  let str () = pos := !pos + i64 () in
  let int_list () = pos := !pos + (8 * i64 ()) in
  let tags = ref [] in
  let value () =
    tags := !pos :: !tags;
    let tag = Char.code s.[!pos] in
    incr pos;
    if tag = 3 || tag = 4 then pos := !pos + 8 else if tag = 5 then str ()
  in
  for _ = 1 to i64 () do
    str ();
    for _ = 1 to i64 () do str () done
  done;
  for _ = 1 to i64 () do
    let tag = Char.code s.[!pos] in
    incr pos;
    str ();
    int_list ();
    if tag = 0 then int_list ()
    else begin
      str ();
      int_list ()
    end
  done;
  let rels = Array.of_list (R.Schema.relations (Core.Bcdb.catalog db)) in
  Array.iter
    (fun _ ->
      ignore (i64 ());
      for _ = 1 to i64 () do
        let kind = Char.code s.[!pos] in
        incr pos;
        let n = i64 () in
        if kind = 2 then begin
          for _ = 1 to i64 () do value () done;
          let w = Char.code s.[!pos] in
          incr pos;
          pos := !pos + (w * n)
        end
        else pos := !pos + (8 * n)
      done)
    rels;
  for _ = 1 to i64 () do
    str ();
    for _ = 1 to i64 () do
      let schema = rels.(i64 ()) in
      for _ = 1 to R.Schema.arity schema do value () done
    done
  done;
  Alcotest.(check int) "the walk ends at the end marker" (String.length s - 8) !pos;
  List.rev !tags

(* A damaged snapshot is refused with an [Error]: no exception escapes
   and no database comes back. Every prefix of the paper database's
   snapshot is one, and so is the snapshot with any one value's tag
   byte inverted (no tag survives inversion). *)
let test_binary_damage () =
  let db = Fixtures.paper_db () in
  let good = Core.Bcdb_file.to_binary_string db in
  let refused what s =
    match Core.Bcdb_file.of_binary_string s with
    | Ok _ -> Alcotest.failf "%s: loaded" what
    | Error _ -> ()
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  for n = 0 to String.length good - 1 do
    refused (Printf.sprintf "prefix of %d bytes" n) (String.sub good 0 n)
  done;
  let tags = value_tag_offsets db good in
  Alcotest.(check bool) "dictionary and pending values walked" true
    (List.length tags > 20);
  List.iter
    (fun at ->
      let b = Bytes.of_string good in
      Bytes.set b at (Char.chr (0xff lxor Char.code good.[at]));
      refused (Printf.sprintf "value tag at %d inverted" at) (Bytes.to_string b))
    tags

(* bcdb-shell's row lists: ';' separates rows only outside quotes. *)
let test_parse_rows () =
  let catalog = Fixtures.catalog in
  (match Core.Bcdb_file.parse_rows catalog {|TxOut("9;x", 1, "U9Pk", 2.0)|} with
  | Ok [ ("TxOut", t) ] ->
      Alcotest.(check string) "the quoted ';' stays in the value" {|"9;x"|}
        (V.to_string t.(0))
  | Ok _ -> Alcotest.fail "not one TxOut row"
  | Error e -> Alcotest.fail e);
  (match
     Core.Bcdb_file.parse_rows catalog
       {| TxOut("a\";b", 1, "p", 1.0) ; TxOut("c", 2, "p;q", 2.0); |}
   with
  | Ok [ (_, a); (_, b) ] ->
      Alcotest.(check (list string)) "two rows, escapes kept"
        [ {|"a\";b"|}; {|"p;q"|} ]
        [ V.to_string a.(0); V.to_string b.(2) ]
  | Ok _ -> Alcotest.fail "not two rows"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (text, expected) ->
      match Core.Bcdb_file.parse_rows catalog text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error e -> Alcotest.(check string) text expected e)
    [
      (" ; ", "no rows given");
      ({|TxOut("1", 1, "p", 1.0); Nope(1)|}, "unknown relation Nope");
    ]

(* Floats print in their shortest exact form: awkward values (repeating
   binary fractions, extremes, negative zero) must parse back to the
   identical bits, and integer-valued floats must keep a decimal point
   so reparsing cannot demote them to Int. *)
let test_float_printing () =
  let roundtrips f =
    let s = V.to_string (V.Float f) in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "%h prints as %s" f s)
      f (float_of_string s)
  in
  List.iter roundtrips
    [
      0.1; -0.1; 1.0 /. 3.0; 0.2 +. 0.1; 1e15; 1.5e300; 4.9e-324;
      Float.max_float; Float.min_float; -0.0; 1234567.25;
    ];
  List.iter
    (fun f ->
      let s = V.to_string (V.Float f) in
      Alcotest.(check bool)
        (Printf.sprintf "%g keeps float syntax (%s)" f s)
        true
        (String.exists (fun c -> c = '.' || c = 'e') s))
    [ 4.0; 0.0; -3.0; 1e15; 0.5 ]

let float_shortest_roundtrip =
  QCheck.Test.make ~name:"binary float encoding roundtrips" ~count:300
    QCheck.float (fun f ->
      let buf = Buffer.create 16 in
      V.write_binary buf (V.Float f);
      match V.read_binary (Buffer.contents buf) (ref 0) with
      | V.Float f' ->
          Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')
      | _ -> false)

(* Fuzz: random databases (awkward values included: strings of comment,
   separator, quote and escape characters, control and non-ASCII bytes
   the printer writes as "\ddd", floats, booleans) survive a
   print/parse round-trip with identical possible-world structure. *)
let awkward = "a #%,()\"\\\n\t\b\001\233"

let fuzz_roundtrip =
  QCheck.Test.make ~name:"random db roundtrips" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let item = R.Schema.relation "Item" [ "id"; "kind" ] in
      let move = R.Schema.relation "Move" [ "id"; "owner" ] in
      let cat = R.Schema.of_list [ item; move ] in
      let constraints =
        [
          R.Constr.key item [ "id" ];
          R.Constr.ind ~sub:move [ "id" ] ~sup:item [ "id" ];
        ]
      in
      let rand_value () =
        match Random.State.int rng 5 with
        | 0 -> V.Int (Random.State.int rng 5)
        | 1 ->
            V.Str
              (String.init (Random.State.int rng 7) (fun _ ->
                   awkward.[Random.State.int rng (String.length awkward)]))
        | 2 -> V.Float (float_of_int (Random.State.int rng 9) /. 2.0)
        | 3 -> V.Bool (Random.State.bool rng)
        | _ -> V.Null
      in
      let state = R.Database.create cat in
      for i = 0 to 2 do
        ignore
          (R.Database.insert state "Item" (R.Tuple.make [ V.Int i; rand_value () ]))
      done;
      let k = 1 + Random.State.int rng 4 in
      let pending =
        List.init k (fun j ->
            if Random.State.bool rng then
              [ ("Item", R.Tuple.make [ V.Int (3 + j); rand_value () ]) ]
            else
              [
                ( "Move",
                  R.Tuple.make [ V.Int (Random.State.int rng 6); rand_value () ]
                );
              ])
      in
      let db = Core.Bcdb.create_exn ~state ~constraints ~pending () in
      let printed = Core.Bcdb_file.to_string db in
      match Core.Bcdb_file.of_string printed with
      | Error _ -> false
      | Ok db' ->
          let worlds d =
            let store = Core.Tagged_store.create d in
            let acc = ref [] in
            Core.Poss.enumerate store (fun w ->
                acc := Bcgraph.Bitset.to_list w :: !acc;
                `Continue);
            List.sort compare !acc
          in
          (* Value fidelity: printing the reparsed database must be a
             fixpoint (catches broken string escaping). *)
          String.equal printed (Core.Bcdb_file.to_string db')
          && worlds db = worlds db')

let () =
  Alcotest.run "file"
    [
      ( "bcdb-file",
        [
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "roundtrip paper" `Quick test_roundtrip_paper;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "error table" `Quick test_error_table;
          Alcotest.test_case "accepted table" `Quick test_accepted_table;
          Alcotest.test_case "transaction headers" `Quick test_tx_headers;
          Alcotest.test_case "issued labels roundtrip" `Quick test_issued_labels_roundtrip;
          Alcotest.test_case "comment characters in strings" `Quick
            test_comment_chars_roundtrip;
          Alcotest.test_case "values" `Quick test_values;
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "binary save/load" `Quick test_binary_save_load;
          Alcotest.test_case "binary rejects garbage" `Quick
            test_binary_rejects_garbage;
          Alcotest.test_case "binary damage is an error" `Quick test_binary_damage;
          Alcotest.test_case "row lists split outside quotes" `Quick test_parse_rows;
          Alcotest.test_case "float printing" `Quick test_float_printing;
          QCheck_alcotest.to_alcotest float_shortest_roundtrip;
          QCheck_alcotest.to_alcotest fuzz_roundtrip;
        ] );
    ]
