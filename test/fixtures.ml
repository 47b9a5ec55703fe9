(* Shared test fixtures.

   [paper_db] is the running example of the paper (Figure 2): the
   simplified Bitcoin schema of Example 1, the current state R, and the
   five pending transactions T1..T5. The paper works out this example in
   detail (Example 3: Poss(D) has exactly nine worlds; Section 6: the fd
   graph has maximal cliques {T1,T2,T3,T4} and {T2,T3,T4,T5}), which the
   test suites check verbatim. *)

module R = Relational
module V = R.Value
module Q = Bcquery
module Core = Bccore

let txout = Chain.Encode.txout
let txin = Chain.Encode.txin
let catalog = Chain.Encode.catalog
let constraints = Chain.Encode.constraints

(* Solver switches with the R ∪ T pre-check off, so the clique and
   component enumeration runs even where R ∪ T already refutes q. *)
let no_precheck = { Core.Dcsat.default with precheck = false }

let str s = V.Str s
let f x = V.Float x

let out_row txid ser pk amount =
  ("TxOut", R.Tuple.make [ str txid; V.Int ser; str pk; f amount ])

let in_row ptx pser pk amount ntx sg =
  ( "TxIn",
    R.Tuple.make [ str ptx; V.Int pser; str pk; f amount; str ntx; str sg ] )

let paper_state () =
  let db = R.Database.create catalog in
  R.Database.insert_all db
    [
      out_row "1" 1 "U1Pk" 1.0;
      out_row "2" 1 "U1Pk" 1.0;
      out_row "2" 2 "U2Pk" 4.0;
      out_row "3" 1 "U3Pk" 1.0;
      out_row "3" 2 "U4Pk" 0.5;
      out_row "3" 3 "U1Pk" 0.5;
      in_row "1" 1 "U1Pk" 1.0 "3" "U1Sig";
      in_row "2" 1 "U1Pk" 1.0 "3" "U1Sig";
    ];
  db

(* T1 .. T5 from Figure 2, ids 0 .. 4. *)
let paper_pending =
  [
    (* T1 *)
    [
      in_row "2" 2 "U2Pk" 4.0 "4" "U2Sig";
      out_row "4" 1 "U5Pk" 1.0;
      out_row "4" 2 "U2Pk" 3.0;
    ];
    (* T2 *)
    [ in_row "4" 2 "U2Pk" 3.0 "5" "U2Sig"; out_row "5" 1 "U4Pk" 3.0 ];
    (* T3 *)
    [ in_row "3" 3 "U1Pk" 0.5 "6" "U1Sig"; out_row "6" 1 "U4Pk" 0.5 ];
    (* T4 *)
    [
      in_row "6" 1 "U4Pk" 0.5 "7" "U4Sig";
      in_row "5" 1 "U4Pk" 3.0 "7" "U4Sig";
      out_row "7" 1 "U7Pk" 2.5;
      out_row "7" 2 "U8Pk" 1.0;
    ];
    (* T5 *)
    [ in_row "2" 2 "U2Pk" 4.0 "8" "U2Sig"; out_row "8" 1 "U7Pk" 4.0 ];
  ]

let paper_db () =
  Core.Bcdb.create_exn ~state:(paper_state ()) ~constraints
    ~pending:paper_pending
    ~labels:[ "T1"; "T2"; "T3"; "T4"; "T5" ]
    ()

(* The nine possible worlds of Example 3, as sorted id lists
   (T1 = 0, ..., T5 = 4). *)
let paper_worlds =
  [
    [];
    [ 0 ];
    [ 2 ];
    [ 0; 2 ];
    [ 0; 1 ];
    [ 0; 1; 2 ];
    [ 0; 1; 2; 3 ];
    [ 4 ];
    [ 2; 4 ];
  ]
  |> List.sort compare

(* Example 6 / 8: the denial constraint qs() <- TxOut(t, s, 'U8Pk', a). *)
let qs_u8 = Q.Parser.parse_exn ~catalog {| q() :- TxOut(t, s, "U8Pk", a). |}

let parse q = Q.Parser.parse_exn ~catalog q

(* A tiny single-relation schema for focused constraint tests:
   Account(owner, bank, balance), key = owner. *)
let account = R.Schema.relation "Account" [ "owner"; "bank"; "balance" ]
let account_catalog = R.Schema.of_list [ account ]
let account_row owner bank balance =
  ("Account", R.Tuple.make [ str owner; str bank; V.Int balance ])

let session_of db = Core.Session.create db

(* Every visible tuple of [rel], in order, through the zero-column
   probe — a source's full read. *)
let read_all (src : R.Source.t) rel =
  let acc = ref [] in
  (src.R.Source.prepare rel [||]).R.Source.iter [||] (fun t -> acc := t :: !acc);
  List.rev !acc

(* A requirement relation in comparable form: per transaction its
   validity, includability and open rows (ind, row, providers), sorted,
   then the connected components of its ΘI links. Two relations over
   one database agree on it whatever order their lists were built in. *)
type requirements_view = {
  rv_node_ok : bool list;
  rv_includable : bool list;
  rv_open : (int * string * int list) list list;
  rv_components : int list list;
}

let requirements_view req =
  let k = Core.Requirements.tx_count req in
  let uf = Bcgraph.Union_find.create k in
  Core.Requirements.iter_links req (Bcgraph.Union_find.union uf);
  {
    rv_node_ok = Array.to_list (Core.Requirements.node_ok req);
    rv_includable = Array.to_list (Core.Requirements.includable req);
    rv_open =
      List.init k (fun i ->
          List.sort compare
            (List.map
               (fun (j, row, providers) -> (j, R.Tuple.to_string row, providers))
               (Core.Requirements.open_rows req i)));
    rv_components = Bcgraph.Union_find.groups uf;
  }

let pp_requirements_view ppf v =
  let ints l = String.concat "," (List.map string_of_int l) in
  let bools l = String.concat "" (List.map (fun b -> if b then "1" else "0") l) in
  Format.fprintf ppf "valid %s; includable %s; open [%s]; components [%s]"
    (bools v.rv_node_ok) (bools v.rv_includable)
    (String.concat "; "
       (List.mapi
          (fun i rows ->
            Printf.sprintf "%d:%s" i
              (String.concat ","
                 (List.map
                    (fun (j, row, ps) -> Printf.sprintf "%d%s<-{%s}" j row (ints ps))
                    rows)))
          v.rv_open))
    (String.concat "; " (List.map (fun c -> "{" ^ ints c ^ "}") v.rv_components))

let requirements_testable = Alcotest.testable pp_requirements_view ( = )
