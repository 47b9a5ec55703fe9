module C = Chain
module R = Relational

type preset = Small | Mid | Large

let name = function Small -> "D-small" | Mid -> "D-mid" | Large -> "D-large"

let preset_of_string = function
  | "small" -> Ok Small
  | "mid" -> Ok Mid
  | "large" -> Ok Large
  | s -> Error (Printf.sprintf "unknown preset %S (small|mid|large)" s)

let params preset =
  let base = Generator.default_params in
  match preset with
  | Small -> { base with Generator.state_blocks = 20; txs_per_block = 25; seed = 11 }
  | Mid -> { base with Generator.state_blocks = 40; txs_per_block = 35; seed = 22 }
  | Large -> { base with Generator.state_blocks = 70; txs_per_block = 45; seed = 33 }

let sweep_params =
  {
    (params Mid) with
    Generator.pending_blocks = 50;
    max_contradictions = 60;
    seed = 44;
  }

let default_contradictions = 20

type stats = {
  blocks : int;
  transactions : int;
  input_rows : int;
  output_rows : int;
}

let stats_of_txs blocks txs =
  {
    blocks;
    transactions = List.length txs;
    input_rows =
      List.fold_left (fun acc (tx : C.Tx.t) -> acc + List.length tx.C.Tx.inputs) 0 txs;
    output_rows =
      List.fold_left
        (fun acc (tx : C.Tx.t) -> acc + List.length tx.C.Tx.outputs)
        0 txs;
  }

let state_stats (sim : Generator.sim) =
  stats_of_txs
    (sim.Generator.params.Generator.state_blocks + 1)
    sim.Generator.confirmed_txs

let pending_stats (sim : Generator.sim) ~pending_take ~contradictions =
  let pending =
    List.concat
      (List.filteri (fun i _ -> i < pending_take) sim.Generator.pending_by_block)
    @ List.filteri (fun i _ -> i < contradictions) sim.Generator.conflict_pool
  in
  stats_of_txs pending_take pending

let paper () =
  let out_row txid ser pk amount =
    ("TxOut", R.Tuple.make [ R.Value.Str txid; R.Value.Int ser; R.Value.Str pk; R.Value.Float amount ])
  in
  let in_row ptx pser pk amount ntx sg =
    ( "TxIn",
      R.Tuple.make
        [ R.Value.Str ptx; R.Value.Int pser; R.Value.Str pk; R.Value.Float amount;
          R.Value.Str ntx; R.Value.Str sg ] )
  in
  let state = R.Database.create C.Encode.catalog in
  R.Database.insert_all state
    [
      out_row "1" 1 "U1Pk" 1.0; out_row "2" 1 "U1Pk" 1.0;
      out_row "2" 2 "U2Pk" 4.0; out_row "3" 1 "U3Pk" 1.0;
      out_row "3" 2 "U4Pk" 0.5; out_row "3" 3 "U1Pk" 0.5;
      in_row "1" 1 "U1Pk" 1.0 "3" "U1Sig";
      in_row "2" 1 "U1Pk" 1.0 "3" "U1Sig";
    ];
  Bccore.Bcdb.create_exn ~state ~constraints:C.Encode.constraints
    ~pending:
      [
        [ in_row "2" 2 "U2Pk" 4.0 "4" "U2Sig"; out_row "4" 1 "U5Pk" 1.0;
          out_row "4" 2 "U2Pk" 3.0 ];
        [ in_row "4" 2 "U2Pk" 3.0 "5" "U2Sig"; out_row "5" 1 "U4Pk" 3.0 ];
        [ in_row "3" 3 "U1Pk" 0.5 "6" "U1Sig"; out_row "6" 1 "U4Pk" 0.5 ];
        [ in_row "6" 1 "U4Pk" 0.5 "7" "U4Sig"; in_row "5" 1 "U4Pk" 3.0 "7" "U4Sig";
          out_row "7" 1 "U7Pk" 2.5; out_row "7" 2 "U8Pk" 1.0 ];
        [ in_row "2" 2 "U2Pk" 4.0 "8" "U2Sig"; out_row "8" 1 "U7Pk" 4.0 ];
      ]
    ~labels:[ "T1"; "T2"; "T3"; "T4"; "T5" ]
    ()
