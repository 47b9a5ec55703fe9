(* Chain substrate: crypto mock, scripts, transactions, UTXO, mempool,
   miner, chain state, wallets, relational encoding. *)

module C = Chain
module R = Relational

let kp seed = C.Crypto.keypair ~seed

let test_crypto () =
  let a = kp "alice" and b = kp "bob" in
  Alcotest.(check bool) "distinct keys" false
    (String.equal a.C.Crypto.public b.C.Crypto.public);
  let s = C.Crypto.sign a ~msg:"hello" in
  Alcotest.(check bool) "verifies" true
    (C.Crypto.verify ~public:a.C.Crypto.public ~msg:"hello" ~signature:s);
  Alcotest.(check bool) "wrong message" false
    (C.Crypto.verify ~public:a.C.Crypto.public ~msg:"other" ~signature:s);
  Alcotest.(check bool) "wrong key" false
    (C.Crypto.verify ~public:b.C.Crypto.public ~msg:"hello" ~signature:s);
  Alcotest.(check bool) "combine injective-ish" false
    (String.equal (C.Crypto.combine [ "ab"; "c" ]) (C.Crypto.combine [ "a"; "bc" ]))

let test_scripts () =
  let a = kp "alice" in
  let msg = "spend" in
  let witness =
    C.Script.Key_sig
      { public = a.C.Crypto.public; signature = C.Crypto.sign a ~msg }
  in
  Alcotest.(check bool) "p2pk unlock" true
    (C.Script.unlock (C.Script.Pay_to_key a.C.Crypto.public) witness ~msg ~height:0);
  Alcotest.(check bool) "p2pk wrong key" false
    (C.Script.unlock (C.Script.Pay_to_key "PKother") witness ~msg ~height:0);
  let lock = C.Script.Hash_lock (C.Crypto.digest "secret") in
  Alcotest.(check bool) "hash lock" true
    (C.Script.unlock lock (C.Script.Preimage "secret") ~msg ~height:0);
  Alcotest.(check bool) "wrong preimage" false
    (C.Script.unlock lock (C.Script.Preimage "nope") ~msg ~height:0);
  let b = kp "bob" and c = kp "carol" in
  let multisig =
    C.Script.Multi_sig (2, [ a.C.Crypto.public; b.C.Crypto.public; c.C.Crypto.public ])
  in
  let sig_of k = (k.C.Crypto.public, C.Crypto.sign k ~msg) in
  Alcotest.(check bool) "2-of-3 with 2" true
    (C.Script.unlock multisig (C.Script.Sig_list [ sig_of a; sig_of c ]) ~msg ~height:0);
  Alcotest.(check bool) "2-of-3 with 1" false
    (C.Script.unlock multisig (C.Script.Sig_list [ sig_of a ]) ~msg ~height:0);
  Alcotest.(check bool) "duplicate sigs don't count twice" false
    (C.Script.unlock multisig (C.Script.Sig_list [ sig_of a; sig_of a ]) ~msg ~height:0)

let test_timelock_script () =
  let a = kp "alice" in
  let msg = "spend" in
  let witness =
    C.Script.Key_sig
      { public = a.C.Crypto.public; signature = C.Crypto.sign a ~msg }
  in
  let locked = C.Script.Timelock (5, C.Script.Pay_to_key a.C.Crypto.public) in
  Alcotest.(check bool) "locked before height" false
    (C.Script.unlock locked witness ~msg ~height:4);
  Alcotest.(check bool) "spendable at height" true
    (C.Script.unlock locked witness ~msg ~height:5);
  Alcotest.(check bool) "owner hint unwraps" true
    (String.equal (C.Script.owner_hint locked) a.C.Crypto.public)

let test_timelock_on_chain () =
  let alice = C.Wallet.create ~seed:"alice" in
  let bob = C.Wallet.create ~seed:"bob" in
  (* Alice's only coin is locked until height 3. *)
  let node =
    C.Node.create
      ~initial:[ (C.Script.Timelock (3, C.Wallet.address alice), 50_000) ]
  in
  let spend () =
    match
      C.Wallet.pay alice ~utxo:(C.Node.utxo node) ~to_:(C.Wallet.address bob)
        ~amount:10_000 ~fee:100
    with
    | Ok tx -> C.Node.submit node tx
    | Error msg -> Alcotest.fail msg
  in
  (* Next block is height 1 < 3: the mempool rejects the spend. *)
  (match spend () with
  | Error (C.Mempool.Invalid _) -> ()
  | Error r -> Alcotest.failf "unexpected reject: %a" C.Mempool.pp_reject r
  | Ok () -> Alcotest.fail "premature timelocked spend accepted");
  (* Mine empty blocks until the lock matures, then it goes through. *)
  let miner = C.Wallet.create ~seed:"m" in
  for _ = 1 to 2 do
    match C.Node.mine node ~coinbase_script:(C.Wallet.address miner) () with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  done;
  (match spend () with
  | Ok () -> ()
  | Error r -> Alcotest.failf "mature spend rejected: %a" C.Mempool.pp_reject r);
  (match C.Node.mine node ~coinbase_script:(C.Wallet.address miner) () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "bob paid after maturity" 10_000
    (C.Wallet.balance bob (C.Node.utxo node))

(* A two-wallet world: genesis gives Alice one coin. *)
let small_node () =
  let alice = C.Wallet.create ~seed:"alice" in
  let bob = C.Wallet.create ~seed:"bob" in
  let node = C.Node.create ~initial:[ (C.Wallet.address alice, 100_000) ] in
  (node, alice, bob)

let test_pay_and_mine () =
  let node, alice, bob = small_node () in
  Alcotest.(check int) "alice funded" 100_000
    (C.Wallet.balance alice (C.Node.utxo node));
  let tx =
    match
      C.Wallet.pay alice ~utxo:(C.Node.utxo node) ~to_:(C.Wallet.address bob)
        ~amount:30_000 ~fee:500
    with
    | Ok tx -> tx
    | Error msg -> Alcotest.fail msg
  in
  (match C.Node.submit node tx with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit: %a" C.Mempool.pp_reject r);
  let miner = C.Wallet.create ~seed:"miner" in
  (match C.Node.mine node ~coinbase_script:(C.Wallet.address miner) () with
  | Ok block -> Alcotest.(check int) "block has coinbase + tx" 2 (C.Block.tx_count block)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "bob paid" 30_000 (C.Wallet.balance bob (C.Node.utxo node));
  Alcotest.(check int) "alice change" 69_500
    (C.Wallet.balance alice (C.Node.utxo node));
  Alcotest.(check int) "miner got reward + fee" (C.Miner.block_reward + 500)
    (C.Wallet.balance miner (C.Node.utxo node));
  Alcotest.(check int) "mempool empty" 0 (C.Mempool.size (C.Node.mempool node))

let test_insufficient_funds () =
  let node, alice, bob = small_node () in
  match
    C.Wallet.pay alice ~utxo:(C.Node.utxo node) ~to_:(C.Wallet.address bob)
      ~amount:200_000 ~fee:10
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overspend must fail"

let test_conflict_rejected_then_rbf () =
  let node, alice, bob = small_node () in
  let utxo = C.Node.utxo node in
  let pay fee =
    match
      C.Wallet.pay alice ~utxo ~to_:(C.Wallet.address bob) ~amount:10_000 ~fee
    with
    | Ok tx -> tx
    | Error msg -> Alcotest.fail msg
  in
  let tx1 = pay 100 in
  (match C.Node.submit node tx1 with
  | Ok () -> ()
  | Error r -> Alcotest.failf "first submit: %a" C.Mempool.pp_reject r);
  (* Same coins, insufficient bump: rejected. *)
  let tx2 = pay 105 in
  Alcotest.(check bool) "conflict shares input" true (C.Tx.conflicts tx1 tx2);
  (match C.Node.submit node tx2 with
  | Error (C.Mempool.Fee_too_low _) -> ()
  | Error r -> Alcotest.failf "unexpected reject: %a" C.Mempool.pp_reject r
  | Ok () -> Alcotest.fail "low-fee replacement must be rejected");
  (* Proper fee bump: replaces. *)
  let tx3 = pay 500 in
  (match C.Node.submit node tx3 with
  | Ok () -> ()
  | Error r -> Alcotest.failf "rbf: %a" C.Mempool.pp_reject r);
  Alcotest.(check int) "pool holds only the replacement" 1
    (C.Mempool.size (C.Node.mempool node));
  Alcotest.(check bool) "old tx evicted" false
    (C.Mempool.mem (C.Node.mempool node) tx1.C.Tx.txid)

let test_mempool_chaining_and_eviction () =
  let node, alice, bob = small_node () in
  let effective = C.Utxo.copy (C.Node.utxo node) in
  let pay_eff wallet to_ amount fee =
    match C.Wallet.pay wallet ~utxo:effective ~to_ ~amount ~fee with
    | Ok tx -> (
        match C.Node.submit node tx with
        | Ok () ->
            (match C.Utxo.apply_tx effective tx with
            | Ok () -> ()
            | Error msg -> Alcotest.fail msg);
            tx
        | Error r -> Alcotest.failf "submit: %a" C.Mempool.pp_reject r)
    | Error msg -> Alcotest.fail msg
  in
  let tx1 = pay_eff alice (C.Wallet.address bob) 40_000 200 in
  (* Bob spends his unconfirmed coin: a chained pending transaction. *)
  let _tx2 = pay_eff bob (C.Wallet.address alice) 15_000 200 in
  Alcotest.(check int) "two pool txs" 2 (C.Mempool.size (C.Node.mempool node));
  (* Evicting the parent drags the descendant out. *)
  C.Mempool.remove (C.Node.mempool node) tx1.C.Tx.txid;
  Alcotest.(check int) "descendant evicted too" 0
    (C.Mempool.size (C.Node.mempool node))

let test_rbf_evicts_descendants () =
  (* A replacement conflicts only with the parent, but eviction drags the
     parent's whole pool subtree out — fee accounting included: the bump
     is computed against the direct conflicts, the removal is
     transitive. *)
  let node, alice, bob = small_node () in
  let pool = C.Node.mempool node in
  let effective = C.Utxo.copy (C.Node.utxo node) in
  let pay_eff wallet to_ amount fee =
    match C.Wallet.pay wallet ~utxo:effective ~to_ ~amount ~fee with
    | Ok tx -> (
        match C.Node.submit node tx with
        | Ok () ->
            (match C.Utxo.apply_tx effective tx with
            | Ok () -> ()
            | Error msg -> Alcotest.fail msg);
            tx
        | Error r -> Alcotest.failf "submit: %a" C.Mempool.pp_reject r)
    | Error msg -> Alcotest.fail msg
  in
  let tx1 = pay_eff alice (C.Wallet.address bob) 40_000 200 in
  let tx2 = pay_eff bob (C.Wallet.address alice) 15_000 200 in
  Alcotest.(check int) "parent and child pending" 2 (C.Mempool.size pool);
  Alcotest.(check int) "descendant set covers both" 2
    (List.length (C.Mempool.descendants pool tx1.C.Tx.txid));
  (* Replace the parent from the same coins; tx2 never conflicts with the
     replacement directly, yet it cannot survive its parent. *)
  let tx3 =
    match
      C.Wallet.pay alice ~utxo:(C.Node.utxo node) ~to_:(C.Wallet.address bob)
        ~amount:40_000 ~fee:500
    with
    | Ok tx -> tx
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "replacement conflicts with parent" true
    (C.Tx.conflicts tx1 tx3);
  Alcotest.(check bool) "replacement independent of child" false
    (C.Tx.conflicts tx2 tx3);
  (match C.Node.submit node tx3 with
  | Ok () -> ()
  | Error r -> Alcotest.failf "rbf: %a" C.Mempool.pp_reject r);
  Alcotest.(check int) "only the replacement remains" 1 (C.Mempool.size pool);
  Alcotest.(check bool) "parent evicted" false (C.Mempool.mem pool tx1.C.Tx.txid);
  Alcotest.(check bool) "orphaned child evicted" false
    (C.Mempool.mem pool tx2.C.Tx.txid);
  Alcotest.(check bool) "replacement admitted" true
    (C.Mempool.mem pool tx3.C.Tx.txid)

let test_confirm_block_evicts_conflict () =
  (* A block confirming a conflicting transaction (mined elsewhere, not
     from our pool) invalidates the pool entry spending the same coins:
     confirm_block must drop it even though the block never contained
     it. *)
  let node, alice, bob = small_node () in
  let pool = C.Node.mempool node in
  let utxo = C.Node.utxo node in
  let tx =
    match
      C.Wallet.pay alice ~utxo ~to_:(C.Wallet.address bob) ~amount:10_000
        ~fee:100
    with
    | Ok tx -> tx
    | Error msg -> Alcotest.fail msg
  in
  let cancel =
    match C.Wallet.cancel alice ~utxo ~original:tx ~fee:600 with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  (match C.Node.submit node tx with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit: %a" C.Mempool.pp_reject r);
  Alcotest.(check bool) "payment pending" true (C.Mempool.mem pool tx.C.Tx.txid);
  let chain = C.Node.chain node in
  let coinbase =
    C.Tx.coinbase ~reward:C.Miner.block_reward
      ~script:(C.Script.Pay_to_key "PKrival") ~tag:"rival"
  in
  let block =
    match
      C.Block.create ~height:1 ~prev_hash:(C.Chain_state.tip_hash chain)
        ~timestamp:7 ~txs:[ coinbase; cancel ]
    with
    | Ok b -> b
    | Error msg -> Alcotest.fail msg
  in
  (match C.Chain_state.connect_block chain block with
  | Ok C.Chain_state.Extended -> ()
  | Ok _ -> Alcotest.fail "expected a tip extension"
  | Error msg -> Alcotest.fail msg);
  C.Mempool.confirm_block pool block;
  Alcotest.(check bool) "conflicting pool tx evicted" false
    (C.Mempool.mem pool tx.C.Tx.txid);
  Alcotest.(check int) "pool empty" 0 (C.Mempool.size pool);
  (* The cancel returned the coins to Alice (minus its fee). *)
  Alcotest.(check int) "bob never paid" 0
    (C.Wallet.balance bob (C.Node.utxo node));
  Alcotest.(check int) "alice holds the change" 99_400
    (C.Wallet.balance alice (C.Node.utxo node))

let test_wallet_cancel_conflicts () =
  let node, alice, bob = small_node () in
  let utxo = C.Node.utxo node in
  let tx =
    match
      C.Wallet.pay alice ~utxo ~to_:(C.Wallet.address bob) ~amount:10_000 ~fee:100
    with
    | Ok tx -> tx
    | Error msg -> Alcotest.fail msg
  in
  let cancel =
    match C.Wallet.cancel alice ~utxo ~original:tx ~fee:600 with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "cancel conflicts with original" true
    (C.Tx.conflicts tx cancel);
  (match C.Tx.validate ~resolver:(C.Utxo.resolver utxo) cancel with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "cancel invalid: %s" msg);
  let bump =
    match C.Wallet.bump_fee alice ~original:tx ~add_fee:400 with
    | Ok b -> b
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "bump conflicts with original" true
    (C.Tx.conflicts tx bump);
  (* The bump keeps the payment to Bob intact. *)
  Alcotest.(check bool) "bump still pays bob" true
    (List.exists
       (fun (o : C.Tx.output) ->
         o.C.Tx.amount = 10_000 && C.Wallet.owns bob o.C.Tx.script)
       bump.C.Tx.outputs)

let test_block_validation () =
  let node, alice, _bob = small_node () in
  let chain = C.Node.chain node in
  ignore alice;
  (* A block with the wrong parent is rejected. *)
  let coinbase =
    C.Tx.coinbase ~reward:C.Miner.block_reward
      ~script:(C.Script.Pay_to_key "PKx") ~tag:"h1"
  in
  let bad =
    match
      C.Block.create ~height:1 ~prev_hash:(C.Crypto.digest "wrong") ~timestamp:1
        ~txs:[ coinbase ]
    with
    | Ok b -> b
    | Error msg -> Alcotest.fail msg
  in
  (match C.Chain_state.connect_block chain bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong parent accepted");
  (* An overpaying coinbase is rejected. *)
  let greedy =
    C.Tx.coinbase ~reward:(C.Miner.block_reward + 1)
      ~script:(C.Script.Pay_to_key "PKx") ~tag:"h1"
  in
  let over =
    match
      C.Block.create ~height:1 ~prev_hash:(C.Chain_state.tip_hash chain)
        ~timestamp:1 ~txs:[ greedy ]
    with
    | Ok b -> b
    | Error msg -> Alcotest.fail msg
  in
  match C.Chain_state.connect_block chain over with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overpaying coinbase accepted"

let test_reorg () =
  let alice = C.Wallet.create ~seed:"alice" in
  let bob = C.Wallet.create ~seed:"bob" in
  let node = C.Node.create ~initial:[ (C.Wallet.address alice, 100_000) ] in
  let chain = C.Node.chain node in
  (* Branch A: one block containing Alice's payment to Bob. *)
  let tx =
    match
      C.Wallet.pay alice ~utxo:(C.Node.utxo node) ~to_:(C.Wallet.address bob)
        ~amount:30_000 ~fee:500
    with
    | Ok tx -> tx
    | Error msg -> Alcotest.fail msg
  in
  (match C.Node.submit node tx with
  | Ok () -> ()
  | Error r -> Alcotest.failf "%a" C.Mempool.pp_reject r);
  let genesis_hash =
    C.Block.hash (List.hd (C.Chain_state.blocks chain))
  in
  (match C.Node.mine node ~coinbase_script:(C.Wallet.address alice) () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "on branch A" 1 (C.Chain_state.height chain);
  Alcotest.(check int) "bob paid on A" 30_000
    (C.Wallet.balance bob (C.Node.utxo node));
  (* A competing empty branch B of length 2 from genesis overtakes A. *)
  let mk_block height prev tag =
    let coinbase =
      C.Tx.coinbase ~reward:C.Miner.block_reward
        ~script:(C.Script.Pay_to_key ("PKrival" ^ tag))
        ~tag
    in
    match C.Block.create ~height ~prev_hash:prev ~timestamp:99 ~txs:[ coinbase ] with
    | Ok b -> b
    | Error msg -> Alcotest.fail msg
  in
  let b1 = mk_block 1 genesis_hash "b1" in
  (match C.Chain_state.connect_block chain b1 with
  | Ok C.Chain_state.Side_branch -> ()
  | Ok _ -> Alcotest.fail "same-height branch must not take over"
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "tip unchanged" 1 (C.Chain_state.height chain);
  let b2 = mk_block 2 (C.Block.hash b1) "b2" in
  (match C.Chain_state.connect_block chain b2 with
  | Ok (C.Chain_state.Reorg { disconnected; connected }) ->
      Alcotest.(check int) "one block abandoned" 1 (List.length disconnected);
      Alcotest.(check int) "two blocks activated" 2 (List.length connected)
  | Ok _ -> Alcotest.fail "expected a reorg"
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "tip at height 2" 2 (C.Chain_state.height chain);
  (* On the new branch Bob was never paid; the UTXO reflects that. *)
  Alcotest.(check int) "bob unpaid after reorg" 0
    (C.Wallet.balance bob (C.Node.utxo node));
  Alcotest.(check int) "alice coin restored" 100_000
    (C.Wallet.balance alice (C.Node.utxo node));
  Alcotest.(check int) "three non-genesis blocks stored" 4
    (C.Chain_state.block_count chain)

let test_network_fork_race () =
  (* Two halves mine competing blocks while partitioned; after healing,
     the longer branch wins everywhere and the short branch's payment
     returns to the mempool. *)
  let alice = C.Wallet.create ~seed:"alice" in
  let bob = C.Wallet.create ~seed:"bob" in
  let net =
    C.Network.create ~peers:2 ~initial:[ (C.Wallet.address alice, 100_000) ] ()
  in
  C.Network.partition net [ 1 ];
  (* Peer 0 mines a block with a payment. *)
  let tx =
    match
      C.Wallet.pay alice
        ~utxo:(C.Node.utxo (C.Network.peer net 0))
        ~to_:(C.Wallet.address bob) ~amount:20_000 ~fee:300
    with
    | Ok tx -> tx
    | Error msg -> Alcotest.fail msg
  in
  (match C.Network.submit net ~at:0 tx with
  | Ok () -> ()
  | Error r -> Alcotest.failf "%a" C.Mempool.pp_reject r);
  (match C.Network.mine_at net ~at:0 ~coinbase_script:(C.Wallet.address alice) () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  (* Peer 1 mines two empty blocks: the longer branch. *)
  for _ = 1 to 2 do
    match
      C.Network.mine_at net ~at:1 ~coinbase_script:(C.Script.Pay_to_key "PKm") ()
    with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  done;
  ignore (C.Network.deliver net ());
  C.Network.heal net;
  ignore (C.Network.deliver net ());
  (* Both peers end on the longer branch... *)
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "peer %d height" i)
        2
        (C.Chain_state.height (C.Node.chain (C.Network.peer net i))))
    [ 0; 1 ];
  Alcotest.(check string) "same tip"
    (C.Chain_state.tip_hash (C.Node.chain (C.Network.peer net 0)))
    (C.Chain_state.tip_hash (C.Node.chain (C.Network.peer net 1)));
  (* ... and the orphaned payment is pending again on peer 0. *)
  Alcotest.(check bool) "payment back in peer 0's mempool" true
    (C.Mempool.mem (C.Node.mempool (C.Network.peer net 0)) tx.C.Tx.txid)

(* Conservation: coins in the UTXO set equal minted coins minus burned
   fees... in our model fees flow to the miner, so total UTXO value =
   genesis + rewards + fees collected - fees paid = genesis + rewards. *)
let conservation_prop =
  QCheck.Test.make ~name:"value conservation across random traffic" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let wallets =
        Array.init 4 (fun i -> C.Wallet.create ~seed:(Printf.sprintf "w%d-%d" seed i))
      in
      let node =
        C.Node.create
          ~initial:
            (Array.to_list wallets
            |> List.map (fun w -> (C.Wallet.address w, 50_000)))
      in
      let miner = C.Wallet.create ~seed:"m" in
      let blocks = 3 in
      for _ = 1 to blocks do
        let effective = C.Utxo.copy (C.Node.utxo node) in
        for _ = 1 to 5 do
          let s = wallets.(Random.State.int rng 4) in
          let r = wallets.(Random.State.int rng 4) in
          if s != r && C.Wallet.balance s effective > 2_000 then
            match
              C.Wallet.pay s ~utxo:effective ~to_:(C.Wallet.address r)
                ~amount:(500 + Random.State.int rng 1_000)
                ~fee:(10 + Random.State.int rng 90)
            with
            | Ok tx -> (
                match C.Node.submit node tx with
                | Ok () -> ignore (C.Utxo.apply_tx effective tx)
                | Error _ -> ())
            | Error _ -> ()
        done;
        match C.Node.mine node ~coinbase_script:(C.Wallet.address miner) () with
        | Ok _ -> ()
        | Error msg -> Alcotest.fail msg
      done;
      let expected = (4 * 50_000) + (blocks * C.Miner.block_reward) in
      C.Utxo.total_amount (C.Node.utxo node) = expected)

(* --- relational encoding --- *)

let test_encoding_paper_constraints () =
  let node, alice, bob = small_node () in
  let effective = C.Utxo.copy (C.Node.utxo node) in
  (match C.Wallet.pay alice ~utxo:effective ~to_:(C.Wallet.address bob)
           ~amount:30_000 ~fee:500 with
  | Ok tx -> (
      match C.Node.submit node tx with
      | Ok () -> ()
      | Error r -> Alcotest.failf "%a" C.Mempool.pp_reject r)
  | Error msg -> Alcotest.fail msg);
  match C.Encode.bcdb_of_node node with
  | Error msg -> Alcotest.fail msg
  | Ok db ->
      Alcotest.(check int) "one pending tx" 1 (Bccore.Bcdb.pending_count db);
      (* The encoded state satisfies the paper's constraints by
         construction, and the pending payment can actually be appended. *)
      let store = Bccore.Tagged_store.create db in
      Alcotest.(check bool) "pending tx appendable" true
        (Bccore.Poss.is_possible_world store (Bcgraph.Bitset.of_list 1 [ 0 ]))

let test_encoding_double_spend_conflict () =
  let node, alice, bob = small_node () in
  let utxo = C.Node.utxo node in
  let tx =
    match
      C.Wallet.pay alice ~utxo ~to_:(C.Wallet.address bob) ~amount:10_000 ~fee:100
    with
    | Ok tx -> tx
    | Error msg -> Alcotest.fail msg
  in
  let cancel =
    match C.Wallet.cancel alice ~utxo ~original:tx ~fee:600 with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  let db =
    match
      C.Encode.bcdb_of_txs
        ~confirmed:(C.Chain_state.all_txs (C.Node.chain node))
        ~pending:[ tx; cancel ]
        ~resolver:(C.Chain_state.find_output (C.Node.chain node))
    with
    | Ok db -> db
    | Error msg -> Alcotest.fail msg
  in
  let store = Bccore.Tagged_store.create db in
  let fd =
    Bccore.Fd_graph.build store
      ~node_ok:(fst (Bccore.Tagged_store.validity store))
  in
  (* The double spend is an fd contradiction: TxIn key (prevTxId,
     prevSer). *)
  Alcotest.(check (list (pair int int)))
    "conflict detected" [ (0, 1) ] fd.Bccore.Fd_graph.conflicts;
  Alcotest.(check int) "poss: R, R+tx, R+cancel" 3 (Bccore.Poss.count store)

let test_reorg_invalidates_pending_check () =
  (* The event the paper's uncertainty model is really about: a pending
     transaction passes a DCSat check, then a reorg disconnects the
     confirmed output it spends. The old session keeps answering from
     its snapshot; a fresh encoding of the node shows the pending
     transaction is no longer appendable in any possible world. *)
  let alice = C.Wallet.create ~seed:"alice" in
  let bob = C.Wallet.create ~seed:"bob" in
  let node = C.Node.create ~initial:[ (C.Wallet.address alice, 100_000) ] in
  let chain = C.Node.chain node in
  let genesis_hash = C.Block.hash (List.hd (C.Chain_state.blocks chain)) in
  (* Block A1 confirms Alice's payment; Bob then spends his new coin, and
     that spend sits in the mempool. *)
  (match
     C.Wallet.pay alice ~utxo:(C.Node.utxo node) ~to_:(C.Wallet.address bob)
       ~amount:30_000 ~fee:500
   with
  | Ok tx -> (
      match C.Node.submit node tx with
      | Ok () -> ()
      | Error r -> Alcotest.failf "%a" C.Mempool.pp_reject r)
  | Error msg -> Alcotest.fail msg);
  (match C.Node.mine node ~coinbase_script:(C.Wallet.address alice) () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let tx_b =
    match
      C.Wallet.pay bob ~utxo:(C.Node.utxo node) ~to_:(C.Wallet.address alice)
        ~amount:5_000 ~fee:100
    with
    | Ok tx -> tx
    | Error msg -> Alcotest.fail msg
  in
  (match C.Node.submit node tx_b with
  | Ok () -> ()
  | Error r -> Alcotest.failf "%a" C.Mempool.pp_reject r);
  (* DCSat check against the pre-reorg state: the double-spend denial
     constraint is satisfiable-forever, and Bob's pending transaction is
     a possible world. *)
  let pre_db =
    match C.Encode.bcdb_of_node node with
    | Ok db -> db
    | Error msg -> Alcotest.fail msg
  in
  let world0 = Bcgraph.Bitset.of_list 1 [ 0 ] in
  let pre_store = Bccore.Tagged_store.create pre_db in
  Alcotest.(check bool) "pending appendable before reorg" true
    (Bccore.Poss.is_possible_world pre_store world0);
  let q =
    Bcquery.Parser.parse_exn ~catalog:C.Encode.catalog
      "q() :- TxIn(p, s, k1, a1, n1, g1), TxIn(p, s, k2, a2, n2, g2), n1 != n2."
  in
  let session = Bccore.Session.create pre_db in
  (match Bccore.Dcsat.opt ~jobs:2 session q with
  | Ok outcome ->
      Alcotest.(check bool) "no double spend reachable" true
        outcome.Bccore.Dcsat.satisfied
  | Error _ -> Alcotest.fail "opt refused the double-spend query");
  (* Mid-check, the chain reorganizes under the node: an empty rival
     branch of length 2 from genesis orphans block A1 — and with it the
     output tx_b spends. The mempool itself is untouched. *)
  let mk_block height prev tag =
    let coinbase =
      C.Tx.coinbase ~reward:C.Miner.block_reward
        ~script:(C.Script.Pay_to_key ("PKrival" ^ tag))
        ~tag
    in
    match
      C.Block.create ~height ~prev_hash:prev ~timestamp:99 ~txs:[ coinbase ]
    with
    | Ok b -> b
    | Error msg -> Alcotest.fail msg
  in
  let b1 = mk_block 1 genesis_hash "r1" in
  (match C.Chain_state.connect_block chain b1 with
  | Ok C.Chain_state.Side_branch -> ()
  | Ok _ -> Alcotest.fail "rival must start as a side branch"
  | Error msg -> Alcotest.fail msg);
  let b2 = mk_block 2 (C.Block.hash b1) "r2" in
  (match C.Chain_state.connect_block chain b2 with
  | Ok (C.Chain_state.Reorg _) -> ()
  | Ok _ -> Alcotest.fail "expected a reorg"
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "tx_b still pending in the pool" true
    (C.Mempool.mem (C.Node.mempool node) tx_b.C.Tx.txid);
  (* The pre-reorg session answers from its snapshot, unperturbed. *)
  Alcotest.(check bool) "old snapshot still consistent" true
    (Bccore.Poss.is_possible_world pre_store world0);
  (* A fresh encoding sees the truth: tx_b's TxIn references a TxOut no
     confirmed transaction provides, so the inclusion dependency fails
     in every world containing it — Poss(D) collapses to {R}. *)
  let post_db =
    match C.Encode.bcdb_of_node node with
    | Ok db -> db
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "still one pending tx encoded" 1
    (Bccore.Bcdb.pending_count post_db);
  let post_store = Bccore.Tagged_store.create post_db in
  Alcotest.(check bool) "pending no longer appendable" false
    (Bccore.Poss.is_possible_world post_store world0);
  Alcotest.(check int) "possible worlds collapse to {R}" 1
    (Bccore.Poss.count post_store)

(* Edge: a replacement whose victim has a confirmed descendant. The RBF
   evicts the original *and* its in-pool child; when another peer then
   confirms the original pair, connecting that block must evict the
   replacement everywhere, and a fresh conflict against the now-confirmed
   transaction must bounce with [Unknown_inputs]. *)
let test_rbf_descendant_confirmed () =
  let alice = C.Wallet.create ~seed:"alice" in
  let bob = C.Wallet.create ~seed:"bob" in
  let carol = C.Wallet.create ~seed:"carol" in
  let net =
    C.Network.create ~peers:2 ~initial:[ (C.Wallet.address alice, 100_000) ] ()
  in
  let peer0 = C.Network.peer net 0 in
  let pay ~utxo ~to_ ~amount ~fee =
    match C.Wallet.pay alice ~utxo ~to_ ~amount ~fee with
    | Ok tx -> tx
    | Error msg -> Alcotest.fail msg
  in
  let submit ~at tx =
    match C.Network.submit net ~at tx with
    | Ok () -> ()
    | Error r -> Alcotest.failf "submit: %a" C.Mempool.pp_reject r
  in
  let tx_a =
    pay ~utxo:(C.Node.utxo peer0) ~to_:(C.Wallet.address bob) ~amount:30_000
      ~fee:300
  in
  submit ~at:0 tx_a;
  (* The child spends A's change. *)
  let view = C.Utxo.copy (C.Node.utxo peer0) in
  (match C.Utxo.apply_tx view tx_a with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let tx_b =
    pay ~utxo:view ~to_:(C.Wallet.address carol) ~amount:20_000 ~fee:300
  in
  submit ~at:0 tx_b;
  ignore (C.Network.deliver net ());
  C.Network.partition net [ 1 ];
  (* Replace A at peer 0: the descendant must go with it. *)
  let tx_a' =
    pay ~utxo:(C.Node.utxo peer0) ~to_:(C.Wallet.address bob) ~amount:30_000
      ~fee:2_000
  in
  submit ~at:0 tx_a';
  Alcotest.(check bool) "A evicted by RBF" false
    (C.Mempool.mem (C.Node.mempool peer0) tx_a.C.Tx.txid);
  Alcotest.(check bool) "descendant B evicted with A" false
    (C.Mempool.mem (C.Node.mempool peer0) tx_b.C.Tx.txid);
  Alcotest.(check (list string))
    "only the replacement pends at peer 0"
    [ tx_a'.C.Tx.txid ]
    (C.Network.mempool_view net 0);
  (* Peer 1 never saw the replacement and confirms the original pair. *)
  (match
     C.Network.mine_at net ~at:1 ~coinbase_script:(C.Script.Pay_to_key "PKm") ()
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  C.Network.heal net;
  ignore (C.Network.deliver net ());
  Alcotest.(check (list string))
    "confirming A evicted the conflicting replacement" []
    (C.Network.mempool_view net 0);
  Alcotest.(check (list string)) "peer 1 pool drained" []
    (C.Network.mempool_view net 1);
  Alcotest.(check bool) "network in sync" true (C.Network.in_sync net);
  Alcotest.(check int) "bob paid exactly once" 30_000
    (C.Wallet.balance bob (C.Node.utxo peer0));
  Alcotest.(check int) "carol paid by the descendant" 20_000
    (C.Wallet.balance carol (C.Node.utxo peer0));
  (* RBF against the now-confirmed A: its inputs are gone from the UTXO
     and from every pool, so the conflict is just an orphan spend. *)
  let prevs =
    List.map
      (fun (i : C.Tx.input) ->
        match C.Chain_state.find_output (C.Node.chain peer0) i.C.Tx.prev with
        | Some o -> (i.C.Tx.prev, o)
        | None -> Alcotest.fail "cannot resolve A's input")
      tx_a.C.Tx.inputs
  in
  let total =
    List.fold_left (fun acc (_, (o : C.Tx.output)) -> acc + o.C.Tx.amount) 0 prevs
  in
  let outputs =
    [ { C.Tx.amount = total - 5_000; script = C.Wallet.address bob } ]
  in
  let inputs =
    match C.Wallet.sign_inputs alice ~prevs ~outputs with
    | Ok inputs -> inputs
    | Error msg -> Alcotest.fail msg
  in
  match C.Network.submit net ~at:0 (C.Tx.create ~inputs ~outputs) with
  | Error (C.Mempool.Unknown_inputs _) -> ()
  | Ok () -> Alcotest.fail "conflict against a confirmed tx must be rejected"
  | Error r -> Alcotest.failf "expected Unknown_inputs, got %a" C.Mempool.pp_reject r

(* Edge: a block that is stashed (arrives before its parent), joins the
   active chain when the parent shows up, and is orphaned again by a
   later reorg. The payment it carried must return to the mempool and
   stay spendable on the winning branch. *)
let test_reorg_reorphans_stashed_block () =
  let alice = C.Wallet.create ~seed:"alice" in
  let bob = C.Wallet.create ~seed:"bob" in
  let net =
    C.Network.create ~peers:1 ~initial:[ (C.Wallet.address alice, 100_000) ] ()
  in
  let node = C.Network.peer net 0 in
  let chain = C.Node.chain node in
  let genesis_hash = C.Chain_state.tip_hash chain in
  let tx =
    match
      C.Wallet.pay alice ~utxo:(C.Node.utxo node) ~to_:(C.Wallet.address bob)
        ~amount:20_000 ~fee:300
    with
    | Ok tx -> tx
    | Error msg -> Alcotest.fail msg
  in
  let mk_block ?(txs = []) ~fees height prev tag =
    let coinbase =
      C.Tx.coinbase
        ~reward:(C.Miner.block_reward + fees)
        ~script:(C.Script.Pay_to_key ("PKrival" ^ tag))
        ~tag
    in
    match
      C.Block.create ~height ~prev_hash:prev ~timestamp:99 ~txs:(coinbase :: txs)
    with
    | Ok b -> b
    | Error msg -> Alcotest.fail msg
  in
  let y1 = mk_block ~fees:0 1 genesis_hash "y1" in
  let y2 = mk_block ~txs:[ tx ] ~fees:300 2 (C.Block.hash y1) "y2" in
  (* The tip of the rival branch arrives before its parent: stashed. *)
  C.Network.inject_block net ~at:0 y2;
  Alcotest.(check int) "stashed block leaves the tip alone" 0
    (C.Chain_state.height chain);
  (* The peer mines its own block meanwhile. *)
  let x1 =
    match
      C.Network.mine_at net ~at:0 ~coinbase_script:(C.Wallet.address alice) ()
    with
    | Ok b -> b
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "local branch first" 1 (C.Chain_state.height chain);
  (* The missing parent arrives: the stashed tip follows it in and the
     rival branch takes over. *)
  C.Network.inject_block net ~at:0 y1;
  Alcotest.(check int) "unstashed branch reorged in" 2
    (C.Chain_state.height chain);
  Alcotest.(check string) "tip is the once-stashed block"
    (C.Block.hash y2)
    (C.Chain_state.tip_hash chain);
  Alcotest.(check int) "payment confirmed on the rival branch" 20_000
    (C.Wallet.balance bob (C.Node.utxo node));
  (* A longer branch now grows on the orphaned local block — its tip
     again arriving out of order. *)
  let x2 = mk_block ~fees:0 2 (C.Block.hash x1) "x2" in
  let x3 = mk_block ~fees:0 3 (C.Block.hash x2) "x3" in
  C.Network.inject_block net ~at:0 x3;
  Alcotest.(check int) "second stash leaves the tip alone" 2
    (C.Chain_state.height chain);
  C.Network.inject_block net ~at:0 x2;
  Alcotest.(check int) "longest branch wins the second reorg" 3
    (C.Chain_state.height chain);
  Alcotest.(check string) "tip is the second stashed block"
    (C.Block.hash x3)
    (C.Chain_state.tip_hash chain);
  (* The once-stashed, once-active block is an orphan again; its payment
     is back in the pool and still valid on the winning branch. *)
  Alcotest.(check bool) "payment returned to the pool" true
    (C.Mempool.mem (C.Node.mempool node) tx.C.Tx.txid);
  Alcotest.(check int) "payment no longer confirmed" 0
    (C.Wallet.balance bob (C.Node.utxo node));
  Alcotest.(check bool) "single peer trivially in sync" true
    (C.Network.in_sync net);
  (match
     C.Network.mine_at net ~at:0 ~coinbase_script:(C.Script.Pay_to_key "PKm") ()
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "returned payment mined again" 20_000
    (C.Wallet.balance bob (C.Node.utxo node));
  Alcotest.(check (list string)) "pool drained" [] (C.Network.mempool_view net 0)

let () =
  Alcotest.run "chain"
    [
      ( "crypto-scripts",
        [
          Alcotest.test_case "crypto" `Quick test_crypto;
          Alcotest.test_case "scripts" `Quick test_scripts;
          Alcotest.test_case "timelock script" `Quick test_timelock_script;
          Alcotest.test_case "timelock on chain" `Quick test_timelock_on_chain;
        ] );
      ( "payments",
        [
          Alcotest.test_case "pay and mine" `Quick test_pay_and_mine;
          Alcotest.test_case "insufficient" `Quick test_insufficient_funds;
          Alcotest.test_case "rbf" `Quick test_conflict_rejected_then_rbf;
          Alcotest.test_case "chained mempool" `Quick test_mempool_chaining_and_eviction;
          Alcotest.test_case "rbf evicts descendants" `Quick
            test_rbf_evicts_descendants;
          Alcotest.test_case "confirm evicts conflict" `Quick
            test_confirm_block_evicts_conflict;
          Alcotest.test_case "cancel/bump" `Quick test_wallet_cancel_conflicts;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "validation" `Quick test_block_validation;
          Alcotest.test_case "reorg" `Quick test_reorg;
          Alcotest.test_case "network fork race" `Quick test_network_fork_race;
          Alcotest.test_case "rbf vs confirmed descendant" `Quick
            test_rbf_descendant_confirmed;
          Alcotest.test_case "reorg re-orphans stashed block" `Quick
            test_reorg_reorphans_stashed_block;
          QCheck_alcotest.to_alcotest conservation_prop;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "constraints hold" `Quick test_encoding_paper_constraints;
          Alcotest.test_case "double spend = fd conflict" `Quick
            test_encoding_double_spend_conflict;
          Alcotest.test_case "reorg invalidates pending check" `Quick
            test_reorg_invalidates_pending_check;
        ] );
    ]
