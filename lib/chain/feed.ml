module R = Relational

(* Rows are resolved when the hook fires (the mempool still holds the
   outputs the transaction chains on); by drain time they may be gone. *)
type ev =
  | Add of { txid : Crypto.digest; rows : (string * R.Tuple.t) list }
  | Drop of { txid : Crypto.digest; reason : Mempool.removal_reason }

type t = {
  node : Node.t;
  mutable live : Bccore.Live.t;
  queue : ev Queue.t;
  mutable last_tip : Crypto.digest;
  mutable desync : string option;
      (* an event we could not encode: full resync on next [sync] *)
  obs : Bcobs.Obs.t;
}

let node t = t.node
let live t = t.live

(* Chain history plus current mempool outputs — what an arriving
   transaction's inputs can legitimately reference. *)
let resolver t outpoint =
  match Chain_state.find_output (Node.chain t.node) outpoint with
  | Some o -> Some o
  | None -> (
      match Mempool.find (Node.mempool t.node) outpoint.Tx.txid with
      | Some e -> List.nth_opt e.Mempool.tx.Tx.outputs outpoint.Tx.vout
      | None -> None)

let enqueue t = function
  | Mempool.Tx_added tx -> (
      match Encode.rows_of_tx ~resolver:(resolver t) tx with
      | Ok rows -> Queue.add (Add { txid = tx.Tx.txid; rows }) t.queue
      | Error msg ->
          t.desync <- Some (Printf.sprintf "%s: %s" tx.Tx.txid msg))
  | Mempool.Tx_removed { tx; reason } ->
      Queue.add (Drop { txid = tx.Tx.txid; reason }) t.queue

let create ?(obs = Bcobs.Obs.null) node =
  match Encode.bcdb_of_node node with
  | Error msg -> Error msg
  | Ok db ->
      let t =
        {
          node;
          live = Bccore.Live.create ~obs db;
          queue = Queue.create ();
          last_tip = Chain_state.tip_hash (Node.chain node);
          desync = None;
          obs;
        }
      in
      Mempool.on_event (Node.mempool node) (enqueue t);
      Ok t

let full_resync t =
  match Encode.bcdb_of_node t.node with
  | Error _ as e -> e
  | Ok db ->
      Queue.clear t.queue;
      t.desync <- None;
      Bccore.Live.reset t.live db;
      t.last_tip <- Chain_state.tip_hash (Node.chain t.node);
      Ok ()

(* Drain the event queue in firing order. Returns the txids applied as
   [confirm]s so the block walk below skips them. *)
let drain t =
  let confirmed = Hashtbl.create 8 in
  let rec go () =
    match Queue.take_opt t.queue with
    | None -> Ok confirmed
    | Some ev -> (
        match ev with
        | Add { txid; rows } -> (
            match Bccore.Live.try_add t.live ~label:txid rows with
            | Ok () -> go ()
            | Error _ as e -> e)
        | Drop { txid; reason = Mempool.Confirmed } -> (
            match Bccore.Live.confirm t.live txid with
            | Ok () ->
                Hashtbl.replace confirmed txid ();
                go ()
            | Error _ as e -> e)
        | Drop { txid; reason = Mempool.Evicted | Mempool.Conflicting } -> (
            match Bccore.Live.evict t.live txid with
            | Ok () -> go ()
            | Error _ as e -> e))
  in
  go ()

(* Blocks connected since [last_tip], oldest first; [None] when the
   recorded tip left the active chain (reorg). *)
let new_blocks t =
  let blocks = Chain_state.blocks (Node.chain t.node) in
  let rec after = function
    | [] -> None
    | b :: rest ->
        if String.equal (Block.hash b) t.last_tip then Some rest
        else after rest
  in
  after blocks

let sync t =
  match t.desync with
  | Some _ -> full_resync t
  | None -> (
      match new_blocks t with
      | None -> full_resync t (* reorg *)
      | Some blocks -> (
          match drain t with
          | Error msg ->
              (* The live layer and the pool disagree on membership —
                 should not happen; re-snapshot rather than limp on. *)
              ignore msg;
              full_resync t
          | Ok confirmed ->
              let rec fold_blocks = function
                | [] ->
                    t.last_tip <- Chain_state.tip_hash (Node.chain t.node);
                    Ok ()
                | (b : Block.t) :: rest ->
                    let rec fold_txs = function
                      | [] -> fold_blocks rest
                      | (tx : Tx.t) :: txs ->
                          if Hashtbl.mem confirmed tx.Tx.txid then
                            fold_txs txs
                          else
                            (* Never passed through our mempool: coinbase
                               or mined elsewhere. Historical inputs
                               resolve against the chain. *)
                            let resolve op =
                              Chain_state.find_output (Node.chain t.node) op
                            in
                            (match
                               Encode.rows_of_tx ~resolver:resolve tx
                             with
                            | Ok rows ->
                                Bccore.Live.append_state t.live rows;
                                fold_txs txs
                            | Error _ as e -> e)
                    in
                    fold_txs b.Block.txs
              in
              fold_blocks blocks))

let submit t tx =
  match Node.submit t.node tx with
  | Error _ as e -> e
  | Ok () -> (
      match sync t with Ok () -> Ok () | Error msg -> failwith msg)

let mine t ~coinbase_script =
  match Node.mine t.node ~coinbase_script () with
  | Error _ as e -> e
  | Ok block -> (
      match sync t with Ok () -> Ok block | Error msg -> failwith msg)
