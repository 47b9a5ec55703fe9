(** The mempool → solver bridge: keeps a {!Bccore.Live} context in sync
    with a {!Node} through {!Mempool.on_event} hooks and the active
    chain, so the DCSat service maintains its graphs from the stream of
    protocol events instead of re-encoding the node per request.

    Event rows are captured {e eagerly} when the hook fires — while the
    mempool still holds the parents an arriving transaction's inputs
    resolve against — and queued; {!sync} drains the queue into the live
    layer and then walks newly connected blocks to fold in transactions
    the mempool never saw (coinbases, blocks mined elsewhere). A reorg —
    the recorded tip no longer on the active chain — falls back to a
    full re-encode ({!Bccore.Live.reset}), the one event with no useful
    delta. *)

type t

val create : ?obs:Bcobs.Obs.t -> Node.t -> (t, string) result
(** Snapshot the node ({!Encode.bcdb_of_node}) and register the event
    hook. The feed must be the node's only writer path from then on —
    mutate the mempool through the node as usual; call {!sync} before
    checking. *)

val node : t -> Node.t
val live : t -> Bccore.Live.t

val sync : t -> (unit, string) result
(** Apply every queued mempool event (add / evict / conflict / confirm,
    in firing order), then fold in transactions of newly connected
    blocks that never passed through the mempool. Falls back to a full
    resync on reorg or on an event whose rows could not be encoded.
    Idempotent when nothing happened. *)

val submit : t -> Tx.t -> (unit, Mempool.reject) result
(** {!Node.submit} followed by {!sync} (sync errors are raised as
    [Failure] — they indicate an encoding bug, not a user error). *)

val mine : t -> coinbase_script:Script.t -> (Block.t, string) result
(** {!Node.mine} followed by {!sync}. *)
