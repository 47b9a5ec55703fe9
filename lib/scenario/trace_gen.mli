(** QCheck generator and shrinker over protocol traces.

    Rather than generating {!Trace.t} values directly — whose internal
    references (tags, parties) would dangle the moment the shrinker
    removed an entry — generation works on a {e script}: a flat list of
    self-contained {!choice}s. {!assemble} resolves each choice against
    whatever came before it (references are taken modulo the number of
    earlier submissions, impossible choices degrade to plain payments),
    so {e every} script is a well-formed trace and shrinking is just
    [Shrink.list]: remove choices, shrink their numeric fields, and the
    reassembled trace is still total. Submissions are wrapped as
    [Attempt] steps, so mempool rejections and unbuildable transactions
    are observations, never script errors. *)

type choice =
  | Pay of { from_ : int; to_ : int; amount : int; fee : int }
  | Double of { of_ : int; to_ : int; fee : int }
      (** Re-spend the inputs of the [of_]-th earlier submission. *)
  | Bump of { of_ : int; add_fee : int }
  | Cancel of { of_ : int; fee : int }
  | Mine of int  (** Confirm at peer [n mod peers]. *)
  | Slot  (** Advance the slot clock with an empty block. *)
  | Split  (** Partition peer 1 away from peer 0. *)
  | Join  (** Heal the partition. *)

type script = choice list

val parties : string array
(** The fixed cast every generated trace draws from. *)

val assemble : script -> Trace.t
(** Total: any choice list — including every shrink of a generated one —
    assembles to a runnable trace over two peers, ending with a heal and
    a delivery round so the observation peer has seen all surviving
    traffic. *)

val gen : script QCheck.Gen.t
val shrink : script QCheck.Shrink.t
val print : script -> string

val arbitrary : script QCheck.arbitrary
(** [gen] + [shrink] + [print] packaged for [QCheck.Test.make]. *)

val differential :
  ?jobs:int ->
  ?config:Bccore.Dcsat.config ->
  script ->
  (unit, string) result
(** The differential oracle the fuzz tests and the bench smoke round
    share: assemble and run the script, compile the observation peer to
    an [(R, I, T)] instance, and check that the auto-dispatched solver
    and the brute-force enumerator return the same verdict constructor
    for a canonical aggregate denial constraint ("the first party never
    receives more than a fixed total"), both under [config]. [Error] describes the
    disagreement; interpreter failures are impossible by construction
    and reported as errors if they somehow occur. *)
