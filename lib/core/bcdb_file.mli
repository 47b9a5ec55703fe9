(** A plain-text format for blockchain databases, so that instances can be
    saved, versioned and fed to the CLI. Example:

    {v
    # comments run to the end of the line
    relation TxOut(txId, ser, pk, amount)
    relation TxIn(prevTxId, prevSer, pk, amount, newTxId, sig)
    key TxOut(txId, ser)
    key TxIn(prevTxId, prevSer)
    fd TxOut(txId -> pk)                      # plain fd
    ind TxIn(prevTxId) <= TxOut(txId)

    state TxOut("1", 1, "U1Pk", 1.0)
    state TxIn("1", 1, "U1Pk", 1.0, "3", "U1Sig")

    tx T1
      TxIn("2", 2, "U2Pk", 4.0, "4", "U2Sig")
      TxOut("4", 1, "U5Pk", 1.0)

    tx
      TxOut("8", 1, "U7Pk", 4.0)
    v}

    Declarations may appear in any order except that relations must be
    declared before use and transaction rows follow their [tx] header.
    Values are integers, floats (with a decimal point), double-quoted
    strings, [true], [false] or [null]. A comment starts at [#] or [%]
    outside double quotes, so strings may hold both (the printer leaves
    them unescaped). Transaction labels are unique: a [tx] header without
    one is labelled ["T<n>"] for the [n]-th transaction, and a header
    that repeats an earlier label, given or defaulted, is an error. *)

val of_string : string -> (Bcdb.t, string) result
(** Parse and validate (including [R |= I]); errors carry the line
    number of the first fault in the file. *)

type scanned = {
  catalog : Relational.Schema.t;
  constraints : Relational.Constr.t list;
  state : (string * Relational.Tuple.t list) list;
      (** Each relation's state rows, in file order. *)
  txs : (string * (string * Relational.Tuple.t) list) list;
      (** Each transaction's label and rows, in file order. *)
}

val scan : string -> (scanned, string) result
(** The reader alone: every syntax, declaration, arity and label check
    of {!of_string}, without building the database. [of_string] is
    [scan], then the rows inserted into a fresh state and
    {!Bcdb.create}. *)

val to_string : Bcdb.t -> string
(** Render in the same format; [of_string (to_string db)] reconstructs an
    equivalent database. *)

val load : string -> (Bcdb.t, string) result
(** Read from a file path. *)

val save : string -> Bcdb.t -> (unit, string) result

(** {2 Binary snapshots}

    A versioned, magic-tagged binary format (["BCDBSNP1"], version 1):
    header, catalog, constraints, then per relation the column blobs of
    a {!Relational.Segment.t} (dictionaries + unboxed payloads), then
    pending transactions, then an end marker. The state is written
    columnar, so a restore rebuilds the segments directly — no row
    parsing, no re-indexing — and a service restart is a load, not a
    rebuild. *)

val to_binary_string : Bcdb.t -> string

val of_binary_string : ?validate:bool -> string -> (Bcdb.t, string) result
(** Structural integrity (magic, version, bounds, arities, constraint
    attribute ranges, unique transaction labels) is always checked; the
    semantic [R |= I] validation — a full pass over the state — runs only with
    [~validate:true], since snapshots are normally written by this
    process from an already validated database. *)

val load_binary : ?validate:bool -> string -> (Bcdb.t, string) result
val save_binary : string -> Bcdb.t -> (unit, string) result

val parse_row :
  Relational.Schema.t -> string -> (string * Relational.Tuple.t, string) result
(** Parse a single ["Name(v1, v2, ...)"] row against a catalog — the
    building block interactive tools use to accept tuples. It reads the
    row as {!of_string} reads a transaction row and reports the same
    faults, without a line number, except that an unknown relation is
    reported before a fault in the row's values. The row is one line: a
    trailing comment and line end are allowed, a second line is an
    error. *)

val parse_rows :
  Relational.Schema.t ->
  string ->
  ((string * Relational.Tuple.t) list, string) result
(** Rows separated by [';'] outside double-quoted strings, each read by
    {!parse_row}, in order; blank parts are skipped. The first fault is
    the error, and a text without a row is ["no rows given"]. *)
