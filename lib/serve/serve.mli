(** The [bcdb serve] protocol: framed requests against one {!Bccore.Live.t}.

    Framing, both directions: the payload's byte length in ASCII
    decimal, ['\n'], then the payload. A request payload is a command
    line, optionally followed by a body:

    {v
    check [timeout=S] [max-worlds=N] [jobs=N] \n <query>
    add LABEL \n Rel(v, ...) per line
    evict LABEL | confirm LABEL | stats | quit
    v}

    A response payload's first line is [STATUS CODE], where the code is
    the [check] subcommand's exit contract: [SATISFIED 0],
    [UNSATISFIED 2], [UNKNOWN 3] (the request's budget tripped: admission
    control, never a wrong answer), [OK 0] for [stats], [quit] and
    mutations, and [ERROR 1] for anything refused. Detail lines follow.
    An error leaves the session serving.

    {!parse} makes every check that needs no database state — command
    words, directives, the query, each row and the non-empty row list —
    before {!handle} touches the {!Bccore.Live.t}; a refused request
    changes nothing. *)

type request =
  | Check of {
      timeout : float option;
      max_worlds : int option;
      jobs : int option;
      query : Bcquery.Query.t;
    }  (** Directives left out fall back to the session {!defaults}. *)
  | Add of { label : string; rows : (string * Relational.Tuple.t) list }
  | Evict of string
  | Confirm of string
  | Stats
  | Quit

type defaults = {
  jobs : int;
  timeout : float option;
  max_worlds : int option;
}
(** The server-wide admission settings a [check] request may override. *)

val parse_timeout : string -> float option
(** A finite, non-negative number of seconds: what
    {!Bccore.Engine.Budget.create} accepts (a NaN or infinite timeout
    would never expire). *)

val parse_max_worlds : string -> int option
(** A non-negative integer. *)

val budget_of_flags :
  timeout:float option -> max_worlds:int option -> Bccore.Engine.Budget.t
(** A fresh budget: deadlines are absolute, so it is made right before
    the solve it bounds. *)

val parse : Relational.Schema.t -> string -> (request, string) result
(** One request payload, read against the database's catalog. *)

val handle : Bccore.Live.t -> defaults -> request -> string * bool
(** Apply one request; the response payload, and whether the session
    goes on ([false] after [quit]). *)

val max_frame : int
(** The largest payload accepted, in bytes (16 MiB). *)

val read_frame : In_channel.t -> (string, string) result option
(** The next payload; [None] at the end of input. [Error] for a length
    line that is not a number in [0, max_frame], is longer than
    [max_frame]'s digits, or a payload cut short. *)

val write_frame : Out_channel.t -> string -> unit
(** Frame and flush one payload. *)

val session : Bccore.Live.t -> defaults -> In_channel.t -> Out_channel.t -> unit
(** Answer requests until [quit], the end of input or a framing error
    (answered with [ERROR 1]). Any exception while answering one request
    becomes that request's [ERROR 1], and the session goes on. *)
