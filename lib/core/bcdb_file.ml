module R = Relational
module V = R.Value

(* ------------------------------------------------------------------ *)
(* The text reader: one cursor over the input string. Lines are found by
   index and never copied. A line's content is bounded in place (a
   comment starts at '#' or '%' outside double quotes, and the
   whitespace String.trim drops is dropped), keywords are tested on
   characters, a call "NAME(item, ...)" is split into item bounds in
   place, and each line is folded straight into the schemas, constraints,
   state rows and transactions. What is copied is what the database
   keeps: each value (a quoted string without backslashes is one
   [String.sub]) and each declaration's names. *)

exception Err of int * string

let fail lineno msg = raise (Err (lineno, msg))

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '~'

let rec skip_space s i hi =
  if i < hi && is_space (String.unsafe_get s i) then skip_space s (i + 1) hi
  else i

let rec trim_end s lo i =
  if i > lo && is_space (String.unsafe_get s (i - 1)) then trim_end s lo (i - 1)
  else i

let rec index_in s c i hi =
  if i >= hi then -1 else if String.unsafe_get s i = c then i else index_in s c (i + 1) hi

(* The scanning loops below are top-level functions that take all they
   read as arguments: a local recursive function would be a closure
   allocated on every call, that is, several times per line. *)

let rec same_chars s lo word i =
  i >= String.length word
  || String.unsafe_get s (lo + i) = String.unsafe_get word i
     && same_chars s lo word (i + 1)

let is_at s lo hi word = hi - lo >= String.length word && same_chars s lo word 0

let is_exactly s lo hi word = hi - lo = String.length word && is_at s lo hi word

(* The cursor: the current line's number and where its content stops,
   and the last call it read. The call's name spans
   [s.[name_lo, name_hi)]; its item [k] spans
   [s.[items.(3k), items.(3k+1))], both trimmed, and [items.(3k+2)] is 1
   when the item holds a backslash. *)
type cursor = {
  s : string;
  mutable lineno : int;
  mutable stop : int;
  mutable name_lo : int;
  mutable name_hi : int;
  mutable items : int array;
  mutable nitems : int;
}

let cursor s =
  {
    s;
    lineno = 1;
    stop = 0;
    name_lo = 0;
    name_hi = 0;
    items = Array.make 24 0;
    nitems = 0;
  }

let rec newline s i =
  if i >= String.length s || String.unsafe_get s i = '\n' then i else newline s (i + 1)

(* The end of the line from [i] (its '\n', or the end of the input),
   leaving in [c.stop] where the line's content ends: at the first '#' or
   '%' outside a double-quoted string (in which a backslash escapes the
   next character), else at the line's end. *)
let rec line_end c i =
  let s = c.s in
  if i >= String.length s then begin
    c.stop <- i;
    i
  end
  else
    match String.unsafe_get s i with
    | '\n' ->
        c.stop <- i;
        i
    | '#' | '%' ->
        c.stop <- i;
        newline s i
    | '"' -> quoted_line_end c (i + 1)
    | _ -> line_end c (i + 1)

and quoted_line_end c i =
  let s = c.s in
  if i >= String.length s then begin
    c.stop <- i;
    i
  end
  else
    match String.unsafe_get s i with
    | '\n' ->
        c.stop <- i;
        i
    | '"' -> line_end c (i + 1)
    | '\\' when i + 1 < String.length s && String.unsafe_get s (i + 1) <> '\n' ->
        quoted_line_end c (i + 2)
    | _ -> quoted_line_end c (i + 1)

let push_item c lo hi esc =
  let k = 3 * c.nitems in
  if k + 3 > Array.length c.items then begin
    let a = Array.make (2 * Array.length c.items) 0 in
    Array.blit c.items 0 a 0 k;
    c.items <- a
  end;
  let lo = skip_space c.s lo hi in
  c.items.(k) <- lo;
  c.items.(k + 1) <- trim_end c.s lo hi;
  c.items.(k + 2) <- esc;
  c.nitems <- c.nitems + 1

let item_lo c k = c.items.(3 * k)
let item_hi c k = c.items.((3 * k) + 1)
let item_is_empty c k = item_lo c k = item_hi c k

(* Split [s.[start, hi)] into items on commas outside double quotes; a
   backslash escapes the next character inside quotes. [esc] is 1 once
   the item holds a backslash. *)
let rec split_items c start i hi esc =
  if i >= hi then push_item c start hi esc
  else
    match String.unsafe_get c.s i with
    | ',' ->
        push_item c start i esc;
        split_items c (i + 1) (i + 1) hi 0
    | '"' -> split_quoted c start (i + 1) hi esc
    | '\\' -> split_items c start (i + 1) hi 1
    | _ -> split_items c start (i + 1) hi esc

and split_quoted c start i hi esc =
  if i >= hi then push_item c start hi esc
  else
    match String.unsafe_get c.s i with
    | '"' -> split_items c start (i + 1) hi esc
    | '\\' -> split_quoted c start (i + 2) hi 1
    | _ -> split_quoted c start (i + 1) hi esc

(* Read "NAME(item, item, ...)" on the trimmed span [s.[lo, hi)]. A
   blank argument list has no items. *)
let call c lo hi =
  let s = c.s in
  let lp = index_in s '(' lo hi in
  if lp < 0 then fail c.lineno "expected NAME(...)";
  c.name_lo <- skip_space s lo lp;
  c.name_hi <- trim_end s c.name_lo lp;
  if c.name_lo = c.name_hi then fail c.lineno "missing name before '('";
  if s.[hi - 1] <> ')' then fail c.lineno "missing closing ')'";
  c.nitems <- 0;
  if lp + 1 < hi - 1 then begin
    split_items c (lp + 1) (lp + 1) (hi - 1) 0;
    if c.nitems = 1 && item_is_empty c 0 then c.nitems <- 0
    else
      for k = 0 to c.nitems - 1 do
        if item_is_empty c k then fail c.lineno "empty item in argument list"
      done
  end

let sub c lo hi = String.sub c.s lo (hi - lo)
let name c = sub c c.name_lo c.name_hi
let item c k = sub c (item_lo c k) (item_hi c k)
let items c = List.init c.nitems (item c)

let is_digit ch = ch >= '0' && ch <= '9'

(* The byte a "\ddd" escape at [s.[i]] (its backslash) stands for, or -1. *)
let decimal_escape s i hi =
  if i + 3 < hi && is_digit s.[i + 1] && is_digit s.[i + 2] && is_digit s.[i + 3] then
    let code =
      (100 * (Char.code s.[i + 1] - 48)) + (10 * (Char.code s.[i + 2] - 48)) + Char.code s.[i + 3] - 48
    in
    if code <= 255 then code else -1
  else -1

(* Undo the escapes the printer (%S) writes, on the inside [s.[lo, hi)]
   of a quoted string: \n \t \r \b, "\ddd" for a byte outside printable
   ASCII, and a backslash before any other character stands for it. *)
let unescape s lo hi =
  let buf = Buffer.create (hi - lo) in
  let i = ref lo in
  while !i < hi do
    let ch = s.[!i] in
    if ch = '\\' && !i + 1 < hi then begin
      let code = decimal_escape s !i hi in
      if code >= 0 then begin
        Buffer.add_char buf (Char.chr code);
        i := !i + 4
      end
      else begin
        (match s.[!i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | other -> Buffer.add_char buf other);
        i := !i + 2
      end
    end
    else begin
      Buffer.add_char buf ch;
      incr i
    end
  done;
  Buffer.contents buf

let rec digits s i hi acc =
  if i >= hi then acc
  else
    let ch = String.unsafe_get s i in
    if is_digit ch then digits s (i + 1) hi ((acc * 10) + Char.code ch - 48)
    else -1

(* An optional '-' and 1 to 18 decimal digits, which cannot overflow and
   which [int_of_string] reads as this; [min_int] for any other span. *)
let decimal s lo hi =
  let neg = String.unsafe_get s lo = '-' in
  let d0 = if neg then lo + 1 else lo in
  if hi - d0 < 1 || hi - d0 > 18 then min_int
  else
    match digits s d0 hi 0 with
    | -1 -> min_int
    | v -> if neg then -v else v

let value c k =
  let s = c.s in
  let lo = item_lo c k and hi = item_hi c k in
  if s.[lo] = '"' then begin
    if hi - lo < 2 || s.[hi - 1] <> '"' then fail c.lineno "unterminated string";
    if c.items.((3 * k) + 2) = 0 then V.Str (String.sub s (lo + 1) (hi - lo - 2))
    else V.Str (unescape s (lo + 1) (hi - 1))
  end
  else if is_exactly s lo hi "true" then V.Bool true
  else if is_exactly s lo hi "false" then V.Bool false
  else if is_exactly s lo hi "null" then V.Null
  else
    match decimal s lo hi with
    | i when i <> min_int -> V.Int i
    | _ -> (
        let raw = String.sub s lo (hi - lo) in
        match int_of_string_opt raw with
        | Some i -> V.Int i
        | None -> (
            match float_of_string_opt raw with
            | Some f -> V.Float f
            | None ->
                fail c.lineno
                  (Printf.sprintf "cannot parse value %S (strings are quoted)" raw)))

(* The row "NAME(v, ...)" on [s.[lo, hi)], handed to [add] with the
   relation [find] gives for its name (whose [schema] fixes the arity).
   Values are read before the name is looked up, so in a file a value's
   fault is reported first; [parse_row] looks the name up before. *)
let row c ~find ~schema ~add lo hi =
  call c lo hi;
  let t = Array.make c.nitems V.Null in
  for k = 0 to c.nitems - 1 do
    t.(k) <- value c k
  done;
  let rel = find c in
  let schema : R.Schema.relation = schema rel in
  if c.nitems <> R.Schema.arity schema then
    fail c.lineno
      (Printf.sprintf "%s expects %d values, got %d" schema.R.Schema.name
         (R.Schema.arity schema) c.nitems);
  add rel t

let check_attr lineno a =
  if a = "" || not (String.for_all is_ident_char a) then
    fail lineno (Printf.sprintf "bad attribute name %S" a);
  a

let attrs c = List.map (check_attr c.lineno) (items c)

(* "a, b -> c, d" splits on commas as ["a"; "b -> c"; "d"]: the arrow
   lives inside one item. *)
let fd_sides c =
  let lhs = ref [] and rhs = ref [] and seen_arrow = ref false in
  List.iter
    (fun item ->
      match
        let rec find i =
          if i + 1 >= String.length item then None
          else if item.[i] = '-' && item.[i + 1] = '>' then Some i
          else find (i + 1)
        in
        find 0
      with
      | Some i ->
          if !seen_arrow then fail c.lineno "two arrows in fd";
          seen_arrow := true;
          let l = String.trim (String.sub item 0 i) in
          let r = String.trim (String.sub item (i + 2) (String.length item - i - 2)) in
          if l <> "" then lhs := l :: !lhs;
          if r <> "" then rhs := r :: !rhs
      | None -> if !seen_arrow then rhs := item :: !rhs else lhs := item :: !lhs)
    (items c);
  if not !seen_arrow then fail c.lineno "fd needs '->'";
  (List.rev_map (check_attr c.lineno) !lhs, List.rev_map (check_attr c.lineno) !rhs)

(* ------------------------------------------------------------------ *)

type scanned = {
  catalog : R.Schema.t;
  constraints : R.Constr.t list;
  state : (string * R.Tuple.t list) list;
  txs : (string * (string * R.Tuple.t) list) list;
}

(* A declared relation and its state rows so far, latest first. *)
type decl = { schema : R.Schema.relation; mutable rows : R.Tuple.t list }

let rec find_decl c = function
  | [] -> fail c.lineno (Printf.sprintf "relation %s not declared" (name c))
  | d :: rest ->
      if is_exactly c.s c.name_lo c.name_hi d.schema.R.Schema.name then d
      else find_decl c rest

let scan_exn input =
  let c = cursor input in
  let s = input and n = String.length input in
  let decls = ref [] (* latest first *) and constraints = ref [] in
  let find_schema c = (find_decl c !decls).schema in
  (* Transactions: the finished ones latest first, and the open one. *)
  let txs = ref [] and ntx = ref 0 in
  let tx_label = ref "" and tx_line = ref 0 and tx_rows = ref [] in
  let labels = Hashtbl.create 64 in
  let close_tx () =
    if !ntx > 0 then begin
      if !tx_rows = [] then
        fail !tx_line (Printf.sprintf "transaction #%d has no rows" !ntx);
      txs := (!tx_label, List.rev !tx_rows) :: !txs
    end
  in
  let tx_header lo hi =
    close_tx ();
    incr ntx;
    let label =
      if hi - lo = 2 then Printf.sprintf "T%d" !ntx else sub c (skip_space s (lo + 3) hi) hi
    in
    (match Hashtbl.find_opt labels label with
    | Some first ->
        fail c.lineno
          (Printf.sprintf "duplicate transaction label %s (first at line %d)" label first)
    | None -> Hashtbl.replace labels label c.lineno);
    tx_label := label;
    tx_line := c.lineno;
    tx_rows := []
  in
  let state_row =
    row c
      ~find:(fun c -> find_decl c !decls)
      ~schema:(fun d -> d.schema)
      ~add:(fun d t -> d.rows <- t :: d.rows)
  in
  let tx_row =
    row c
      ~find:(fun c ->
        if !ntx = 0 then fail c.lineno "transaction row before any 'tx' header";
        find_decl c !decls)
      ~schema:(fun d -> d.schema)
      ~add:(fun d t -> tx_rows := (d.schema.R.Schema.name, t) :: !tx_rows)
  in
  let relation lo hi =
    call c lo hi;
    let nm = name c and attrs = attrs c in
    if List.exists (fun d -> d.schema.R.Schema.name = nm) !decls then
      fail c.lineno (Printf.sprintf "relation %s declared twice" nm);
    let schema =
      try R.Schema.relation nm attrs with Invalid_argument msg -> fail c.lineno msg
    in
    decls := { schema; rows = [] } :: !decls
  in
  let key lo hi =
    call c lo hi;
    let attrs = attrs c in
    let schema = find_schema c in
    let cstr =
      try R.Constr.key schema attrs with
      | Invalid_argument msg | Failure msg -> fail c.lineno msg
      | Not_found -> fail c.lineno ("unknown attribute in key on " ^ schema.R.Schema.name)
    in
    constraints := cstr :: !constraints
  in
  let fd lo hi =
    call c lo hi;
    let lhs, rhs = fd_sides c in
    let schema = find_schema c in
    let cstr =
      try R.Constr.fd schema lhs rhs with
      | Invalid_argument msg -> fail c.lineno msg
      | Not_found -> fail c.lineno ("unknown attribute in fd on " ^ schema.R.Schema.name)
    in
    constraints := cstr :: !constraints
  in
  let ind lo hi =
    let rec arrow i =
      if i + 1 >= hi then fail c.lineno "ind needs '<='"
      else if s.[i] = '<' && s.[i + 1] = '=' then i
      else arrow (i + 1)
    in
    let idx = arrow lo in
    let left = skip_space s lo idx in
    call c left (trim_end s left idx);
    let sub_lo = c.name_lo and sub_hi = c.name_hi and sub_attrs = attrs c in
    call c (skip_space s (idx + 2) hi) hi;
    let sup_lo = c.name_lo and sup_hi = c.name_hi and sup_attrs = attrs c in
    let find_at lo hi =
      c.name_lo <- lo;
      c.name_hi <- hi;
      find_schema c
    in
    let sub = find_at sub_lo sub_hi in
    let sup = find_at sup_lo sup_hi in
    let cstr =
      try R.Constr.ind ~sub sub_attrs ~sup sup_attrs with
      | Invalid_argument msg -> fail c.lineno msg
      | Not_found -> fail c.lineno "unknown attribute in ind"
    in
    constraints := cstr :: !constraints
  in
  (* A keyword is followed by a space; anything else is a transaction row. *)
  let line lo hi =
    match s.[lo] with
    | 'r' when is_at s lo hi "relation " -> relation (lo + 9) hi
    | 'k' when is_at s lo hi "key " -> key (lo + 4) hi
    | 'f' when is_at s lo hi "fd " -> fd (lo + 3) hi
    | 'i' when is_at s lo hi "ind " -> ind (lo + 4) hi
    | 's' when is_at s lo hi "state " -> state_row (lo + 6) hi
    | 't' when is_exactly s lo hi "tx" || is_at s lo hi "tx " -> tx_header lo hi
    | _ -> tx_row lo hi
  in
  let rec lines start =
    let eol = line_end c start in
    let lo = skip_space s start c.stop in
    let hi = trim_end s lo c.stop in
    if lo < hi then line lo hi;
    if eol < n then begin
      c.lineno <- c.lineno + 1;
      lines (eol + 1)
    end
  in
  lines 0;
  close_tx ();
  let decls = List.rev !decls in
  {
    catalog = R.Schema.of_list (List.map (fun d -> d.schema) decls);
    constraints = List.rev !constraints;
    state = List.map (fun d -> (d.schema.R.Schema.name, List.rev d.rows)) decls;
    txs = List.rev !txs;
  }

let scan input =
  match scan_exn input with
  | scanned -> Ok scanned
  | exception Err (lineno, msg) -> Error (Printf.sprintf "line %d: %s" lineno msg)

let build sc =
  let state = R.Database.create sc.catalog in
  List.iter
    (fun (name, rows) -> List.iter (fun t -> ignore (R.Database.insert state name t)) rows)
    sc.state;
  Bcdb.create ~state ~constraints:sc.constraints ~pending:(List.map snd sc.txs)
    ~labels:(List.map fst sc.txs) ()

let of_string input = Result.bind (scan input) build

let to_string (db : Bcdb.t) =
  let buf = Buffer.create 4096 in
  let catalog = Bcdb.catalog db in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun schema ->
      pr "relation %s(%s)\n" schema.R.Schema.name
        (String.concat ", " (Array.to_list schema.R.Schema.attrs)))
    (R.Schema.relations catalog);
  Buffer.add_char buf '\n';
  List.iter
    (fun c ->
      let attr_names schema positions =
        String.concat ", "
          (List.map (fun i -> schema.R.Schema.attrs.(i)) positions)
      in
      match c with
      | R.Constr.Fd f ->
          let schema = R.Schema.find catalog f.R.Constr.frel in
          if R.Constr.is_key schema f then
            pr "key %s(%s)\n" f.R.Constr.frel (attr_names schema f.R.Constr.lhs)
          else
            pr "fd %s(%s -> %s)\n" f.R.Constr.frel
              (attr_names schema f.R.Constr.lhs)
              (attr_names schema f.R.Constr.rhs)
      | R.Constr.Ind i ->
          let sub = R.Schema.find catalog i.R.Constr.sub_rel in
          let sup = R.Schema.find catalog i.R.Constr.sup_rel in
          pr "ind %s(%s) <= %s(%s)\n" i.R.Constr.sub_rel
            (attr_names sub i.R.Constr.sub_attrs)
            i.R.Constr.sup_rel
            (attr_names sup i.R.Constr.sup_attrs))
    db.Bcdb.constraints;
  Buffer.add_char buf '\n';
  let pr_tuple name tuple =
    Printf.sprintf "%s(%s)" name
      (String.concat ", "
         (List.map V.to_string (Array.to_list tuple)))
  in
  List.iter
    (fun schema ->
      R.Database.iter_tuples db.Bcdb.state schema.R.Schema.name (fun tuple ->
          pr "state %s\n" (pr_tuple schema.R.Schema.name tuple)))
    (R.Schema.relations catalog);
  Array.iter
    (fun (tx : Pending.t) ->
      pr "\ntx %s\n" tx.Pending.label;
      List.iter
        (fun (name, tuple) -> pr "  %s\n" (pr_tuple name tuple))
        tx.Pending.rows)
    db.Bcdb.pending;
  Buffer.contents buf

let parse_row catalog input =
  let c = cursor input in
  match
    let eol = line_end c 0 in
    if skip_space input eol (String.length input) < String.length input then
      fail 1 "a row is one line";
    let lo = skip_space input 0 c.stop in
    let hi = trim_end input lo c.stop in
    (* A request names its relation before its values are read: an
       unknown relation is reported before a value's fault. *)
    call c lo hi;
    let schema =
      let name = name c in
      match R.Schema.find_opt catalog name with
      | Some schema -> schema
      | None -> fail c.lineno ("unknown relation " ^ name)
    in
    row c lo hi ~find:(fun _ -> schema) ~schema:Fun.id
      ~add:(fun schema t -> (schema.R.Schema.name, t))
  with
  | row -> Ok row
  | exception Err (_, msg) -> Error msg

(* Where the row starting at [i] ends: at the first ';' outside double
   quotes (in which a backslash escapes the next character), or [hi]. *)
let rec row_end s i hi =
  if i >= hi then hi
  else
    match String.unsafe_get s i with
    | ';' -> i
    | '"' -> quoted_row_end s (i + 1) hi
    | _ -> row_end s (i + 1) hi

and quoted_row_end s i hi =
  if i >= hi then hi
  else
    match String.unsafe_get s i with
    | '"' -> row_end s (i + 1) hi
    | '\\' -> quoted_row_end s (i + 2) hi
    | _ -> quoted_row_end s (i + 1) hi

let parse_rows catalog input =
  let n = String.length input in
  let rec go acc i =
    if i > n then if acc = [] then Error "no rows given" else Ok (List.rev acc)
    else
      let j = row_end input i n in
      if skip_space input i j = j then go acc (j + 1)
      else
        match parse_row catalog (String.sub input i (j - i)) with
        | Ok row -> go (row :: acc) (j + 1)
        | Error _ as e -> e
  in
  go [] 0

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error msg

let save path db =
  match Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string db)) with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Binary snapshots.

   Layout (all integers little-endian):

     "BCDBSNP1"                                  8-byte magic
     u32 version (= 1)
     i64 nrels; per relation: str name, i64 nattrs, str attr...
     i64 nconstraints; per constraint:
       u8 0 (fd):  str frel, intlist lhs, intlist rhs
       u8 1 (ind): str sub_rel, intlist sub_attrs,
                   str sup_rel, intlist sup_attrs
     per relation (catalog order): column blobs (Segment.serialize:
       row count, column count, then per column the kind tag,
       dictionary and payload)
     i64 npending; per transaction: str label, i64 nrows;
       per row: i64 relation-index, then one Value per attribute
     "BCDBEND1"                                  8-byte end marker

   where str = i64 length + bytes and intlist = i64 count + i64 each.
   The state is always written columnar (dictionaries + payload blobs),
   so loading reconstructs the segments directly — no row parsing, no
   re-indexing, no constraint re-check (the snapshot was written from a
   validated database). *)

let binary_magic = "BCDBSNP1"
let binary_end = "BCDBEND1"
let binary_version = 1

let add_str buf s =
  Relational.Column.add_i64 buf (String.length s);
  Buffer.add_string buf s

let add_int_list buf l =
  Relational.Column.add_i64 buf (List.length l);
  List.iter (Relational.Column.add_i64 buf) l

let binary_buffer (db : Bcdb.t) =
  (* Pre-size near the payload size (the segments dominate): at
     paper-scale states, letting the buffer double its way up would copy
     hundreds of MB and leave as much garbage behind. *)
  let size_hint =
    R.Schema.relations (Bcdb.catalog db)
    |> List.fold_left
         (fun acc schema ->
           match R.Database.segment db.Bcdb.state schema.R.Schema.name with
           | Some seg -> acc + R.Segment.bytes seg
           | None -> acc)
         (1 lsl 16)
  in
  let buf = Buffer.create size_hint in
  Buffer.add_string buf binary_magic;
  Buffer.add_int32_le buf (Int32.of_int binary_version);
  let catalog = Bcdb.catalog db in
  let rels = R.Schema.relations catalog in
  Relational.Column.add_i64 buf (List.length rels);
  List.iter
    (fun schema ->
      add_str buf schema.R.Schema.name;
      Relational.Column.add_i64 buf (Array.length schema.R.Schema.attrs);
      Array.iter (add_str buf) schema.R.Schema.attrs)
    rels;
  Relational.Column.add_i64 buf (List.length db.Bcdb.constraints);
  List.iter
    (function
      | R.Constr.Fd f ->
          Buffer.add_uint8 buf 0;
          add_str buf f.R.Constr.frel;
          add_int_list buf f.R.Constr.lhs;
          add_int_list buf f.R.Constr.rhs
      | R.Constr.Ind i ->
          Buffer.add_uint8 buf 1;
          add_str buf i.R.Constr.sub_rel;
          add_int_list buf i.R.Constr.sub_attrs;
          add_str buf i.R.Constr.sup_rel;
          add_int_list buf i.R.Constr.sup_attrs)
    db.Bcdb.constraints;
  List.iter
    (fun schema ->
      R.Segment.serialize buf
        (R.Database.to_segment db.Bcdb.state schema.R.Schema.name))
    rels;
  let rel_index = Hashtbl.create 8 in
  List.iteri (fun i schema -> Hashtbl.replace rel_index schema.R.Schema.name i) rels;
  Relational.Column.add_i64 buf (Array.length db.Bcdb.pending);
  Array.iter
    (fun (tx : Pending.t) ->
      add_str buf tx.Pending.label;
      Relational.Column.add_i64 buf (List.length tx.Pending.rows);
      List.iter
        (fun (rel, tuple) ->
          Relational.Column.add_i64 buf (Hashtbl.find rel_index rel);
          Array.iter (V.write_binary buf) tuple)
        tx.Pending.rows)
    db.Bcdb.pending;
  Buffer.add_string buf binary_end;
  buf

let to_binary_string db = Buffer.contents (binary_buffer db)

let of_binary_string ?(validate = false) s =
  let corrupt msg = raise (Relational.Column.Corrupt msg) in
  let read_str pos =
    let n = Relational.Column.read_i64 s pos in
    if n < 0 || !pos + n > String.length s then corrupt "truncated string";
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  let read_int_list pos =
    let n = Relational.Column.read_i64 s pos in
    if n < 0 || n > 4096 then corrupt "bad int list length";
    List.init n (fun _ -> Relational.Column.read_i64 s pos)
  in
  match
    if String.length s < 12 || String.sub s 0 8 <> binary_magic then
      corrupt "bad magic (not a binary snapshot)";
    let pos = ref 8 in
    let version = Int32.to_int (String.get_int32_le s !pos) in
    pos := !pos + 4;
    if version <> binary_version then
      corrupt (Printf.sprintf "unsupported snapshot version %d" version);
    let nrels = Relational.Column.read_i64 s pos in
    if nrels < 0 || nrels > 100_000 then corrupt "bad relation count";
    let schemas =
      List.init nrels (fun _ ->
          let name = read_str pos in
          let nattrs = Relational.Column.read_i64 s pos in
          if nattrs < 0 || nattrs > 4096 then corrupt "bad attribute count";
          let attrs = List.init nattrs (fun _ -> read_str pos) in
          match R.Schema.relation name attrs with
          | schema -> schema
          | exception Invalid_argument msg -> corrupt msg)
    in
    let catalog = R.Schema.of_list schemas in
    let check_rel name =
      match R.Schema.find_opt catalog name with
      | Some schema -> schema
      | None -> corrupt (Printf.sprintf "constraint on unknown relation %s" name)
    in
    let check_attrs schema l =
      List.iter
        (fun i ->
          if i < 0 || i >= R.Schema.arity schema then
            corrupt "constraint attribute out of range")
        l;
      l
    in
    let nconstr = Relational.Column.read_i64 s pos in
    if nconstr < 0 || nconstr > 100_000 then corrupt "bad constraint count";
    let constraints =
      List.init nconstr (fun _ ->
          if !pos >= String.length s then corrupt "truncated constraint";
          let tag = Char.code s.[!pos] in
          incr pos;
          match tag with
          | 0 ->
              let frel = read_str pos in
              let schema = check_rel frel in
              let lhs = check_attrs schema (read_int_list pos) in
              let rhs = check_attrs schema (read_int_list pos) in
              if lhs = [] || rhs = [] then corrupt "empty fd attribute list";
              R.Constr.Fd { R.Constr.frel; lhs; rhs }
          | 1 ->
              let sub_rel = read_str pos in
              let sub = check_rel sub_rel in
              let sub_attrs = check_attrs sub (read_int_list pos) in
              let sup_rel = read_str pos in
              let sup = check_rel sup_rel in
              let sup_attrs = check_attrs sup (read_int_list pos) in
              if
                sub_attrs = []
                || List.length sub_attrs <> List.length sup_attrs
              then corrupt "bad ind attribute lists";
              R.Constr.Ind { R.Constr.sub_rel; sub_attrs; sup_rel; sup_attrs }
          | _ -> corrupt "bad constraint tag")
    in
    let segs =
      List.map
        (fun schema ->
          let seg = R.Segment.deserialize s pos in
          if R.Segment.arity seg <> R.Schema.arity schema then
            corrupt
              (Printf.sprintf "segment arity mismatch for %s"
                 schema.R.Schema.name);
          (schema.R.Schema.name, seg))
        schemas
    in
    let state = R.Database.of_segments catalog segs in
    let by_index = Array.of_list schemas in
    let npend = Relational.Column.read_i64 s pos in
    if npend < 0 || npend > 1_000_000 then corrupt "bad pending count";
    let seen = Hashtbl.create (max 16 npend) in
    let labels = ref [] and pending = ref [] in
    for _ = 1 to npend do
      let label = read_str pos in
      if Hashtbl.mem seen label then
        corrupt (Printf.sprintf "duplicate transaction label %s" label);
      Hashtbl.replace seen label ();
      let nrows = Relational.Column.read_i64 s pos in
      if nrows < 0 || nrows > 10_000_000 then corrupt "bad row count";
      let read_row _ =
        let ri = Relational.Column.read_i64 s pos in
        if ri < 0 || ri >= Array.length by_index then
          corrupt "bad relation index in pending row";
        let schema = by_index.(ri) in
        let tuple = Array.make (R.Schema.arity schema) V.Null in
        for c = 0 to Array.length tuple - 1 do
          match V.read_binary s pos with
          | v -> tuple.(c) <- v
          | exception Invalid_argument _ -> corrupt "bad value in pending row"
        done;
        (schema.R.Schema.name, tuple)
      in
      labels := label :: !labels;
      pending := List.init nrows read_row :: !pending
    done;
    if
      !pos + String.length binary_end <> String.length s
      || String.sub s !pos (String.length binary_end) <> binary_end
    then corrupt "missing end marker";
    let labels = List.rev !labels and pending = List.rev !pending in
    if validate then Bcdb.create ~state ~constraints ~pending ~labels ()
    else Ok (Bcdb.create_unchecked ~state ~constraints ~pending ~labels ())
  with
  | result -> result
  | exception Relational.Column.Corrupt msg -> Error ("binary snapshot: " ^ msg)

let load_binary ?validate path =
  let read ic = really_input_string ic (Int64.to_int (In_channel.length ic)) in
  match In_channel.with_open_bin path read with
  | contents -> of_binary_string ?validate contents
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": file shrank while being read")

let save_binary path db =
  match
    Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc (binary_buffer db))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg
