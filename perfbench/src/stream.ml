(* Request streams for the serve workloads.

   A stream is a time-ordered array of requests, each with the offset
   (seconds from the start of the run) at which it is due. Everything is
   a pure function of the seed and the generated inputs, so the same
   seed gives a byte-identical stream ({!to_bytes}). *)

type req =
  | Check of string  (** Query text. *)
  | Add of { label : string; rows : string list }  (** Row text lines. *)
  | Evict of string
  | Confirm of string

type item = { due : float; req : req }

let payload = function
  | Check q -> "check\n" ^ q
  | Add { label; rows } -> "add " ^ label ^ "\n" ^ String.concat "\n" rows
  | Evict l -> "evict " ^ l
  | Confirm l -> "confirm " ^ l

let is_check = function Check _ -> true | _ -> false

let kind = function
  | Check _ -> "check"
  | Add _ -> "add"
  | Evict _ -> "evict"
  | Confirm _ -> "confirm"

(* The exact bytes a client sends, each frame preceded by its due time. *)
let to_bytes items =
  let b = Buffer.create 4096 in
  Array.iter
    (fun it ->
      Buffer.add_string b (Printf.sprintf "%.9f\n" it.due);
      Buffer.add_string b (Frame.encode (payload it.req)))
    items;
  Buffer.contents b

(* [n] arrival offsets of a Poisson process on [0, seconds) conditioned
   on exactly [n] arrivals: sorted uniforms. A fixed count keeps the
   sample size, and with it the reported tail percentile, the same on
   every seed. *)
let arrivals rng ~n ~seconds =
  let a = Array.init n (fun _ -> Random.State.float rng seconds) in
  Array.sort Float.compare a;
  a

(* Fisher–Yates. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* serve-read: [rate * seconds] requests, checks drawn uniformly from
   [checks], with one add (taken in order from [adds]) per
   [checks_per_add] checks at seeded positions. The transactions always
   arrive in the same order, so every seed does the same maintenance
   work. *)
let read_mix ~seed ~rate ~seconds ~checks ~adds ~checks_per_add =
  let rng = Random.State.make [| seed; 0x5e4d |] in
  let n = int_of_float (Float.round (rate *. seconds)) in
  let n_adds = n / (checks_per_add + 1) in
  if n_adds > Array.length adds then
    invalid_arg
      (Printf.sprintf "Stream.read_mix: %d adds needed, %d held back" n_adds
         (Array.length adds));
  let is_add = Array.init n (fun i -> i < n_adds) in
  shuffle rng is_add;
  let times = arrivals rng ~n ~seconds in
  let next_add = ref 0 in
  Array.mapi
    (fun i due ->
      let req =
        if is_add.(i) then begin
          let label, rows = adds.(!next_add) in
          incr next_add;
          Add { label; rows }
        end
        else Check checks.(Random.State.int rng (Array.length checks))
      in
      { due; req })
    times

(* serve-churn: a block stream of [rate * seconds] arrival events, each a
   mutation followed at the same due time by a check of [check]. The
   events cycle through: a held-back transaction arrives; three RBF
   double-spends each arrive and are evicted; the oldest pending
   transaction is mined. Adds and removals balance, so the mempool size
   stays level, and the cheap mutations (adds, evicts) outnumber the
   costly confirms seven to one, so the median latency sits inside one
   class instead of between two. RBF transactions are reused
   round-robin under fresh labels. *)
let rbf_pairs = 3

let churn ~seed ~rate ~seconds ~held ~confirmable ~rbf ~check =
  let rng = Random.State.make [| seed; 0xc4a2 |] in
  let n = int_of_float (Float.round (rate *. seconds)) in
  let times = arrivals rng ~n ~seconds in
  let per_cycle = 2 + (2 * rbf_pairs) in
  let cycles = (n + per_cycle - 1) / per_cycle in
  if cycles > Array.length held || cycles > Array.length confirmable then
    invalid_arg
      (Printf.sprintf "Stream.churn: %d cycles, %d held, %d confirmable" cycles
         (Array.length held) (Array.length confirmable));
  if Array.length rbf = 0 then invalid_arg "Stream.churn: no RBF transactions";
  let rbf_use k =
    let label, rows = rbf.(k mod Array.length rbf) in
    (Printf.sprintf "%s~r%d" label k, rows)
  in
  let mutation i =
    let c = i / per_cycle and pos = i mod per_cycle in
    if pos = 0 then
      let label, rows = held.(c) in
      Add { label; rows }
    else if pos = per_cycle - 1 then Confirm confirmable.(c)
    else
      let label, rows = rbf_use ((c * rbf_pairs) + ((pos - 1) / 2)) in
      if pos mod 2 = 1 then Add { label; rows } else Evict label
  in
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun i due -> [| { due; req = mutation i }; { due; req = Check check } |])
          times))

(* Dry replay of the labels: every add names a label never seen before
   (the snapshot's included — [Live.add] does not reject duplicates),
   every evict/confirm names a transaction pending at that point. *)
let validate ~initial items =
  let pending = Hashtbl.create 4096 and seen = Hashtbl.create 4096 in
  List.iter
    (fun l ->
      Hashtbl.replace pending l ();
      Hashtbl.replace seen l ())
    initial;
  let err = ref None in
  Array.iteri
    (fun i it ->
      if !err = None then
        let fail fmt = Printf.ksprintf (fun s -> err := Some s) fmt in
        match it.req with
        | Check _ -> ()
        | Add { label; rows } ->
            if Hashtbl.mem seen label then
              fail "request %d: add of duplicate label %s" i label
            else if rows = [] then fail "request %d: add %s has no rows" i label
            else if String.contains label ' ' || String.contains label '\n'
            then fail "request %d: label %S is not one word" i label
            else begin
              Hashtbl.replace seen label ();
              Hashtbl.replace pending label ()
            end
        | Evict l | Confirm l ->
            if not (Hashtbl.mem pending l) then
              fail "request %d: %s of %s, which is not pending" i
                (kind it.req) l
            else Hashtbl.remove pending l)
    items;
  if Array.exists (fun it -> it.due < 0.0) items then
    err := Some "negative due time";
  for i = 1 to Array.length items - 1 do
    if items.(i).due < items.(i - 1).due && !err = None then
      err := Some (Printf.sprintf "request %d is due before request %d" i (i - 1))
  done;
  match !err with None -> Ok () | Some e -> Error e
