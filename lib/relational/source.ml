type probe = {
  count : Value.t array -> int;
  iter : Value.t array -> (Tuple.t -> unit) -> unit;
}

type t = {
  catalog : Schema.t;
  scan : string -> Tuple.t Seq.t;
  prepare : string -> int array -> probe;
  mem : string -> Tuple.t -> bool;
  cardinality : string -> int;
}

let schema t name = Schema.find t.catalog name

exception Conflict
exception Found of Tuple.t

let find_binds t rel binds pred =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) binds in
  let rec uniq = function
    | (c1, v1) :: ((c2, v2) :: _ as rest) when c1 = c2 ->
        if not (Value.equal v1 v2) then raise Conflict;
        uniq rest
    | b :: rest -> b :: uniq rest
    | [] -> []
  in
  match uniq sorted with
  | exception Conflict -> None
  | binds -> (
      let p = t.prepare rel (Array.of_list (List.map fst binds)) in
      try
        p.iter
          (Array.of_list (List.map snd binds))
          (fun tu -> if pred tu then raise_notrace (Found tu));
        None
      with Found tu -> Some tu)

let probe_from t rel ~cols ~from =
  let pairs = List.sort_uniq compare (List.combine cols from) in
  let ucols = Array.of_list (List.sort_uniq Int.compare cols) in
  (* Per bound column, the tuple positions that supply its value. *)
  let froms =
    Array.map
      (fun c -> List.filter_map (fun (c', f) -> if c = c' then Some f else None) pairs)
      ucols
  in
  let probe = lazy (t.prepare rel ucols) in
  fun (tu : Tuple.t) f ->
    let consistent =
      Array.for_all
        (function
          | f0 :: rest -> List.for_all (fun f' -> Value.equal tu.(f0) tu.(f')) rest
          | [] -> true)
        froms
    in
    if consistent then
      (Lazy.force probe).iter (Array.map (fun fs -> tu.(List.hd fs)) froms) f
