type probe = {
  count : Value.t array -> int;
  iter : Value.t array -> (Tuple.t -> unit) -> unit;
}

type t = {
  catalog : Schema.t;
  prepare : string -> int array -> probe;
  mem : string -> Tuple.t -> bool;
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

(* Whether [tu] agrees with itself on every pair of positions in
   [same]: a column bound from two positions needs equal values there. *)
let rec self_consistent (tu : Tuple.t) same i =
  i >= Array.length same
  ||
  let a, b = same.(i) in
  Value.equal tu.(a) tu.(b) && self_consistent tu same (i + 1)

let probe_from t rel ~cols ~from =
  let pairs = List.sort_uniq compare (List.combine cols from) in
  let ucols = Array.of_list (List.sort_uniq Int.compare cols) in
  (* Per bound column, the lowest tuple position that supplies its value;
     every other position bound to the same column must agree with it. *)
  let first = Array.map (fun c -> List.assoc c pairs) ucols in
  let same =
    Array.of_list
      (List.filter_map
         (fun (c, f) ->
           let f0 = List.assoc c pairs in
           if f = f0 then None else Some (f0, f))
         pairs)
  in
  let keys = Array.make (Array.length ucols) Value.Null in
  let probe = lazy (t.prepare rel ucols) in
  fun (tu : Tuple.t) f ->
    if self_consistent tu same 0 then begin
      for i = 0 to Array.length first - 1 do
        keys.(i) <- tu.(first.(i))
      done;
      (Lazy.force probe).iter keys f
    end
