type t = { parent : int array; rank : int array }

let create n = { parent = Array.init n (fun i -> i); rank = Array.make n 0 }

let rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let root = find t p in
    t.parent.(i) <- root;
    root
  end

let union t i j =
  let ri = find t i and rj = find t j in
  if ri <> rj then
    if t.rank.(ri) < t.rank.(rj) then t.parent.(ri) <- rj
    else if t.rank.(ri) > t.rank.(rj) then t.parent.(rj) <- ri
    else begin
      t.parent.(rj) <- ri;
      t.rank.(ri) <- t.rank.(ri) + 1
    end

let same t i j = find t i = find t j

(* Members gathered under their root, then each group emitted at its
   smallest member: ascending groups by smallest member, no hashing. *)
let groups t =
  let n = Array.length t.parent in
  let under = Array.make n [] in
  for i = n - 1 downto 0 do
    let r = find t i in
    under.(r) <- i :: under.(r)
  done;
  let acc = ref [] in
  for i = n - 1 downto 0 do
    match under.(find t i) with
    | m :: _ as group when m = i -> acc := group :: !acc
    | _ -> ()
  done;
  !acc
