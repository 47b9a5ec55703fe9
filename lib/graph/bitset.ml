type t = { n : int; words : int array }

(* 32 bits per array slot: comfortably inside OCaml's 63-bit immediate
   ints (so popcounts and masks never overflow), while still giving the
   clique enumerator and the world representation word-at-a-time set
   operations. Invariant: bits at positions >= n in the last word are
   always zero, so equality / emptiness / popcount need no masking. *)

let wbits = 32
let wmask = 0xFFFFFFFF
let nwords n = (n + wbits - 1) / wbits
let create n = { n; words = Array.make (nwords n) 0 }
let capacity t = t.n
let copy t = { n = t.n; words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: element out of range"

let add t i =
  check t i;
  let w = i lsr 5 in
  t.words.(w) <- t.words.(w) lor (1 lsl (i land 31))

let remove t i =
  check t i;
  let w = i lsr 5 in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i land 31))

let mem t i =
  check t i;
  t.words.(i lsr 5) land (1 lsl (i land 31)) <> 0

(* One range test per element, then an unchecked word load: this runs
   once per probed pending row of every world. *)
let rec mem_any_from t (a : int array) j =
  j < Array.length a
  &&
  let i = Array.unsafe_get a j in
  (i >= 0 && i < t.n
  && Array.unsafe_get t.words (i lsr 5) land (1 lsl (i land 31)) <> 0)
  || mem_any_from t a (j + 1)

let mem_any t a = mem_any_from t a 0

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* Whole-word copy into a fresh array; when shrinking, the last kept
   word is masked so the trailing-zero invariant holds at the new
   capacity. *)
let resize t m =
  if m < 0 then invalid_arg "Bitset.resize: negative capacity";
  let out = create m in
  let nw = nwords m in
  Array.blit t.words 0 out.words 0 (min nw (Array.length t.words));
  let tail = m land 31 in
  if m < t.n && tail <> 0 then
    out.words.(nw - 1) <- out.words.(nw - 1) land ((1 lsl tail) - 1);
  out

(* Drop element [j] and shift every higher element down by one: words
   below [j]'s are copied, [j]'s own word keeps its low bits and shifts
   its high bits, and every later word shifts right by one, taking the
   next word's lowest bit as its top bit. Bits at and above the old
   capacity are zero, so the shifted words stay zero at and above the
   new one. *)
let remove_shift t j =
  check t j;
  let out = create (t.n - 1) in
  let src = t.words and dst = out.words in
  let nw = Array.length src and nw' = Array.length dst in
  let carry w = if w + 1 < nw then (src.(w + 1) land 1) lsl 31 else 0 in
  let jw = j lsr 5 and jb = j land 31 in
  Array.blit src 0 dst 0 (min jw nw');
  if jw < nw' then begin
    let x = src.(jw) in
    dst.(jw) <-
      x land ((1 lsl jb) - 1) lor ((x lsr (jb + 1)) lsl jb) lor carry jw
  end;
  for w = jw + 1 to nw' - 1 do
    dst.(w) <- (src.(w) lsr 1) lor carry w
  done;
  out

(* SWAR popcount of a 32-bit value held in a wider int. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* mask the product: OCaml ints don't wrap at 32 bits *)
  ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let equal a b =
  a.n = b.n
  &&
  let rec go i = i < 0 || (a.words.(i) = b.words.(i) && go (i - 1)) in
  go (Array.length a.words - 1)

let binop f a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch";
  let out = create a.n in
  for i = 0 to Array.length a.words - 1 do
    out.words.(i) <- f a.words.(i) b.words.(i)
  done;
  out

let inter = binop ( land )
let union = binop ( lor )

(* [lnot y] sets bits above position 31, but [x] has none, so no
   re-masking is needed to keep the trailing-zero invariant. *)
let diff = binop (fun x y -> x land lnot y)

let inter_cardinal a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch";
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land b.words.(i))
  done;
  !acc

let subset a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch";
  let rec go i =
    i < 0 || (a.words.(i) land lnot b.words.(i) = 0 && go (i - 1))
  in
  go (Array.length a.words - 1)

let iter_word f base x =
  let x = ref x in
  while !x <> 0 do
    let b = !x land - !x in
    (* lowest set bit as a power of two; its index via popcount of b-1 *)
    f (base + popcount (b - 1));
    x := !x lxor b
  done

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let x = t.words.(w) in
    if x <> 0 then iter_word f (w lsl 5) x
  done

let iter_diff f a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch";
  for w = 0 to Array.length a.words - 1 do
    let x = a.words.(w) land lnot b.words.(w) in
    if x <> 0 then iter_word f (w lsl 5) x
  done

let inter_into a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch";
  for i = 0 to Array.length a.words - 1 do
    a.words.(i) <- a.words.(i) land b.words.(i)
  done

(* Argmax of [score u] over the members [u] of [cand], ascending: only a
   strictly better score displaces the current best, so ties resolve to
   the smallest member — the deterministic pivot rule the clique
   enumerator relies on. The scan stops at the first member whose score
   reaches [bound]: when [bound] caps every score, that member is
   already the smallest argmax. *)
let max_by ~bound cand score =
  let best = ref (-1) and best_score = ref (-1) in
  let w = ref 0 and stop = ref false in
  while !w < Array.length cand.words && not !stop do
    let x = ref cand.words.(!w) in
    while !x <> 0 && not !stop do
      let b = !x land - !x in
      let u = (!w lsl 5) + popcount (b - 1) in
      let s = score u in
      if s > !best_score then begin
        best := u;
        best_score := s
      end;
      stop := s >= bound;
      x := !x lxor b
    done;
    incr w
  done;
  (!best, !best_score)

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let choose_opt t =
  let rec go w =
    if w >= Array.length t.words then None
    else
      let x = t.words.(w) in
      if x = 0 then go (w + 1)
      else Some ((w lsl 5) + popcount ((x land -x) - 1))
  in
  go 0

let of_list n members =
  let t = create n in
  List.iter (add t) members;
  t

let to_list t = List.rev (fold List.cons t [])

let full n =
  let t = create n in
  let nw = nwords n in
  if nw > 0 then begin
    Array.fill t.words 0 nw wmask;
    let tail = n land 31 in
    if tail <> 0 then t.words.(nw - 1) <- (1 lsl tail) - 1
  end;
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (to_list t)
