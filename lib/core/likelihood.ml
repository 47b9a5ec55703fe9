module Q = Bcquery
module Bitset = Bcgraph.Bitset

type model = { probs : int -> float }

let clamp p = Float.max 0.0 (Float.min 1.0 p)
let uniform p = { probs = (fun _ -> clamp p) }
let of_weights arr = { probs = (fun i -> clamp arr.(i)) }

let logistic_feerate ~fee_rates ?(midpoint = 1.0) ?(steepness = 2.0) () =
  {
    probs =
      (fun i -> clamp (1.0 /. (1.0 +. exp (-.steepness *. (fee_rates.(i) -. midpoint)))));
  }

let probability m i = m.probs i

(* Greedy deterministic repair: {!Closure.run}'s append loop over the
   proposed transactions in decreasing probability (ties by id), looping
   until a fixpoint so that dependency chains inside the proposal are
   honoured regardless of their probabilities. *)
let repair session model proposal =
  let order =
    Bitset.to_list proposal
    |> List.sort (fun a b ->
           match Float.compare (model.probs b) (model.probs a) with
           | 0 -> Int.compare a b
           | c -> c)
  in
  Closure.run (Session.store session)
    ~constraints:(Session.db session).Bcdb.constraints ~candidates:order

let violates session q world =
  let view = Tagged_store.view (Session.store session) in
  Tagged_store.set_world view world;
  Q.Eval.eval (Tagged_store.source view) q

let exact_violation_probability session model q =
  let store = Session.store session in
  let k = Tagged_store.tx_count store in
  if k > 20 then
    invalid_arg "Likelihood.exact_violation_probability: too many pending txs";
  let total = ref 0.0 in
  for bits = 0 to (1 lsl k) - 1 do
    let proposal = Bitset.create k in
    let weight = ref 1.0 in
    for i = 0 to k - 1 do
      let p = model.probs i in
      if bits land (1 lsl i) <> 0 then begin
        Bitset.add proposal i;
        weight := !weight *. p
      end
      else weight := !weight *. (1.0 -. p)
    done;
    if !weight > 0.0 then begin
      let world = repair session model proposal in
      if violates session q world then total := !total +. !weight
    end
  done;
  !total

type estimate = { probability : float; std_error : float; samples : int }

let estimate_violation_probability ?(seed = 0x5eed) ?(samples = 1000) session
    model q =
  if samples <= 0 then
    invalid_arg "Likelihood.estimate_violation_probability: samples <= 0";
  let store = Session.store session in
  let k = Tagged_store.tx_count store in
  let state = Random.State.make [| seed |] in
  let hits = ref 0 in
  for _ = 1 to samples do
    let proposal = Bitset.create k in
    for i = 0 to k - 1 do
      if Random.State.float state 1.0 < model.probs i then Bitset.add proposal i
    done;
    let world = repair session model proposal in
    if violates session q world then incr hits
  done;
  let p = float_of_int !hits /. float_of_int samples in
  {
    probability = p;
    std_error = sqrt (p *. (1.0 -. p) /. float_of_int samples);
    samples;
  }
