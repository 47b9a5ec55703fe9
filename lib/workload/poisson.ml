type summary = {
  requests : int;
  rate : float;
  duration : float;
  checks_per_sec : float;
  mean_service : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Poisson.percentile: empty";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

(* Seeded exponential inter-arrival times via inverse-transform
   sampling; Random.State keeps the stream independent of any other
   randomness in the process. *)
let inter_arrival st rate =
  let u = Random.State.float st 1.0 in
  -.log1p (-.u) /. rate

let run ~seed ~rate ~requests service =
  if requests <= 0 then invalid_arg "Poisson.run: requests must be positive";
  if rate <= 0.0 then invalid_arg "Poisson.run: rate must be positive";
  let st = Random.State.make [| seed |] in
  let latencies = Array.make requests 0.0 in
  let total_service = ref 0.0 in
  let clock = ref 0.0 (* virtual time *) in
  let completion = ref 0.0 in
  let first_arrival = ref 0.0 in
  for i = 0 to requests - 1 do
    clock := !clock +. inter_arrival st rate;
    if i = 0 then first_arrival := !clock;
    let started = Float.max !clock !completion in
    let t0 = Bcobs.Monotime.now () in
    service i;
    let dt = Bcobs.Monotime.elapsed ~since:t0 in
    total_service := !total_service +. dt;
    completion := started +. dt;
    latencies.(i) <- !completion -. !clock
  done;
  let duration = Float.max epsilon_float (!completion -. !first_arrival) in
  {
    requests;
    rate;
    duration;
    checks_per_sec = float_of_int requests /. duration;
    mean_service = !total_service /. float_of_int requests;
    p50 = percentile latencies 0.50;
    p90 = percentile latencies 0.90;
    p99 = percentile latencies 0.99;
  }
