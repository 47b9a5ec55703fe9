module Work_source = struct
  type 'a t = unit -> 'a option

  let of_list items =
    let remaining = ref items in
    fun () ->
      match !remaining with
      | [] -> None
      | x :: tl ->
          remaining := tl;
          Some x

  let of_cliques ?interrupt graph ~back =
    let next = Bcgraph.Bron_kerbosch.generator ?interrupt graph in
    fun () -> Option.map (List.map (fun i -> back.(i))) (next ())
end

(* Cooperative cancellation: a budget is checked before every claim and
   every world (under the engine lock, at cumulative world counts) and,
   via {!Budget.interrupt}, inside Bron–Kerbosch branching steps. A
   budget never interrupts an evaluation in flight, so [max_worlds] may
   be overshot by up to [jobs - 1] in-flight worlds. Tripping is sticky:
   the first reason observed is the one reported. Every mutation happens
   under the engine lock. *)
module Budget = struct
  type reason = Deadline | Max_worlds

  type t = {
    deadline : float option;  (* absolute Monotime.now target *)
    max_worlds : int;
    mutable tripped : reason option;
  }

  let unlimited = { deadline = None; max_worlds = max_int; tripped = None }

  let create ?timeout_s ?max_worlds () =
    (match timeout_s with
    | Some s when Float.is_nan s -> invalid_arg "Engine.Budget.create: NaN timeout"
    | Some s when s = Float.infinity ->
        invalid_arg "Engine.Budget.create: infinite timeout"
    | Some s when s < 0.0 -> invalid_arg "Engine.Budget.create: negative timeout"
    | _ -> ());
    (match max_worlds with
    | Some n when n < 0 -> invalid_arg "Engine.Budget.create: negative max_worlds"
    | _ -> ());
    {
      deadline = Option.map (fun s -> Monotime.now () +. s) timeout_s;
      max_worlds = Option.value max_worlds ~default:max_int;
      tripped = None;
    }

  let is_unlimited t = t.deadline = None && t.max_worlds = max_int

  let tripped t = t.tripped
  let trip t reason = if t.tripped = None then t.tripped <- Some reason

  let deadline_passed t =
    match t.deadline with Some d -> Monotime.now () > d | None -> false

  let check t ~evaluated =
    (if t.tripped = None then
       if evaluated >= t.max_worlds then trip t Max_worlds
       else if deadline_passed t then trip t Deadline);
    t.tripped

  (* The hook handed to Bron_kerbosch.generator: only the deadline can
     fire between yields (the world limit is a claim-path property). *)
  let interrupt t () =
    t.tripped <> None
    ||
    if deadline_passed t then begin
      trip t Deadline;
      true
    end
    else false

  let reason_name = function Deadline -> "deadline" | Max_worlds -> "max-worlds"

  let pp_reason ppf r = Format.pp_print_string ppf (reason_name r)
end

type violation = {
  world : int list;
  witness : (string * Relational.Value.t) list option;
}

type evaluation = { world : int list; violation : violation option }

type verdict = Satisfied | Violated of violation | Unknown of Budget.reason

type 'g report = {
  hit : violation option;
  evaluated : int;
  exhausted : Budget.reason option;
  groups : ('g * verdict) list;
}

(* Upper bound on the worker count of one run. *)
let max_jobs = 64

(* Per-world evaluation time feeds the "engine.busy_s" histogram (its sum
   over jobs × wall time is the worker-utilization headline number). *)
let eval_timed obs eval store members =
  if Obs.enabled obs then begin
    let since = Monotime.now () in
    let ev = eval store members in
    Obs.observe obs "engine.busy_s" (Monotime.elapsed ~since);
    ev
  end
  else eval store members

(* A pool of parked helper domains, reused across engine runs.
   [Domain.spawn] costs milliseconds — often more than an entire small
   solve — so helpers are spawned once and then sleep on a condition
   variable between runs (where they don't take part in GC barriers
   either). The pool only ever grows to the high-water mark of
   concurrently requested helpers. *)
module Pool = struct
  type slot = {
    m : Mutex.t;
    cv : Condition.t;
    mutable job : (unit -> unit) option;
  }

  let lock = Mutex.create ()
  let idle : slot list ref = ref []

  let rec loop slot =
    Mutex.lock slot.m;
    while slot.job = None do
      Condition.wait slot.cv slot.m
    done;
    let job = match slot.job with Some j -> j | None -> assert false in
    Mutex.unlock slot.m;
    (* Backstop only: submitted jobs are exception-safe wrappers (see
       [guarded] in [run]) that record failures and signal completion
       themselves. Swallowing here merely keeps a buggy future caller
       from killing a parked domain; it must never be the place a worker
       failure is "handled", or the submitter's join deadlocks. *)
    (try job () with _ -> ());
    Mutex.lock slot.m;
    slot.job <- None;
    Mutex.unlock slot.m;
    Mutex.lock lock;
    idle := slot :: !idle;
    Mutex.unlock lock;
    loop slot

  let take () =
    Mutex.lock lock;
    let reused =
      match !idle with
      | s :: tl ->
          idle := tl;
          Some s
      | [] -> None
    in
    Mutex.unlock lock;
    match reused with
    | Some s -> s
    | None ->
        let s = { m = Mutex.create (); cv = Condition.create (); job = None } in
        ignore (Domain.spawn (fun () -> loop s) : unit Domain.t);
        s

  let submit slot job =
    Mutex.lock slot.m;
    slot.job <- Some job;
    Condition.signal slot.cv;
    Mutex.unlock slot.m
end

(* The one enumeration loop. [jobs] workers — the calling domain plus
   [jobs - 1] helpers from the {!Pool} — claim groups from [groups] in
   index order under one lock (the source may touch the primary store:
   Covers tests run there). A worker walks the candidate stream of the
   group it claims one world at a time, on its own store: the primary
   one when it is the only worker, otherwise a full replica borrowed
   (under the lock, since cloning reads the primary store) when it
   claims its first group. No store is ever shared between domains.

   Every shared counter lives under the lock. Before each world the
   worker checks, under it, whether a lower-index group has already
   violated (then this group can never be counted, and it is dropped)
   and whether the budget has tripped at the cumulative world count
   (then the group ends [Unknown]). A group ends at its first violation;
   once one is recorded, no further group is claimed. Unclaimed groups
   all carry higher indexes than every claimed one, so the lowest-index
   violation is the one the single-worker run finds first, and counting
   work only over the groups up to it makes every count independent of
   [jobs]. *)
let run ?(obs = Obs.null) ?(budget = Budget.unlimited)
    ?(on_world = fun _ _ -> ()) ~jobs ~store ~replicate ?(release = ignore)
    ~groups ~worlds ~eval () =
  let helpers = max 1 (min jobs max_jobs) - 1 in
  let lock = Mutex.create () in
  let locked f = Mutex.protect lock f in
  let claims_open = ref true in
  let next_index = ref 0 in
  let evaluated = ref 0 in
  let best = ref max_int (* index of the lowest violating group *) in
  let results = ref [] (* (index, group, verdict, worlds) *) in
  let failure = ref None in
  let borrowed = ref [] in
  let interrupt =
    if Budget.is_unlimited budget then None
    else Some (fun () -> locked (Budget.interrupt budget))
  in
  let claim_raw () =
    locked (fun () ->
        if
          (not !claims_open)
          || Budget.check budget ~evaluated:!evaluated <> None
        then None
        else
          match groups () with
          | None ->
              claims_open := false;
              None
          | Some g ->
              let i = !next_index in
              incr next_index;
              Some (i, g))
  in
  let claim () =
    (* The claim span covers lock acquisition plus the pull itself, so a
       trace shows contention on the claim path as wide "claim" slices. *)
    if Obs.enabled obs then Obs.span obs ~cat:"engine" "claim" claim_raw
    else claim_raw ()
  in
  let finish i g verdict worlds =
    locked (fun () ->
        results := (i, g, verdict, worlds) :: !results;
        match verdict with
        | Violated _ ->
            claims_open := false;
            best := min !best i
        | Satisfied | Unknown _ -> ())
  in
  (* Under the lock, before each world of group [i]: drop the group if
     it can no longer be counted (a lower-index group violated, or a
     worker failed), end it if the budget tripped, else go on. *)
  let gate i =
    if !failure <> None || !best < i then `Drop
    else
      match Budget.check budget ~evaluated:!evaluated with
      | Some reason -> `Cut reason
      | None -> `Next
  in
  let walk eval store (i, g) =
    let next = worlds ?interrupt store g in
    let rec go n = function
      | `Drop -> ()
      | `Cut reason -> finish i g (Unknown reason) n
      | `Next -> (
          match next () with
          | None ->
              (* The stream also ends when the deadline interrupt fires. *)
              let verdict =
                match locked (fun () -> Budget.tripped budget) with
                | Some reason -> Unknown reason
                | None -> Satisfied
              in
              finish i g verdict n
          | Some candidate -> (
              let ev = eval_timed obs eval store candidate in
              (* One lock per world: count it, report it, gate the next. *)
              let step =
                locked (fun () ->
                    incr evaluated;
                    on_world candidate ev;
                    gate i)
              in
              match ev.violation with
              | Some v -> finish i g (Violated v) (n + 1)
              | None -> go (n + 1) step))
    in
    go 0 (locked (fun () -> gate i))
  in
  let worker () =
    let eval = eval () in
    let replica = ref None in
    let store_of () =
      if helpers = 0 then store
      else
        match !replica with
        | Some r -> r
        | None ->
            let r =
              locked (fun () ->
                  let r = replicate () in
                  borrowed := r :: !borrowed;
                  r)
            in
            replica := Some r;
            r
    in
    let rec loop () =
      match claim () with
      | None -> ()
      | Some item ->
          walk eval (store_of ()) item;
          loop ()
    in
    Obs.span obs ~cat:"engine" "worker" loop
  in
  (* Exception safety. A worker may raise (a broken [eval], an
     interrupted replica clone): the raise must not strand [finished] —
     that deadlocks the join — and must not leak borrowed replicas. Each
     worker runs under a catch-all that records the first failure (with
     its backtrace) and closes the claims, so the other workers drop
     their groups at the next world; after the join, every borrowed
     replica is released and the recorded exception is re-raised to the
     caller. The pool's parked domains never see the exception, so the
     pool stays reusable for the next run. *)
  let guarded () =
    try worker ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      locked (fun () ->
          if !failure = None then failure := Some (e, bt);
          claims_open := false)
  in
  let done_m = Mutex.create () and done_cv = Condition.create () in
  let finished = ref 0 in
  for _ = 1 to helpers do
    Pool.submit (Pool.take ()) (fun () ->
        guarded ();
        Mutex.lock done_m;
        incr finished;
        Condition.signal done_cv;
        Mutex.unlock done_m)
  done;
  guarded ();
  if helpers > 0 then
    Obs.span obs ~cat:"engine" "join" (fun () ->
        Mutex.lock done_m;
        while !finished < helpers do
          Condition.wait done_cv done_m
        done;
        Mutex.unlock done_m);
  List.iter release !borrowed;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure;
  let counted =
    List.sort
      (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b)
      (List.filter (fun (i, _, _, _) -> i <= !best) !results)
  in
  {
    hit =
      List.find_map
        (function _, _, Violated v, _ -> Some v | _ -> None)
        counted;
    evaluated = List.fold_left (fun acc (_, _, _, n) -> acc + n) 0 counted;
    exhausted = Budget.tripped budget;
    groups = List.map (fun (_, g, verdict, _) -> (g, verdict)) counted;
  }
