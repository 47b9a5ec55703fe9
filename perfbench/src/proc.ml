(* Child processes of the benchmark: spawned with pipes, reaped with
   their peak RSS, and killed on any early exit so that no process
   outlives a run. *)

external wait4 : int -> int * int = "pb_wait4"

let live_children : (int, unit) Hashtbl.t = Hashtbl.create 8

let reap pid =
  let code, maxrss_kib = wait4 pid in
  Hashtbl.remove live_children pid;
  (code, maxrss_kib)

let kill_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait4 pid) with Failure _ -> ())
    (Hashtbl.copy live_children);
  Hashtbl.reset live_children

let () = at_exit kill_all

let spawn ?(stdin = Unix.stdin) ?(stdout = Unix.stdout) ~stderr prog args =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout stderr in
  Hashtbl.replace live_children pid ();
  pid

(* Run to completion with stdout captured; returns (code, stdout,
   maxrss_kib). *)
let run ~stderr prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:w ~stderr prog args in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let code, rss = reap pid in
  (code, out, rss)
