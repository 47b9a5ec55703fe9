(* One client connection to `bcdb serve` over its stdin/stdout, driven
   open loop (each request sent when due, whatever is outstanding) or
   closed loop (one request outstanding at a time). The server answers
   in order, so responses are matched to requests first-in first-out. *)

module Monotime = Bcobs.Monotime

type conn = {
  pid : int;
  to_srv : Unix.file_descr;
  from_srv : Unix.file_descr;
  dec : Frame.decoder;
  chunk : Bytes.t;
}

exception Dropped of string

let read_some c =
  match Unix.read c.from_srv c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> raise (Dropped "server closed its output")
  | n -> Frame.feed c.dec c.chunk 0 n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let rec next_frame c =
  match Frame.next c.dec with
  | Ok (Some p) -> p
  | Ok None ->
      read_some c;
      next_frame c
  | Error e -> raise (Dropped e)

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ignore (Unix.select [] [ fd ] [] 1.0);
        write_all fd s off

(* Closed-loop round trip: returns the response and its latency. *)
let roundtrip c payload =
  let t0 = Monotime.now () in
  write_all c.to_srv (Frame.encode payload) 0;
  let resp = next_frame c in
  (resp, Monotime.now () -. t0)

(* Spawn the server and time it to its first response (a `stats`
   request sent at once): snapshot load plus [Live.create]. *)
let start ~bcdb ~snapshot ~stderr =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let t0 = Monotime.now () in
  let pid =
    Proc.spawn ~stdin:req_r ~stdout:resp_w ~stderr bcdb
      [ "serve"; "--snapshot"; snapshot ]
  in
  Unix.close req_r;
  Unix.close resp_w;
  let c =
    { pid; to_srv = req_w; from_srv = resp_r; dec = Frame.decoder ();
      chunk = Bytes.create 65536 }
  in
  write_all c.to_srv (Frame.encode "stats") 0;
  let first = next_frame c in
  (c, first, Monotime.now () -. t0)

(* Ask the server to quit; returns (exit code, peak RSS in KiB). *)
let stop c =
  (try
     write_all c.to_srv (Frame.encode "quit") 0;
     ignore (next_frame c)
   with Dropped _ | Unix.Unix_error _ -> ());
  (try Unix.close c.to_srv with Unix.Unix_error _ -> ());
  let r = Proc.reap c.pid in
  (try Unix.close c.from_srv with Unix.Unix_error _ -> ());
  r

type open_result = {
  responses : string option array;  (** [None]: never answered. *)
  latency : float array;  (** Seconds from due to response. *)
  late : float array;  (** Seconds the send ran behind its due time. *)
  backlog_max : int;  (** Most requests outstanding at once. *)
  drain_s : float;  (** From the last due time to the last response. *)
  dropped : string option;
}

(* Open loop: request [i] is handed to the connection at [start +
   items.(i).due] and its latency runs from that due time, so a stall
   is charged to every request that waited behind it. Writes are
   non-blocking and buffered: the client never stops reading responses,
   so a backed-up server cannot deadlock it. Gives up (leaving the rest
   unanswered) when the drain exceeds [drain_limit] seconds. *)
let open_loop c ~drain_limit (items : Stream.item array) =
  let n = Array.length items in
  let responses = Array.make n None in
  let latency = Array.make n nan and late = Array.make n nan in
  let frames = Array.map (fun it -> Frame.encode (Stream.payload it.Stream.req)) items in
  let outbuf = Buffer.create 65536 and out_pos = ref 0 in
  let fifo = Queue.create () in
  let next = ref 0 and received = ref 0 and backlog_max = ref 0 in
  let dropped = ref None in
  Unix.set_nonblock c.to_srv;
  let start = Monotime.now () +. 0.02 in
  let last_due = if n = 0 then start else start +. items.(n - 1).Stream.due in
  let flush_out () =
    let len = Buffer.length outbuf - !out_pos in
    if len > 0 then
      match
        Unix.write_substring c.to_srv (Buffer.contents outbuf) !out_pos len
      with
      | k ->
          out_pos := !out_pos + k;
          if !out_pos = Buffer.length outbuf then begin
            Buffer.clear outbuf;
            out_pos := 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> raise (Dropped (Unix.error_message e))
  in
  (try
     while !received < n do
       let now = Monotime.now () in
       while !next < n && start +. items.(!next).Stream.due <= now do
         let i = !next in
         Buffer.add_string outbuf frames.(i);
         late.(i) <- now -. (start +. items.(i).Stream.due);
         Queue.push i fifo;
         incr next;
         backlog_max := max !backlog_max (!next - !received)
       done;
       flush_out ();
       if now > last_due +. drain_limit then
         raise (Dropped "backlog did not drain");
       let timeout =
         if !next < n then Float.max 0.0 (start +. items.(!next).Stream.due -. now)
         else 0.05
       in
       let want_write = Buffer.length outbuf > !out_pos in
       let readable, _, _ =
         try
           Unix.select [ c.from_srv ] (if want_write then [ c.to_srv ] else []) []
             timeout
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       if readable <> [] then begin
         read_some c;
         let t = Monotime.now () in
         let rec drain () =
           match Frame.next c.dec with
           | Ok (Some p) ->
               let i = Queue.pop fifo in
               responses.(i) <- Some p;
               latency.(i) <- t -. (start +. items.(i).Stream.due);
               incr received;
               drain ()
           | Ok None -> ()
           | Error e -> raise (Dropped e)
         in
         drain ()
       end
     done
   with Dropped why -> dropped := Some why);
  Unix.clear_nonblock c.to_srv;
  {
    responses;
    latency;
    late;
    backlog_max = !backlog_max;
    drain_s = Float.max 0.0 (Monotime.now () -. last_due);
    dropped = !dropped;
  }

(* Closed loop over the same stream: returns responses, per-request
   service times and the wall time of the pass. *)
let closed_loop c (items : Stream.item array) =
  let t0 = Monotime.now () in
  let out =
    Array.map
      (fun it ->
        match roundtrip c (Stream.payload it.Stream.req) with
        | resp, dt -> (Some resp, dt)
        | exception (Dropped _ | Unix.Unix_error _) -> (None, nan))
      items
  in
  (Array.map fst out, Array.map snd out, Monotime.now () -. t0)
