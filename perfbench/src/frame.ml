(* The `bcdb serve` framing, in both directions: the payload's byte
   length in ASCII decimal, '\n', then the payload. *)

let encode payload = string_of_int (String.length payload) ^ "\n" ^ payload

(* Longest length line accepted before the stream is declared garbage:
   the server refuses frames above 16 MiB, whose length has 8 digits. *)
let max_len_digits = 10

(* An incremental decoder: bytes arrive in arbitrary chunks, complete
   frames come out in order. *)
type decoder = { buf : Buffer.t; mutable pos : int }

let decoder () = { buf = Buffer.create 4096; pos = 0 }

let feed d bytes off len =
  (* Drop the consumed prefix once it dominates the buffer. *)
  if d.pos > 0 && d.pos * 2 > Buffer.length d.buf then begin
    let rest = Buffer.sub d.buf d.pos (Buffer.length d.buf - d.pos) in
    Buffer.clear d.buf;
    Buffer.add_string d.buf rest;
    d.pos <- 0
  end;
  Buffer.add_subbytes d.buf bytes off len

let feed_string d s = feed d (Bytes.unsafe_of_string s) 0 (String.length s)

(* [Ok (Some payload)] for the next complete frame, [Ok None] when more
   bytes are needed, [Error] when the stream is not framed. *)
let next d =
  let avail = Buffer.length d.buf - d.pos in
  let rec find_nl i =
    if i >= Buffer.length d.buf then None
    else if Buffer.nth d.buf i = '\n' then Some i
    else find_nl (i + 1)
  in
  match find_nl d.pos with
  | None ->
      if avail > max_len_digits then Error "unterminated frame length"
      else Ok None
  | Some nl -> (
      let line = Buffer.sub d.buf d.pos (nl - d.pos) in
      match int_of_string_opt (String.trim line) with
      | None -> Error (Printf.sprintf "bad frame length %S" line)
      | Some n when n < 0 -> Error (Printf.sprintf "bad frame length %d" n)
      | Some n ->
          if Buffer.length d.buf - (nl + 1) < n then Ok None
          else begin
            d.pos <- nl + 1 + n;
            Ok (Some (Buffer.sub d.buf (nl + 1) n))
          end)

(* The first line of a response payload: `STATUS CODE`. *)
let status payload =
  match String.index_opt payload '\n' with
  | Some i -> String.sub payload 0 i
  | None -> payload
