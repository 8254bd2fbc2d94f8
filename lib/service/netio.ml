(* Signal-robust socket writes, shared by the server and the load
   generator.  Chaos schedules raise signal traffic, and a [Unix.write] on a
   blocking socket can then (a) fail with [EINTR] before moving any bytes,
   (b) return a short count, or (c) — when the fd carries a send timeout or
   O_NONBLOCK — fail with [EAGAIN]/[EWOULDBLOCK].  A caller that treats any
   of those as fatal desyncs the frame stream mid-write: the peer sees a
   length header whose payload never arrives.  So all three cases retry
   here, from the current offset, until the buffer is fully on the wire. *)

let write_all fd s =
  let len = String.length s in
  let bytes = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then
      match Unix.write fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* Wait until the socket drains; select itself may be interrupted. *)
          (try ignore (Unix.select [] [ fd ] [] 1.0) with
          | Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go off
  in
  go 0

(* [Unix.read] with the same robustness as [write_all]: EINTR retries, and
   EAGAIN/EWOULDBLOCK (a receive timeout or nonblocking fd) waits for
   readability and retries.  The asymmetry used to be a real bug — a
   SO_RCVTIMEO expiry inside the server's frame reader surfaced as a fatal
   error and tore down the connection mid-stream, where the matching write
   path would have quietly waited and resumed.

   Without [?deadline] the wait is a single open-ended select rather than
   the historical fixed 1s slice-and-retry, so a shutdown that closes the
   peer no longer quantizes to whole seconds.  With [~deadline] (an
   absolute [Unix.gettimeofday] instant) the wait is bounded: once the
   deadline passes, the EAGAIN that interrupted us is re-raised so the
   caller sees an ordinary would-block surface. *)
let rec read ?deadline fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ?deadline fd buf off len
  | exception (Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) as e) ->
      let timeout =
        match deadline with
        | None -> -1.0 (* negative select timeout = wait indefinitely *)
        | Some d ->
            let remaining = d -. Unix.gettimeofday () in
            if remaining <= 0. then raise e else remaining
      in
      (try ignore (Unix.select [ fd ] [] [] timeout) with
      | Unix.Unix_error (Unix.EINTR, _, _) -> ());
      read ?deadline fd buf off len

(* Nonblocking single-shot variants for reactor loops: readiness is the
   event loop's job, so would-block returns instead of waiting. *)
let rec read_nb fd buf off len =
  match Unix.read fd buf off len with
  | 0 -> `Eof
  | n -> `Data n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_nb fd buf off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Would_block

let rec write_nb fd buf off len =
  match Unix.write fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_nb fd buf off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0

(* Node addresses ("host:port") and the one connect routine the load
   generator and the server's node-to-node RPC share.  The host may be a
   name: it goes through getaddrinfo, so "localhost:7070" works.  Every
   failure — bad syntax, an unresolvable name, a refused connect — comes
   back as [Error] naming the address; nothing here raises. *)
let parse_addr addr =
  let bad why = Error (Printf.sprintf "bad node address %S (%s)" addr why) in
  match String.rindex_opt addr ':' with
  | None -> bad "want host:port"
  | Some 0 -> bad "empty host"
  | Some i -> (
      let port = String.sub addr (i + 1) (String.length addr - i - 1) in
      let decimal =
        port <> "" && String.length port <= 5 && String.for_all (fun c -> '0' <= c && c <= '9') port
      in
      match if decimal then int_of_string port else 0 with
      | p when p > 0 && p < 65536 -> Ok (String.sub addr 0 i, p)
      | _ -> bad "port must be 1-65535")

let connect ~timeout_s addr =
  let failed e = Error (Printf.sprintf "connect %s: %s" addr (Unix.error_message e)) in
  let open_one ai =
    match Unix.socket ai.Unix.ai_family Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error (e, _, _) -> failed e
    | fd -> (
        match
          (try
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
             Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          Unix.connect fd ai.Unix.ai_addr
        with
        | () -> Ok fd
        | exception Unix.Unix_error (e, _, _) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            failed e)
  in
  match parse_addr addr with
  | Error _ as e -> e
  | Ok (host, port) -> (
      (* IPv4 only, like the server's listening socket. *)
      match
        Unix.getaddrinfo host (string_of_int port)
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with
      | [] -> Error (Printf.sprintf "cannot resolve host %S in %S" host addr)
      | ais ->
          List.fold_left
            (fun acc ai -> match acc with Ok _ -> acc | Error _ -> open_one ai)
            (Error "") ais
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "resolve %s: %s" addr (Unix.error_message e)))

(* poll(2), which [Unix] does not bind.  A reactor watching hundreds of
   sockets cannot afford select's FD_SETSIZE ceiling or its O(highest-fd)
   kernel scan per call; poll is flat arrays in, flat arrays out, which is
   also what lets the OCaml side reuse its buffers across loop iterations
   with zero per-cycle allocation. *)
module Poll = struct
  let pollin = 1
  let pollout = 2
  let pollerr = 4

  external poll_fds : Unix.file_descr array -> int array -> int -> int -> int
    = "kex_service_poll"

  let wait fds flags ~n ~timeout_ms = poll_fds fds flags n timeout_ms
end
