(* One client connection driven closed-loop: a fixed window of id-tagged
   requests, a slot reused only after its reply arrives.  Each request is
   timed from when it enters the window to when its reply is decoded; the
   latency goes into a preallocated store (exact, no histogram buckets).

   With tracing on, each completed request, up to a quota per traced
   slice, also leaves one span record:
   enter, encoded, written, read (the chunk holding its reply arrived),
   decode start and decode end — all keyed by the request's sequence
   number, so encode/write/wait/decode spans of one request share an id. *)

module P = Kex_service.Protocol

let span_fields = 6

type t = {
  w : Workload.t;
  gen : Workload.gen;
  fd : Unix.file_descr;
  dec : P.Resp_decoder.t;
  out : Buffer.t;
  rbuf : Bytes.t;
  (* Per window slot: the operation in flight and its stamps. *)
  s_kind : int array;
  s_idx : int array;
  s_delta : int array;
  s_enter : int array;
  s_encoded : int array;
  s_written : int array;
  s_busy : bool array;
  mutable inflight : int;
  (* Timed-window results. *)
  reads : Util.samples;
  mutable n_reads : int;
  writes : Util.samples;
  mutable n_writes : int;
  cap : int;
  mutable completed : int;  (* replies decoded inside the window *)
  (* The window is cut into equal slices; mark.(j) holds the counts at
     the start of slice j, so slice j's samples are [mark.(j), mark.(j+1)). *)
  slice_ns : int;
  mark_reads : int array;
  mark_writes : int array;
  mark_completed : int array;
  mutable slice : int;
  mutable bytes : int;  (* bytes written + read inside the window *)
  (* Whole-run accounting. *)
  mutable attempted : int;
  mutable failed : int;
  mutable violations : int;
  mutable first_violation : string option;
  acked : int array;  (* acknowledged UPDATE deltas per key index *)
  (* Tracing: spans of requests completed while [tracing]. *)
  mutable tracing : bool;
  spans : Util.samples;
  span_cap : int;
  span_quota : int;  (* spans per traced slice, so every one is sampled *)
  mutable n_spans : int;
}

let create w ~seed ~lane ~fd ~seconds ~slices ~trace_cap =
  (* Far above what one connection can complete on this server shape. *)
  let cap = (int_of_float (Float.ceil seconds) * 600_000) + 1024 in
  { w;
    gen = Workload.gen w ~seed ~lane;
    fd;
    dec = P.Resp_decoder.create w.Workload.wire;
    out = Buffer.create 4096;
    rbuf = Bytes.create 65536;
    s_kind = Array.make Workload.window 0;
    s_idx = Array.make Workload.window 0;
    s_delta = Array.make Workload.window 0;
    s_enter = Array.make Workload.window 0;
    s_encoded = Array.make Workload.window 0;
    s_written = Array.make Workload.window 0;
    s_busy = Array.make Workload.window false;
    inflight = 0;
    reads = Util.samples cap;
    n_reads = 0;
    writes = Util.samples cap;
    n_writes = 0;
    cap;
    completed = 0;
    slice_ns = int_of_float (seconds *. 1e9) / slices;
    mark_reads = Array.make (slices + 1) 0;
    mark_writes = Array.make (slices + 1) 0;
    mark_completed = Array.make (slices + 1) 0;
    slice = 0;
    bytes = 0;
    attempted = 0;
    failed = 0;
    violations = 0;
    first_violation = None;
    acked = (if Workload.has_counters w then Array.make w.Workload.keys 0 else [||]);
    tracing = false;
    spans = Util.samples (trace_cap * span_fields);
    span_cap = trace_cap;
    span_quota = trace_cap / max 1 (slices / 2);
    n_spans = 0 }

let violation t msg =
  t.violations <- t.violations + 1;
  if t.first_violation = None then t.first_violation <- Some msg

(* The lane's correctness violations, as one error line. *)
let violations t =
  Option.map (Printf.sprintf "%d violation(s), first: %s" t.violations) t.first_violation

(* Fill every free slot with a fresh request; all of them go out in one
   write. *)
let issue t =
  let now = Util.now_ns () in
  for s = 0 to Workload.window - 1 do
    if not t.s_busy.(s) then begin
      let g = t.gen in
      Workload.next g;
      t.s_kind.(s) <- g.Workload.kind;
      t.s_idx.(s) <- g.Workload.idx;
      t.s_delta.(s) <- g.Workload.delta;
      t.s_enter.(s) <- (if t.tracing then Util.now_ns () else now);
      P.encode_request_wire t.out t.w.Workload.wire ~id:(Some s) (Workload.request g);
      if t.tracing then t.s_encoded.(s) <- Util.now_ns ();
      t.s_busy.(s) <- true;
      t.inflight <- t.inflight + 1;
      t.attempted <- t.attempted + 1
    end
  done

let flush t ~in_window =
  let s = Buffer.contents t.out in
  Buffer.clear t.out;
  Kex_service.Netio.write_all t.fd s;
  if in_window then t.bytes <- t.bytes + String.length s;
  if t.tracing then begin
    let now = Util.now_ns () in
    for s = 0 to Workload.window - 1 do
      if t.s_busy.(s) && t.s_written.(s) < t.s_encoded.(s) then t.s_written.(s) <- now
    done
  end

(* Store one latency; a full store is reported, never overrun. *)
let record t store n lat =
  if n < t.cap then begin
    Bigarray.Array1.unsafe_set store n lat;
    true
  end
  else begin
    violation t "latency store full";
    false
  end

(* Close every slice before [j]: they start no later than the counts now. *)
let mark_until t j =
  let j = min j (Array.length t.mark_completed - 1) in
  while t.slice < j do
    t.slice <- t.slice + 1;
    t.mark_reads.(t.slice) <- t.n_reads;
    t.mark_writes.(t.slice) <- t.n_writes;
    t.mark_completed.(t.slice) <- t.completed
  done

(* Check one reply against its request and account for it. *)
let complete t s (resp : P.response) ~now ~t_win ~t_end ~read_at ~dec_start =
  let kind = t.s_kind.(s) and i = t.s_idx.(s) in
  let failed =
    match resp with
    | P.Error _ -> true
    | P.Value (Some v) when kind = Workload.kind_get ->
        if not (Workload.value_encodes_key v i) then
          violation t (Printf.sprintf "GET %s returned %S" (Workload.key_of_index i) v);
        false
    | P.Ok when kind = Workload.kind_set -> false
    | P.Int _ when kind = Workload.kind_update ->
        t.acked.(i) <- t.acked.(i) + t.s_delta.(s);
        false
    | r ->
        violation t
          (Printf.sprintf "op %d on %s answered %s" kind (Workload.key_of_index i)
             (P.print_response r));
        false
  in
  if failed then t.failed <- t.failed + 1
  else if now >= t_win && now < t_end then begin
    mark_until t ((now - t_win) / t.slice_ns);
    let lat = now - t.s_enter.(s) in
    if kind = Workload.kind_get then begin
      if record t t.reads t.n_reads lat then t.n_reads <- t.n_reads + 1
    end
    else if record t t.writes t.n_writes lat then t.n_writes <- t.n_writes + 1;
    t.completed <- t.completed + 1;
    if t.tracing
       && t.n_spans < min t.span_cap (t.span_quota * ((t.slice / 2) + 1))
       && t.s_encoded.(s) >= t.s_enter.(s)
    then begin
      let b = t.n_spans * span_fields in
      let put j v = Bigarray.Array1.unsafe_set t.spans (b + j) v in
      put 0 t.s_enter.(s);
      put 1 t.s_encoded.(s);
      put 2 t.s_written.(s);
      put 3 read_at;
      put 4 dec_start;
      put 5 now;
      t.n_spans <- t.n_spans + 1
    end
  end;
  t.s_busy.(s) <- false;
  t.inflight <- t.inflight - 1

exception Lost of string

(* Read one chunk and complete every reply in it. *)
let receive t ~t_win ~t_end ~in_window =
  let n =
    match Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) with
    | n -> n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise (Lost "reply timeout")
    | exception Unix.Unix_error (e, _, _) -> raise (Lost (Unix.error_message e))
  in
  if n = 0 then raise (Lost "connection closed by server");
  let read_at = Util.now_ns () in
  if in_window then t.bytes <- t.bytes + n;
  P.Resp_decoder.feed_bytes t.dec t.rbuf ~off:0 ~len:n;
  let rec drain () =
    let dec_start = if t.tracing then Util.now_ns () else read_at in
    match P.Resp_decoder.next t.dec with
    | P.Dec_more -> ()
    | P.Dec_frame (Some s, resp) when s >= 0 && s < Workload.window && t.s_busy.(s) ->
        complete t s resp ~now:(Util.now_ns ()) ~t_win ~t_end ~read_at ~dec_start;
        drain ()
    | P.Dec_frame (_, r) -> raise (Lost ("unmatched reply " ^ P.print_response r))
    | P.Dec_skip (_, msg) | P.Dec_broken msg -> raise (Lost ("undecodable reply: " ^ msg))
  in
  drain ()

(* Drive the connection until [t_end] (ns), recording the window
   [t_win, t_end) and, with [trace], tracing its odd-numbered slices;
   [tick] runs between reads (the benchmark's scheduled STATS scrapes and
   kills).  Then drain the requests still in flight. *)
let run t ~t_win ~t_end ~trace ~tick =
  match
    while Util.now_ns () < t_end do
      let now = Util.now_ns () in
      t.tracing <- trace && now >= t_win && ((now - t_win) / t.slice_ns) land 1 = 1;
      issue t;
      flush t ~in_window:(now >= t_win);
      receive t ~t_win ~t_end ~in_window:(now >= t_win);
      tick ()
    done;
    t.tracing <- false;
    mark_until t max_int;
    tick ();
    while t.inflight > 0 do
      receive t ~t_win ~t_end ~in_window:false
    done
  with
  | () -> ()
  | exception Lost msg ->
      mark_until t max_int;
      t.failed <- t.failed + t.inflight;
      t.inflight <- 0;
      violation t ("connection lost: " ^ msg)
