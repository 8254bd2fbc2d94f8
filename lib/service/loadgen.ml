(* The kexd load generator: C client domains drive a server with a weighted
   YCSB-style mix (GET/SET/DEL/UPDATE plus read-modify-write and SCAN) over
   a configurable key space — uniform, Zipfian, or latest-biased key
   choice (Keydist) — record per-request latency, and aggregate with the
   repo's own histogram machinery (Kex_sim.Stats.Hist).  Requests that
   time out or hit a dropped connection count as errors and the client
   reconnects — so a stalled server (k workers killed) shows up as errors
   and collapsed throughput rather than a hung tool.

   Each domain runs one poll-driven loop over [conns_per_client] lanes;
   each lane keeps a window of [pipeline] = W id-tagged requests in flight
   (W = 1 is a window of one) and matches responses by id (they may return
   out of order).  Latency is stamped at *enqueue* — the moment the request
   joins the window, before any socket write — so queueing delay inside
   the window is charged to the request, not hidden.  Lanes are the
   connection-scaling knob: C total connections cost only C/N domains, so
   a sweep can push C to 256 without 256 domains.

   Every request is routed: a single-node run is a fixed one-node table;
   [cluster] seeds switch on the TOPO-bootstrapped, MOVED-following table.

   [wire] selects the framing: the v1 text protocol or the binary v2
   frames — same ops, same semantics, different codec cost.  RMW is a GET
   followed by a SET of the same key, charged as one request whose latency
   spans both legs (the SET inherits the GET's enqueue stamp). *)

module Hist = Kex_sim.Stats.Hist

type config = {
  host : string;
  port : int;
  connections : int;
  duration_s : float;
  mix : (string * int) list;  (* ("get"|"set"|...|"rmw"|"scan", weight) *)
  keys : int;
  dist : Keydist.dist;  (* how ops pick keys from [0, keys) *)
  value_size : int;
  value_size_max : int;  (* > value_size: sizes uniform in the range *)
  scan_len : int;  (* SCAN range length *)
  seed : int;
  timeout_s : float;  (* a socket with requests in flight and no bytes this long fails *)
  pipeline : int;  (* requests in flight per lane *)
  conns_per_client : int;  (* lanes (sockets per node) per client domain *)
  wire : Protocol.wire;
  phase_marks : float list;  (* split [0..duration] for per-phase stats *)
  cluster : string list;  (* seed node addrs; non-empty switches on routing *)
  expect_dead : string list;  (* addrs whose errors are expected (kill-node) *)
}

let default_config =
  { host = "127.0.0.1";
    port = 7070;
    connections = 4;
    duration_s = 5.;
    mix = [ ("get", 80); ("set", 20) ];
    keys = 64;
    dist = Keydist.Uniform;
    value_size = 16;
    value_size_max = 0;
    scan_len = 16;
    seed = 42;
    timeout_s = 2.;
    pipeline = 1;
    conns_per_client = 1;
    wire = Protocol.Text;
    phase_marks = [];
    cluster = [];
    expect_dead = [] }

let op_kinds = [ "get"; "set"; "del"; "update"; "rmw"; "scan" ]
let n_kinds = List.length op_kinds

let parse_mix s =
  let parts = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> (
        match List.rev acc with
        | [] -> Error "empty mix"
        | mix when List.exists (fun (_, w) -> w > 0) mix -> Ok mix
        | _ -> Error "mix weights are all zero")
    | p :: rest -> (
        match String.split_on_char '=' (String.trim p) with
        | [ kind; w ] when List.mem kind op_kinds -> (
            match int_of_string_opt w with
            | Some w when w >= 0 -> go ((kind, w) :: acc) rest
            | _ -> Error (Printf.sprintf "mix %S: bad weight %S" s w))
        | [ kind; _ ] -> Error (Printf.sprintf "mix %S: unknown op %S (use %s)" s kind (String.concat "/" op_kinds))
        | _ -> Error (Printf.sprintf "mix %S: entries look like get=80" s))
  in
  go [] parts

let mix_to_string mix =
  String.concat "," (List.map (fun (k, w) -> Printf.sprintf "%s=%d" k w) mix)

(* ------------------------------- sampling ------------------------------- *)

(* One flat record per request, appended lock-free into per-domain
   buffers: (t_offset_ms, latency_us, op_kind, ok). *)
type samples = {
  mutable t_off_ms : int array;
  mutable lat_us : int array;
  mutable kind : int array;
  mutable ok : bool array;
  mutable len : int;
}

let samples_create () =
  { t_off_ms = Array.make 1024 0;
    lat_us = Array.make 1024 0;
    kind = Array.make 1024 0;
    ok = Array.make 1024 false;
    len = 0 }

let samples_push s ~t_off_ms ~lat_us ~kind ~ok =
  if s.len = Array.length s.t_off_ms then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    s.t_off_ms <- grow s.t_off_ms 0;
    s.lat_us <- grow s.lat_us 0;
    s.kind <- grow s.kind 0;
    s.ok <- grow s.ok false
  end;
  s.t_off_ms.(s.len) <- t_off_ms;
  s.lat_us.(s.len) <- lat_us;
  s.kind.(s.len) <- kind;
  s.ok.(s.len) <- ok;
  s.len <- s.len + 1

(* ------------------------------- the client ----------------------------- *)

(* Reconnect backoff: a refused connect (server down) fails instantly, so
   without a pause a dead server turns the client into a busy loop of
   errors.  The delay starts at 50 ms and doubles to a 2 s cap; any
   successful connect resets it. *)
let backoff_init = 0.05
let backoff_cap = 2.0

(* A request that fails fast on a down socket holds its window slot until
   that socket's pace time, at most this far ahead — so a lane with nothing
   live fails at most one window per pace interval. *)
let pace = 0.05

(* A request may bounce MOVED a few times mid-migration (stale table, then
   a table that is itself flipping); past this it counts as an error. *)
let max_redirects = 3

(* An op kind's position in [op_kinds] — its histogram slot. *)
let kind_index k =
  let rec go i = function [] -> -1 | x :: rest -> if x = k then i else go (i + 1) rest in
  go 0 op_kinds

(* Per-domain generator state: the key sampler plus a pre-rolled random
   blob values are sliced from, so the hot path allocates one string per
   SET instead of running a char-level closure. *)
type gen = { g_rng : Random.State.t; g_kd : Keydist.t; g_blob : string; g_total : int }

let gen_create cfg ~conn_id =
  let rng = Random.State.make [| cfg.seed; conn_id |] in
  let vmax = max cfg.value_size cfg.value_size_max in
  { g_rng = rng;
    g_kd = Keydist.create cfg.dist ~keys:cfg.keys;
    g_blob = String.init (max 1 vmax) (fun _ -> Char.chr (32 + Random.State.int rng 95));
    g_total = List.fold_left (fun acc (_, w) -> acc + w) 0 cfg.mix }

let gen_value cfg g =
  let vmax = max cfg.value_size cfg.value_size_max in
  let len =
    if vmax > cfg.value_size then
      cfg.value_size + Random.State.int g.g_rng (vmax - cfg.value_size + 1)
    else cfg.value_size
  in
  String.sub g.g_blob 0 len

(* A request in flight, or waiting in its lane to be (re-)dispatched:
   enough to route it, re-route it after a MOVED, and launch the RMW write
   leg under the original enqueue stamp. *)
type entry = {
  e_enq_us : int;  (* latency clock: stamped when the request joins the window *)
  e_t_off_ms : int;  (* wall offset into the run, for per-phase stats *)
  e_kind : int;
  e_key : string;  (* what the routing table hashes *)
  e_req : Protocol.request;
  e_rmw : bool;  (* a SET of [e_key] follows this GET *)
  e_redirects : int;
}

let new_entry cfg g ~t0 =
  let roll = Random.State.int g.g_rng g.g_total in
  let rec pick acc = function
    | [] -> assert false
    | (kind, w) :: rest -> if roll < acc + w then kind else pick (acc + w) rest
  in
  let kind = pick 0 cfg.mix in
  let sample_key () = Keydist.key_of_index (Keydist.sample g.g_kd g.g_rng) in
  let key, req =
    match kind with
    | "get" | "rmw" ->
        let k = sample_key () in
        (k, Protocol.Get k)
    | "set" ->
        (* Under the latest-biased distribution a SET is an *insert*: it
           extends the key space by one and becomes the new hot end (YCSB
           workload D's writer).  Other distributions overwrite in place. *)
        let k =
          match cfg.dist with
          | Keydist.Latest ->
              Keydist.advance g.g_kd;
              Keydist.key_of_index (Keydist.newest g.g_kd)
          | _ -> sample_key ()
        in
        (k, Protocol.Set (k, gen_value cfg g))
    | "del" ->
        let k = sample_key () in
        (k, Protocol.Del k)
    | "update" ->
        let k = sample_key () in
        (k, Protocol.Update (k, 1))
    | "scan" ->
        let k = sample_key () in
        (k, Protocol.Scan (k, cfg.scan_len))
    | _ -> assert false
  in
  (* [now_us] is wall-clock microseconds clamped to never step back, so
     the same stamp gives the phase offset. *)
  let enq_us = Metrics.now_us () in
  { e_enq_us = enq_us;
    e_t_off_ms = (enq_us - int_of_float (t0 *. 1e6)) / 1000;
    e_kind = kind_index kind;
    e_key = key;
    e_req = req;
    e_rmw = kind = "rmw";
    e_redirects = 0 }

(* Errors are attributed to the node they were routed to; errors on nodes
   listed in [expect_dead] are additionally counted as *expected* — the
   kill-node experiment's way of asserting "dead shards may time out, but
   surviving shards must not fail". *)
type cluster_stats = {
  mutable cs_redirects : int;  (* MOVED replies followed *)
  mutable cs_expected : int;  (* errors attributed to expect_dead nodes *)
  cs_node_errors : (string, int ref) Hashtbl.t;  (* addr -> error count *)
}

let cluster_stats_create () =
  { cs_redirects = 0; cs_expected = 0; cs_node_errors = Hashtbl.create 8 }

module Routing = Kex_cluster.Routing

(* One TOPO exchange on a throwaway connection (interleaving it into a
   pipelined stream would need its own id bookkeeping for no benefit).
   Returns the table iff the node answered with a complete one. *)
let fetch_topo cfg addr =
  match Netio.connect ~timeout_s:cfg.timeout_s addr with
  | Error _ -> None
  | Ok fd ->
      let out = Buffer.create 64 and buf = Bytes.create 4096 in
      let dec = Protocol.Resp_decoder.create cfg.wire in
      let rec await () =
        match Protocol.Resp_decoder.next dec with
        | Protocol.Dec_frame (_, resp) -> Some resp
        | Protocol.Dec_skip _ | Protocol.Dec_broken _ -> None
        | Protocol.Dec_more -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> None
            | n ->
                Protocol.Resp_decoder.feed_bytes dec buf ~off:0 ~len:n;
                await ())
      in
      let res =
        Protocol.encode_request_wire out cfg.wire ~id:None Protocol.Topo;
        match
          Netio.write_all fd (Buffer.contents out);
          await ()
        with
        | Some (Protocol.Topo_reply (epoch, entries)) when entries <> [] ->
            let shards = List.length entries in
            let owners = Array.make shards "" in
            List.iter (fun (s, a) -> if s >= 0 && s < shards then owners.(s) <- a) entries;
            if Array.exists (fun a -> a = "") owners then None else Some (epoch, entries, owners)
        | _ -> None
        | exception Unix.Unix_error _ -> None
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      res

(* The first complete table any of [addrs] answers with. *)
let rec first_topo cfg = function
  | [] -> None
  | a :: rest -> ( match fetch_topo cfg a with Some _ as t -> t | None -> first_topo cfg rest)

(* The routing table a run starts from: a fixed one-entry table for a
   single-node run; in cluster mode the first seed to answer TOPO, retried
   every 200 ms until [deadline]. *)
let rec initial_routing cfg ~deadline =
  if cfg.cluster = [] then
    Some (Routing.create ~epoch:0 ~owners:[| Printf.sprintf "%s:%d" cfg.host cfg.port |])
  else
    match first_topo cfg cfg.cluster with
    | Some (epoch, _, owners) -> Some (Routing.create ~epoch ~owners)
    | None when Unix.gettimeofday () +. 0.2 < deadline ->
        Thread.delay 0.2;
        initial_routing cfg ~deadline
    | None -> None

(* A response stream out of sync with its window: the socket is lost. *)
exception Desync

(* The client loop, one per domain.  The domain owns [conns_per_client]
   lanes; each lane keeps a window of [pipeline] id-tagged requests in
   flight, spread across nodes, over one socket per node it talks to.
   Every key is routed through an epoch-versioned table: a single-node run
   is a fixed one-entry table for [host:port]; in cluster mode the table
   is bootstrapped with TOPO from any seed, follows MOVED (adopting only
   strictly newer epochs, so it chases at most one redirect per epoch) and
   is refreshed whenever a node stops answering.

   One iteration: top every lane's window up, encoding the new frames into
   per-socket buffers, then ship each buffer as one write; then poll every
   live socket (over preallocated scratch arrays) and drain what arrived
   into one receive buffer.  A socket that closes, desyncs, or has traffic
   in flight and no bytes for [timeout_s] fails: its in-flight requests
   become errors charged from their enqueue, and it backs off before the
   next connect.  Requests routed to it meanwhile fail fast, each holding
   its window slot until the socket's pace time, and the poll's timeout
   stops at the earliest such time: a lane with nothing live errors at a
   bounded rate.  While another of the lane's sockets is answering, held
   slots free at the next round instead: holding them for the pace would
   throttle the surviving nodes to the dead node's error rate (slots that
   release in 50 ms crowd out the ones that cycle in a round trip), so the
   dead node's errors accrue at the pace of the live traffic. *)

type sock = {
  s_addr : string;
  s_lane : lane;
  mutable s_conn : (Unix.file_descr * Protocol.Resp_decoder.t) option;
  s_inflight : (int, entry) Hashtbl.t;  (* request id -> request *)
  s_out : Buffer.t;  (* frames encoded this round, shipped as one write *)
  mutable s_backoff : float;
  mutable s_retry_at : float;  (* no reconnect attempt before this *)
  mutable s_last_rx : float;  (* progress stamp for the request timeout *)
  mutable s_pace_at : float;  (* fast failures here hold their slot until then *)
}

and lane = {
  l_socks : (string, sock) Hashtbl.t;  (* node addr -> this lane's socket *)
  l_pending : entry Queue.t;  (* redirected requests and RMW write legs *)
  mutable l_inflight : int;
  mutable l_held : sock list;  (* one entry per slot held by a fast failure *)
}

let client cfg ~t0 ~conn_id samples cs routing =
  let deadline = t0 +. cfg.duration_s in
  let g = gen_create cfg ~conn_id in
  let buf = Bytes.create 65536 in
  let next_id = ref 0 in
  let lanes =
    Array.init cfg.conns_per_client (fun _ ->
        { l_socks = Hashtbl.create 4; l_pending = Queue.create (); l_inflight = 0; l_held = [] })
  in
  (* Every socket of every lane, and poll's scratch arrays sized to match. *)
  let socks = ref [||] in
  let pfds = ref [||] and pflags = ref [||] and psocks = ref [||] in
  let fixed = cfg.cluster = [] in
  let last_refresh = ref (Unix.gettimeofday ()) in
  (* Re-learn the table from whoever answers — seeds plus every address
     MOVED ever named.  Rate-limited: a dead node triggers this on every
     failure, and one TOPO per 200 ms is plenty to chase a migration. *)
  let refresh () =
    let now = Unix.gettimeofday () in
    if (not fixed) && now -. !last_refresh >= 0.2 then begin
      last_refresh := now;
      let addrs =
        List.sort_uniq compare (cfg.cluster @ Array.to_list (Array.map (fun s -> s.s_addr) !socks))
      in
      match first_topo cfg addrs with
      | Some (epoch, entries, _) -> ignore (Routing.install routing ~epoch ~owners:entries)
      | None -> ()
    end
  in
  let owner ce = Routing.owner routing (Routing.shard_of_key routing ce.e_key) in
  let record ce ~ok =
    samples_push samples ~t_off_ms:ce.e_t_off_ms
      ~lat_us:(Metrics.now_us () - ce.e_enq_us)
      ~kind:ce.e_kind ~ok
  in
  let record_err addr ce =
    record ce ~ok:false;
    (match Hashtbl.find_opt cs.cs_node_errors addr with
    | Some r -> incr r
    | None -> Hashtbl.add cs.cs_node_errors addr (ref 1));
    if List.mem addr cfg.expect_dead then cs.cs_expected <- cs.cs_expected + 1
  in
  (* Charge everything in flight on [s] as errors and close it. *)
  let drop s =
    Hashtbl.iter (fun _ ce -> record_err s.s_addr ce) s.s_inflight;
    s.s_lane.l_inflight <- s.s_lane.l_inflight - Hashtbl.length s.s_inflight;
    Hashtbl.reset s.s_inflight;
    Buffer.clear s.s_out;
    Option.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) s.s_conn;
    s.s_conn <- None
  in
  let back_off s =
    s.s_retry_at <- Unix.gettimeofday () +. s.s_backoff;
    s.s_backoff <- Float.min (s.s_backoff *. 2.) backoff_cap;
    refresh ()
  in
  let fail s =
    drop s;
    back_off s
  in
  let sock_of l addr =
    match Hashtbl.find_opt l.l_socks addr with
    | Some s -> s
    | None ->
        let s =
          { s_addr = addr; s_lane = l; s_conn = None; s_inflight = Hashtbl.create (2 * cfg.pipeline);
            s_out = Buffer.create 1024; s_backoff = backoff_init; s_retry_at = 0.; s_last_rx = 0.;
            s_pace_at = 0. }
        in
        Hashtbl.add l.l_socks addr s;
        socks := Array.append !socks [| s |];
        let n = Array.length !socks in
        pfds := Array.make n Unix.stdin;
        pflags := Array.make n 0;
        psocks := Array.make n s;
        s
  in
  (* Connected, or connectable now; inside the backoff window (or on a
     failed connect) the caller fails the request fast. *)
  let connected s =
    match s.s_conn with
    | Some _ -> true
    | None when Unix.gettimeofday () < s.s_retry_at -> false
    | None -> (
        match Netio.connect ~timeout_s:cfg.timeout_s s.s_addr with
        | Ok fd ->
            s.s_conn <- Some (fd, Protocol.Resp_decoder.create cfg.wire);
            s.s_backoff <- backoff_init;
            true
        | Error _ ->
            back_off s;
            false)
  in
  (* Queue [ce] on its owner's socket; false if it failed fast instead,
     holding its slot. *)
  let dispatch l ce =
    let s = sock_of l (owner ce) in
    if connected s then begin
      let id = !next_id in
      incr next_id;
      (* Going idle -> busy: the no-rx clock starts at this send, not at the
         last response before the idle gap, or a quiet spell would count
         toward the timeout and fail the first request after it. *)
      if Hashtbl.length s.s_inflight = 0 then s.s_last_rx <- Unix.gettimeofday ();
      Hashtbl.replace s.s_inflight id ce;
      l.l_inflight <- l.l_inflight + 1;
      Protocol.encode_request_wire s.s_out cfg.wire ~id:(Some id) ce.e_req;
      true
    end
    else begin
      record_err s.s_addr ce;
      let now = Unix.gettimeofday () in
      if s.s_pace_at <= now then s.s_pace_at <- now +. pace;
      l.l_held <- s :: l.l_held;
      false
    end
  in
  (* A lane is answering while one of its sockets is connected and heard
     from within the last pace interval. *)
  let answering l now =
    Hashtbl.fold (fun _ s acc -> acc || (s.s_conn <> None && now -. s.s_last_rx < pace)) l.l_socks
      false
  in
  (* Top each lane's window up — waiting requests first, then (if [fresh])
     new ones — and ship every socket's frames as one write.  Held slots
     are free again once their socket's pace time has come, or at once
     while the lane is answering. *)
  let fill ~fresh =
    let now = Unix.gettimeofday () in
    Array.iter
      (fun l ->
        if l.l_held <> [] then
          l.l_held <-
            (if answering l now then [] else List.filter (fun s -> now < s.s_pace_at) l.l_held);
        let held = ref (List.length l.l_held) in
        while
          l.l_inflight + !held < cfg.pipeline && (fresh || not (Queue.is_empty l.l_pending))
        do
          let ce = if Queue.is_empty l.l_pending then new_entry cfg g ~t0 else Queue.pop l.l_pending in
          if not (dispatch l ce) then incr held
        done)
      lanes;
    Array.iter
      (fun s ->
        match s.s_conn with
        | Some (fd, _) when Buffer.length s.s_out > 0 -> (
            match Netio.write_all fd (Buffer.contents s.s_out) with
            | () -> Buffer.clear s.s_out
            | exception Unix.Unix_error _ -> fail s)
        | _ -> ())
      !socks
  in
  (* Settle every decoded frame; a malformed, untagged or unknown-id
     response means the stream is out of sync — the socket is lost. *)
  let rec drain s dec =
    match Protocol.Resp_decoder.next dec with
    | Protocol.Dec_more -> ()
    | Protocol.Dec_broken _ | Protocol.Dec_skip _ | Protocol.Dec_frame (None, _) -> raise Desync
    | Protocol.Dec_frame (Some id, resp) ->
        (match Hashtbl.find_opt s.s_inflight id with
        | None -> raise Desync
        | Some ce -> (
            Hashtbl.remove s.s_inflight id;
            let l = s.s_lane in
            l.l_inflight <- l.l_inflight - 1;
            match resp with
            | Protocol.Moved (shard, epoch, addr) ->
                cs.cs_redirects <- cs.cs_redirects + 1;
                if not fixed then ignore (Routing.observe routing ~shard ~epoch ~addr);
                if ce.e_redirects >= max_redirects then record_err s.s_addr ce
                else Queue.add { ce with e_redirects = ce.e_redirects + 1 } l.l_pending
            | Protocol.Error _ -> record_err s.s_addr ce
            | _ when ce.e_rmw ->
                (* Read leg landed: the write leg re-routes through the lane
                   (the shard may have moved meanwhile) under the original
                   enqueue stamp, so one sample spans both legs. *)
                Queue.add
                  { ce with e_rmw = false; e_req = Protocol.Set (ce.e_key, gen_value cfg g) }
                  l.l_pending
            | _ -> record ce ~ok:true));
        drain s dec
  in
  (* Fail the sockets past their request timeout, poll the rest for at most
     20 ms or until the earliest held slot frees (at once on an answering
     lane), and read and settle whatever arrived. *)
  let read_phase () =
    let pfds = !pfds and pflags = !pflags and psocks = !psocks in
    let n = ref 0 in
    let now = Unix.gettimeofday () in
    let wake =
      Array.fold_left
        (fun acc l ->
          if l.l_held = [] then acc
          else if answering l now then now
          else List.fold_left (fun acc s -> Float.min acc s.s_pace_at) acc l.l_held)
        (now +. 0.02) lanes
    in
    let timeout_ms = max 0 (int_of_float (Float.ceil ((wake -. now) *. 1000.))) in
    Array.iter
      (fun s ->
        match s.s_conn with
        | Some _ when Hashtbl.length s.s_inflight > 0 && now -. s.s_last_rx > cfg.timeout_s ->
            fail s
        | Some (fd, _) ->
            pfds.(!n) <- fd;
            pflags.(!n) <- Netio.Poll.pollin;
            psocks.(!n) <- s;
            incr n
        | None -> ())
      !socks;
    if !n = 0 then Thread.delay (float_of_int timeout_ms /. 1000.)
    else begin
      ignore (Netio.Poll.wait pfds pflags ~n:!n ~timeout_ms);
      for i = 0 to !n - 1 do
        let s = psocks.(i) in
        match s.s_conn with
        | Some (fd, dec) when pflags.(i) land (Netio.Poll.pollin lor Netio.Poll.pollerr) <> 0 -> (
            match Netio.read_nb fd buf 0 (Bytes.length buf) with
            | `Data len -> (
                s.s_last_rx <- Unix.gettimeofday ();
                Protocol.Resp_decoder.feed_bytes dec buf ~off:0 ~len;
                try drain s dec with Desync -> fail s)
            | `Would_block -> ()
            | `Eof | (exception Unix.Unix_error _) -> fail s)
        | _ -> ()
      done
    end
  in
  let busy () =
    Array.exists (fun l -> l.l_inflight > 0 || not (Queue.is_empty l.l_pending)) lanes
  in
  while Unix.gettimeofday () < deadline do
    fill ~fresh:true;
    read_phase ()
  done;
  (* Deadline: give responses already on the wire (and the RMW write legs
     and redirects they trigger) one timeout to land, then charge whatever
     never came back as errors. *)
  let drain_deadline = Unix.gettimeofday () +. cfg.timeout_s in
  while busy () && Unix.gettimeofday () < drain_deadline do
    fill ~fresh:false;
    read_phase ()
  done;
  Array.iter (fun l -> Queue.iter (fun ce -> record_err (owner ce) ce) l.l_pending) lanes;
  Array.iter drop !socks

(* ------------------------------ aggregation ----------------------------- *)

type bucket = {
  label : string;
  requests : int;
  errors : int;
  window_s : float;
  p50_us : int;
  p99_us : int;
  max_us : int;
}

type summary = {
  requests : int;
  errors : int;
  wall_s : float;
  throughput_rps : float;
  p50_us : int;
  p99_us : int;
  max_us : int;
  phases : bucket list;
  ops : bucket list;
  redirects : int;  (* MOVED replies followed (cluster mode) *)
  expected_errors : int;  (* errors attributed to expect_dead nodes *)
  node_errors : (string * int) list;  (* addr -> errors (cluster mode) *)
}

let bucket_of label ~window_s hist errors =
  { label;
    requests = Hist.count hist + errors;
    errors;
    window_s;
    p50_us = Hist.percentile hist 0.5;
    p99_us = Hist.percentile hist 0.99;
    max_us = Hist.max_value hist }

(* Aggregation runs entirely on fixed-layout histograms: per-connection data
   lands in per-phase/per-op histograms and every roll-up (op -> phase ->
   total) is an exact bucketwise merge, so percentiles are well-defined and
   independent of how samples were spread over connections — concatenating
   raw sample lists gave the same numbers but O(requests) space and a sort;
   this is O(buckets). *)
let summarize cfg ~wall_s (all : samples list) =
  let total = List.fold_left (fun acc s -> acc + s.len) 0 all in
  let errors = ref 0 in
  let marks = List.sort compare cfg.phase_marks in
  let phase_of_ms ms =
    let rec go i = function
      | [] -> i
      | m :: rest -> if float_of_int ms /. 1000. < m then i else go (i + 1) rest
    in
    go 0 marks
  in
  let n_phases = List.length marks + 1 in
  let phase_hist = Array.init n_phases (fun _ -> Hist.create ()) in
  let phase_errs = Array.make n_phases 0 in
  let op_hist = Array.init n_kinds (fun _ -> Hist.create ()) in
  let op_errs = Array.make n_kinds 0 in
  List.iter
    (fun s ->
      for i = 0 to s.len - 1 do
        let ph = phase_of_ms s.t_off_ms.(i) and k = s.kind.(i) in
        if s.ok.(i) then begin
          Hist.add phase_hist.(ph) s.lat_us.(i);
          Hist.add op_hist.(k) s.lat_us.(i)
        end
        else begin
          incr errors;
          phase_errs.(ph) <- phase_errs.(ph) + 1;
          op_errs.(k) <- op_errs.(k) + 1
        end
      done)
    all;
  let bounds =
    (* phase i spans [lo_i, hi_i) *)
    let lows = 0. :: marks in
    let highs = marks @ [ cfg.duration_s ] in
    List.combine lows highs
  in
  let phases =
    List.mapi
      (fun i (lo, hi) ->
        bucket_of
          (Printf.sprintf "%g-%gs" lo hi)
          ~window_s:(hi -. lo) phase_hist.(i) phase_errs.(i))
      bounds
  in
  let ops =
    List.filteri (fun i _ -> Hist.count op_hist.(i) > 0 || op_errs.(i) > 0) op_kinds
    |> List.map (fun kind ->
           let i = kind_index kind in
           bucket_of kind ~window_s:wall_s op_hist.(i) op_errs.(i))
  in
  let all_hist = Hist.merge (Array.to_list phase_hist) in
  { requests = total;
    errors = !errors;
    wall_s;
    throughput_rps = (if wall_s > 0. then float_of_int total /. wall_s else 0.);
    p50_us = Hist.percentile all_hist 0.5;
    p99_us = Hist.percentile all_hist 0.99;
    max_us = Hist.max_value all_hist;
    phases;
    ops;
    redirects = 0;
    expected_errors = 0;
    node_errors = [] }

let run cfg =
  if cfg.pipeline < 1 then invalid_arg "Loadgen.run: pipeline must be positive";
  if cfg.conns_per_client < 1 then
    invalid_arg "Loadgen.run: conns_per_client must be positive";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t0 = Unix.gettimeofday () in
  let samples = List.init cfg.connections (fun _ -> samples_create ()) in
  let cstats = List.init cfg.connections (fun _ -> cluster_stats_create ()) in
  let domains =
    List.mapi
      (fun conn_id (s, cs) ->
        Domain.spawn (fun () ->
            (* A cluster run no seed ever answers records no requests. *)
            Option.iter (client cfg ~t0 ~conn_id s cs)
              (initial_routing cfg ~deadline:(t0 +. cfg.duration_s))))
      (List.combine samples cstats)
  in
  List.iter Domain.join domains;
  let wall_s = Unix.gettimeofday () -. t0 in
  let node_errors = Hashtbl.create 8 in
  List.iter
    (fun cs ->
      Hashtbl.iter
        (fun addr r ->
          match Hashtbl.find_opt node_errors addr with
          | Some acc -> acc := !acc + !r
          | None -> Hashtbl.add node_errors addr (ref !r))
        cs.cs_node_errors)
    cstats;
  { (summarize cfg ~wall_s samples) with
    redirects = List.fold_left (fun acc cs -> acc + cs.cs_redirects) 0 cstats;
    expected_errors = List.fold_left (fun acc cs -> acc + cs.cs_expected) 0 cstats;
    node_errors =
      List.sort compare (Hashtbl.fold (fun a r acc -> (a, !r) :: acc) node_errors []) }

(* ------------------------------ reporting ------------------------------- *)

let bucket_json b =
  Json.Obj
    [ ("label", Json.String b.label);
      ("requests", Json.Int b.requests);
      ("errors", Json.Int b.errors);
      ("throughput_rps",
       Json.Float (if b.window_s > 0. then float_of_int b.requests /. b.window_s else 0.));
      ("p50_us", Json.Int b.p50_us);
      ("p99_us", Json.Int b.p99_us);
      ("max_us", Json.Int b.max_us) ]

let summary_json s =
  Json.Obj
    [ ("requests", Json.Int s.requests);
      ("errors", Json.Int s.errors);
      ("expected_errors", Json.Int s.expected_errors);
      ("redirects", Json.Int s.redirects);
      ("wall_s", Json.Float s.wall_s);
      ("throughput_rps", Json.Float s.throughput_rps);
      ( "latency_us",
        Json.Obj
          [ ("p50", Json.Int s.p50_us); ("p99", Json.Int s.p99_us);
            ("max", Json.Int s.max_us) ] ) ]

let to_json cfg s =
  Json.Obj
    ([ ("schema", Json.String "kexclusion-serve/v6") ]
    @ Provenance.fields ()
    @ [ ( "config",
        Json.Obj
          [ ("host", Json.String cfg.host);
            ("port", Json.Int cfg.port);
            ("connections", Json.Int cfg.connections);
            ("duration_s", Json.Float cfg.duration_s);
            ("mix", Json.String (mix_to_string cfg.mix));
            ("keys", Json.Int cfg.keys);
            ("dist", Json.String (Keydist.dist_name cfg.dist));
            ("value_size", Json.Int cfg.value_size);
            ("value_size_max", Json.Int (max cfg.value_size cfg.value_size_max));
            ("scan_len", Json.Int cfg.scan_len);
            ("wire", Json.String (Protocol.wire_name cfg.wire));
            ("seed", Json.Int cfg.seed);
            ("pipeline", Json.Int cfg.pipeline);
            ("conns_per_client", Json.Int cfg.conns_per_client);
            ("cluster", Json.List (List.map (fun a -> Json.String a) cfg.cluster));
            ("expect_dead", Json.List (List.map (fun a -> Json.String a) cfg.expect_dead)) ] );
      ("totals", summary_json s);
      ("phases", Json.List (List.map bucket_json s.phases));
      ("ops", Json.List (List.map bucket_json s.ops));
      ( "node_errors",
        Json.List
          (List.map
             (fun (addr, n) ->
               Json.Obj [ ("addr", Json.String addr); ("errors", Json.Int n) ])
             s.node_errors) ) ])

let emit_json ~file cfg s = Json.to_file file (to_json cfg s)

let pp_summary ppf s =
  Format.fprintf ppf "requests   : %d (%.0f req/s, %d errors)@." s.requests s.throughput_rps
    s.errors;
  Format.fprintf ppf "latency    : p50 %d us, p99 %d us, max %d us@." s.p50_us s.p99_us s.max_us;
  if s.redirects > 0 || s.expected_errors > 0 then
    Format.fprintf ppf "cluster    : %d redirects followed, %d expected errors@." s.redirects
      s.expected_errors;
  List.iter
    (fun (addr, n) -> Format.fprintf ppf "  node %-21s %6d errors@." addr n)
    s.node_errors;
  if List.length s.phases > 1 then
    List.iter
      (fun b ->
        Format.fprintf ppf "  phase %-10s %6d req %5d err  %8.0f req/s  p50 %6d  p99 %6d us@."
          b.label b.requests b.errors
          (if b.window_s > 0. then float_of_int b.requests /. b.window_s else 0.)
          b.p50_us b.p99_us)
      s.phases;
  List.iter
    (fun b ->
      Format.fprintf ppf "  op %-8s %9d req %5d err  p50 %6d  p99 %6d  max %6d us@." b.label
        b.requests b.errors b.p50_us b.p99_us b.max_us)
    s.ops
