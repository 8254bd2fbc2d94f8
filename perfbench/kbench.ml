(* Benchmark of `kexd serve`: one workload per invocation.

     kbench.exe --workload NAME --seed N --seconds S --trace 0|1

   A run sets the server up in its own child process (`kbench.exe serve
   NAME`: Server.start with `kexd serve`'s defaults at the headline shape,
   then Server.preload of the workload's keyspace) [rounds] times, plus a
   few set-ups that serve nothing.  Each round drives its server from this
   process with two closed-loop connections for a third of the timed
   window, then reads the store back and checks it.  The window is cut
   into half-second slices; each gated number is the median over every
   slice of every round, so a stall on the shared host spoils a few slices
   but not the result.  Latency is gated at p50 and p90: p99 and deeper,
   with their sample counts, are in the record but swing too far between
   identical runs to gate.  The last stdout line is the result object; the
   line before it is the run's full record.

   With --trace 1 one round runs instead, tracing every other slice of
   its window (the traced slices' throughput against the untraced ones'
   is the tracing overhead), and the per-layer metrics come from STATS
   counter deltas over the window, the traced slices' client spans, and a
   replay of the workload's operations through the server layers' public
   functions ({!Replay}). *)

module P = Kex_service.Protocol
module Server = Kex_service.Server
module J = Kex_service.Json

let rounds = 3

(* Set-ups that serve no traffic, on top of one per round: set-up time
   is a median over all of them.  A 10k-key set-up takes 40-110 ms, so its
   median needs many samples to settle; probing stops early once it has
   taken [probe_budget_s], so a slow set-up (1M keys: ~3 s) gets fewer. *)
let setup_probes = 60
let probe_budget_s = 5.0
let warmup_s = 0.5
let slice_s = 0.5
let trace_cap = 10_000  (* span records kept per connection *)

(* ------------------------------ server child ------------------------------ *)

let serve (w : Workload.t) =
  let t_main = Util.now_ns () in
  let cfg =
    { Server.default_config with
      Server.port = 0;
      workers = Workload.workers;
      k = Workload.k;
      shards = Workload.shards;
      algo = Kex_runtime.Kex_lock.Fast_path;
      wait_free_reads = true;
      reactors = Workload.reactors }
  in
  let t = Server.start cfg in
  let t_started = Util.now_ns () in
  Server.preload t (Seq.init w.Workload.keys (Workload.preload_binding w));
  (* The monotonic clock is shared with the parent, which splits its
     set-up time at these stamps. *)
  Printf.printf "READY %d %d %d %d\n%!" (Server.port t) t_main t_started (Util.now_ns ());
  (* The parent closes our stdin to stop us — or dies, which does the same. *)
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  Server.stop ~drain_timeout_s:5.0 t

type child = {
  pid : int;
  stdin_w : Unix.file_descr;
  port : int;
  stamps : int * int * int;  (* child clock: main entered, started, preloaded *)
}

let spawn_server (w : Workload.t) =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "serve"; w.Workload.name |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let ready, _, _ = Unix.select [ out_r ] [] [] 120.0 in
  let line =
    if ready = [] then None
    else
      let b = Bytes.create 64 in
      let n = Unix.read out_r b 0 64 in
      Some (Bytes.sub_string b 0 n)
  in
  Unix.close out_r;
  match
    Option.bind line (fun l -> Scanf.sscanf_opt l "READY %d %d %d %d" (fun p a b c -> (p, (a, b, c))))
  with
  | Some (port, stamps) -> { pid; stdin_w = in_w; port; stamps }
  | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith "server child did not come up"

let stop_server c =
  Unix.close c.stdin_w;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill c.pid Sys.sigkill;
        ignore (Unix.waitpid [] c.pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  wait ()

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* A reply this late counts the request as failed (timeout). *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

(* ------------------------------ idle spinners ----------------------------- *)

(* One `kbench.exe spin` per CPU while a window is timed: a spin-wait loop
   at SCHED_IDLE priority that runs only when nothing else wants the CPU
   and yields to any waking thread at once, so the virtual CPUs never halt.
   Waking a halted vCPU goes through the host's scheduler, whose delay on
   shared hosts varies from minute to minute and swung closed-loop
   throughput by 2x between identical runs.  Outside the timed windows the
   spinners are stopped (SIGSTOP): left running through set-up they made a
   10k-key preload take either ~40 ms or 100-180 ms, where without them it
   takes a steady ~60 ms. *)
type spinners = { spin_pids : int list; requested : int }

let sched_idle = 5  (* policy number, as in field 41 of /proc/<pid>/stat *)

(* Start the spinners and keep those that reached SCHED_IDLE; a spinner
   that could not lower its priority exits at once. *)
let spinners_start () =
  let exe = Sys.executable_name in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let requested = Domain.recommended_domain_count () in
  let pids = List.init requested (fun _ -> Unix.create_process exe [| exe; "spin" |] null null null) in
  Unix.close null;
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec settled pid =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when (try Util.proc_stat pid 41 = sched_idle with Sys_error _ | Failure _ -> false) -> true
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        settled pid
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        false
    | _ -> false
  in
  let spin_pids = List.filter settled pids in
  List.iter (fun pid -> Unix.kill pid Sys.sigstop) spin_pids;
  if List.length spin_pids < requested then
    Printf.eprintf "kbench: only %d of %d idle spinners active\n%!" (List.length spin_pids) requested;
  { spin_pids; requested }

let spinning sp on = List.iter (fun pid -> Unix.kill pid (if on then Sys.sigcont else Sys.sigstop)) sp.spin_pids

let spinners_stop sp =
  List.iter (fun pid -> Unix.kill pid Sys.sigkill) sp.spin_pids;
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) sp.spin_pids

(* --------------------------- admin connection ----------------------------- *)

type admin = { afd : Unix.file_descr; adec : P.Resp_decoder.t; abuf : Bytes.t }

let admin port = { afd = connect port; adec = P.Resp_decoder.create P.Binary; abuf = Bytes.create 65536 }

let call a req =
  let b = Buffer.create 64 in
  P.encode_request_wire b P.Binary ~id:None req;
  Kex_service.Netio.write_all a.afd (Buffer.contents b);
  let rec await () =
    match P.Resp_decoder.next a.adec with
    | P.Dec_frame (_, r) -> r
    | P.Dec_more ->
        let n = Unix.read a.afd a.abuf 0 (Bytes.length a.abuf) in
        if n = 0 then failwith "admin connection closed";
        P.Resp_decoder.feed_bytes a.adec a.abuf ~off:0 ~len:n;
        await ()
    | P.Dec_skip (_, m) | P.Dec_broken m -> failwith ("admin reply: " ^ m)
  in
  await ()

let stats a = match call a P.Stats with P.Stats_reply l -> l | _ -> failwith "STATS reply"
let stat l k = Option.value (List.assoc_opt k l) ~default:0

(* ------------------------------ correctness ------------------------------- *)

(* Read the whole store back through SCAN: every key present exactly
   once, every value naming its key, and every counter equal to its
   preload plus the UPDATE deltas the server acknowledged. *)
let check_store a (w : Workload.t) (lanes : Lane.t list) =
  let errors = ref [] in
  let err m = if List.length !errors < 5 then errors := m :: !errors in
  let next = ref 0 and seen = ref 0 and counter_sum = ref 0 and expected_sum = ref 0 in
  while !next < w.keys do
    match call a (P.Scan (Workload.key_of_index !next, 4096)) with
    | P.Range [] -> next := w.keys
    | P.Range pairs ->
        List.iter
          (fun (key, v) ->
            match Workload.index_of_key key with
            | Some i when i = !next && i < w.keys ->
                incr seen;
                next := i + 1;
                if Workload.is_counter w i then begin
                  let want =
                    Workload.preload_counter i
                    + List.fold_left (fun s (l : Lane.t) -> s + l.acked.(i)) 0 lanes
                  in
                  let got = Option.value (int_of_string_opt v) ~default:min_int in
                  counter_sum := !counter_sum + got;
                  expected_sum := !expected_sum + want;
                  if got <> want then err (Printf.sprintf "counter %s = %s, want %d" key v want)
                end
                else if not (Workload.value_encodes_key v i) then
                  err (Printf.sprintf "value of %s is %S" key v)
            | _ ->
                err (Printf.sprintf "unexpected key %S after %d" key !next);
                next := w.keys)
          pairs
    | r ->
        err ("SCAN answered " ^ P.print_response r);
        next := w.keys
  done;
  if !seen <> w.keys then err (Printf.sprintf "read back %d keys of %d" !seen w.keys);
  if !counter_sum <> !expected_sum then
    err (Printf.sprintf "counter sum %d, want %d" !counter_sum !expected_sum);
  List.rev !errors

(* ---------------------------------- round --------------------------------- *)

(* One set-up, in phases: process spawn until the child's main runs,
   Server.start, preload, and the first PING's round trip. *)
type setup = { total_s : float; spawn_s : float; start_s : float; preload_s : float; ping_s : float }

type snap = { s_at : int; s_stats : (string * int) list; s_srv_cpu : float; s_cli_cpu : float }

(* One slice of a round's timed window. *)
type slice = {
  rps : float;
  read_us : float array;  (* at [slice_quantiles] *)
  write_us : float array;
  cpu_us_per_op : float;  (* server CPU *)
  steal : float;  (* share of the host's CPU time the hypervisor withheld *)
}

let slice_quantiles = [| 0.50; 0.90; 0.99 |]

type round = {
  setup : setup;
  window_s : float;
  lanes : Lane.t list;
  reads : int array;  (* sorted latencies over the window, ns *)
  writes : int array;
  slices : slice list;
  s0 : snap;
  s1 : snap;
  final : (string * int) list;  (* STATS after the drain *)
  rss_mb : float;
  errors : string list;
  check_s : float;  (* time the read-back check took *)
}

(* A measured number; [nan] (nothing to measure) prints as null. *)
let num x = if Float.is_finite x then J.Float x else J.Null

let pct sorted q = Util.percentile sorted q /. 1e3

let slice_of lanes ~slice_s ~cpu ~host j =
  let sum f = List.fold_left (fun a (l : Lane.t) -> a + f l) 0 lanes in
  let done_ = sum (fun l -> l.mark_completed.(j + 1) - l.mark_completed.(j)) in
  let quantiles store marks =
    let sorted =
      Util.sorted_of
        (List.map
           (fun (l : Lane.t) -> ((store l : Util.samples), (marks l).(j), (marks l).(j + 1)))
           lanes)
    in
    Array.map (pct sorted) slice_quantiles
  in
  let (st0, tot0), (st1, tot1) = (host.(j), host.(j + 1)) in
  { rps = float_of_int done_ /. slice_s;
    read_us = quantiles (fun l -> l.reads) (fun l -> l.mark_reads);
    write_us = quantiles (fun l -> l.writes) (fun l -> l.mark_writes);
    cpu_us_per_op = (cpu.(j + 1) -. cpu.(j)) *. 1e6 /. float_of_int (max 1 done_);
    steal = float_of_int (st1 - st0) /. float_of_int (max 1 (tot1 - tot0)) }

(* The gated slice metrics. *)
let slice_metrics =
  [ ("throughput_rps", "1/s", fun s -> s.rps);
    ("read_p50_us", "us", fun s -> s.read_us.(0));
    ("read_p90_us", "us", fun s -> s.read_us.(1));
    ("write_p50_us", "us", fun s -> s.write_us.(0));
    ("write_p90_us", "us", fun s -> s.write_us.(1));
    ("server_cpu_us_per_op", "us", fun s -> s.cpu_us_per_op) ]

(* Server spawn plus preload, until the first PING is answered. *)
let set_up (w : Workload.t) =
  let t0 = Util.now_ns () in
  let child = spawn_server w in
  let a = admin child.port in
  if call a P.Ping <> P.Pong then failwith "PING";
  let t1 = Util.now_ns () in
  let main, started, loaded = child.stamps in
  let s a b = float_of_int (b - a) /. 1e9 in
  (child, a, { total_s = s t0 t1; spawn_s = s t0 main; start_s = s main started;
               preload_s = s started loaded; ping_s = s loaded t1 })

(* A set-up that serves nothing: one more set-up time sample. *)
let setup_probe w =
  let child, a, setup = set_up w in
  Unix.close a.afd;
  if not (stop_server child) then failwith "server did not exit cleanly";
  setup

let run_round (w : Workload.t) ~sp ~seed ~round ~window_s ~trace =
  let child, a, setup = set_up w in
  let snap () =
    { s_at = Util.now_ns ();
      s_stats = stats a;
      s_srv_cpu = Util.proc_cpu_s child.pid;
      s_cli_cpu = Util.self_cpu_s () }
  in
  let n_slices = max 1 (int_of_float (Float.round (window_s /. slice_s))) in
  let lanes =
    List.init Workload.connections (fun i ->
        Lane.create w ~seed ~lane:((round * Workload.connections) + i) ~fd:(connect child.port)
          ~seconds:window_s ~slices:n_slices
          ~trace_cap:(if trace then trace_cap else 0))
  in
  let slice_ns = (List.hd lanes).slice_ns in
  spinning sp true;
  let t_start = Util.now_ns () in
  let t_win = t_start + int_of_float (warmup_s *. 1e9) in
  let t_end = t_win + (n_slices * slice_ns) in
  (* Scheduled events, fired in time order from connection 0's loop
     between reads. *)
  let s0 = ref None and s1 = ref None in
  let cpu = Array.make (n_slices + 1) Float.nan in
  let host = Array.make (n_slices + 1) (0, 0) in
  let events =
    ref
      (List.stable_sort
         (fun (x, _) (y, _) -> compare x y)
         ([ (t_win, fun () -> s0 := Some (snap ())) ]
         @ List.init (n_slices + 1) (fun j ->
               (t_win + (j * slice_ns), fun () ->
                 cpu.(j) <- Util.proc_cpu_s child.pid;
                 host.(j) <- Util.host_ticks ()))
         @ (if w.kills = [] then []
            else
              [ ( t_win + int_of_float (Workload.kill_at *. window_s *. 1e9),
                  fun () ->
                    List.iter
                      (fun id ->
                        match call a (P.Kill id) with
                        | P.Ok -> ()
                        | r -> failwith ("KILL answered " ^ P.print_response r))
                      w.kills ) ])
         @ [ (t_end, fun () -> s1 := Some (snap ())) ]))
  in
  let rec tick () =
    match !events with
    | (at, f) :: rest when Util.now_ns () >= at ->
        events := rest;
        f ();
        tick ()
    | _ -> ()
  in
  let run l ~tick = Lane.run l ~t_win ~t_end ~trace ~tick in
  let others = List.map (fun l -> Domain.spawn (fun () -> run l ~tick:ignore)) (List.tl lanes) in
  run (List.hd lanes) ~tick;
  List.iter Domain.join others;
  spinning sp false;
  (* A lost connection may end the loop early: fire what is left. *)
  List.iter (fun (_, f) -> f ()) !events;
  let final = stats a in
  let rss_mb = Util.proc_status_mb child.pid "VmHWM" in
  let t_check = Util.now_ns () in
  let store_errors = check_store a w lanes in
  let check_s = Util.seconds_since t_check in
  let errors =
    store_errors
    @ (if stat final "deaths" <> List.length w.kills then
         [ Printf.sprintf "STATS deaths = %d, want %d" (stat final "deaths") (List.length w.kills) ]
       else [])
    @ List.filter_map Lane.violations lanes
  in
  Unix.close a.afd;
  List.iter (fun (l : Lane.t) -> Unix.close l.fd) lanes;
  let errors = if stop_server child then errors else errors @ [ "server did not exit cleanly" ] in
  let whole store n = Util.sorted_of (List.map (fun l -> (store l, 0, n l)) lanes) in
  { setup;
    window_s = float_of_int (t_end - t_win) /. 1e9;
    lanes;
    reads = whole (fun l -> l.Lane.reads) (fun l -> l.Lane.n_reads);
    writes = whole (fun l -> l.Lane.writes) (fun l -> l.Lane.n_writes);
    slices =
      List.init n_slices (slice_of lanes ~slice_s:(float_of_int slice_ns /. 1e9) ~cpu ~host);
    s0 = Option.get !s0;
    s1 = Option.get !s1;
    final;
    rss_mb;
    errors;
    check_s }

(* ------------------------------- metrics ---------------------------------- *)

let sum_lanes r f = List.fold_left (fun a l -> a + f l) 0 r.lanes
let completed r = sum_lanes r (fun l -> l.Lane.completed)
let delta r k = stat r.s1.s_stats k - stat r.s0.s_stats k
let srv_cpu r = r.s1.s_srv_cpu -. r.s0.s_srv_cpu
let cli_cpu r = r.s1.s_cli_cpu -. r.s0.s_cli_cpu

(* Gated values: each slice metric's median over every slice of every
   round; set-up time over every set-up, peak memory over rounds. *)
let end_to_end rs ~probes =
  let slices = List.concat_map (fun r -> r.slices) rs in
  List.map (fun (name, unit, f) -> (name, Util.median (List.map f slices), unit)) slice_metrics
  @ [ ("setup_s", Util.median (List.map (fun u -> u.total_s) (probes @ List.map (fun r -> r.setup) rs)), "s");
      ("server_rss_mb", Util.median (List.map (fun r -> r.rss_mb) rs), "MB") ]

let slice_json s =
  let qs a =
    J.Obj
      (Array.to_list
         (Array.mapi (fun i q -> (Printf.sprintf "p%g_us" (q *. 100.), num a.(i))) slice_quantiles))
  in
  J.Obj
    [ ("throughput_rps", num s.rps);
      ("read", qs s.read_us);
      ("write", qs s.write_us);
      ("server_cpu_us_per_op", num s.cpu_us_per_op);
      ("host_steal_share", num s.steal) ]

(* Order statistics of one class over every round's samples, with the
   sample counts that support them; reported, not gated. *)
let latency_record rs f =
  let all = Array.concat (List.map f rs) in
  Array.sort Int.compare all;
  let n = Array.length all in
  let q p = num (pct all p) in
  J.Obj
    [ ("samples", J.Int n);
      ("beyond_p99", J.Int (n - int_of_float (Float.ceil (0.99 *. float_of_int n))));
      ("p50_us", q 0.50);
      ("p99_us", q 0.99);
      ("p999_us", q 0.999);
      ("p9999_us", q 0.9999);
      ("max_us", q 1.0) ]

let provenance (w : Workload.t) ~sp ~seed =
  J.Obj
    [ ("cores", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("ocamlrunparam", J.String (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
      ("git_rev", J.String (Kex_service.Provenance.git_rev ()));
      ("seed", J.Int seed);
      ("network", J.String "loopback");
      ( "idle_spinners",
        J.Obj [ ("requested", J.Int sp.requested); ("active", J.Int (List.length sp.spin_pids)) ] );
      ( "server",
        J.Obj
          [ ("shards", J.Int Workload.shards);
            ("workers_per_shard", J.Int Workload.workers);
            ("k", J.Int Workload.k);
            ("reactors", J.Int Workload.reactors);
            ("algo", J.String "fastpath");
            ("wait_free_reads", J.Bool true) ] );
      ( "client",
        J.Obj
          [ ("processes", J.Int 1);
            ("connections", J.Int Workload.connections);
            ("window", J.Int Workload.window);
            ("loop", J.String "closed") ] );
      ( "workload",
        J.Obj
          [ ("name", J.String w.name);
            ("why", J.String w.why);
            ("keys", J.Int w.keys);
            ("wire", J.String (P.wire_name w.wire));
            ("get_pct", J.Int w.get_pct);
            ("set_pct", J.Int w.set_pct);
            ("update_pct", J.Int (100 - w.get_pct - w.set_pct));
            ("dist", J.String (if w.zipf then "zipfian" else "uniform"));
            ("value_bytes", J.Int Workload.value_bytes);
            ("kills", J.List (List.map (fun i -> J.Int i) w.kills)) ] ) ]

(* ------------------------------ per layer --------------------------------- *)

(* The traced half's client spans, one trace per request. *)
let client_spans r =
  let sp = Spans.create (List.length r.lanes * trace_cap * 5) in
  let n_ = Spans.name_id sp in
  let s_req = n_ "client.request" and s_enc = n_ "client.encode" and s_wr = n_ "client.write" in
  let s_wait = n_ "client.wait" and s_dec = n_ "client.decode" in
  List.iteri
    (fun li (l : Lane.t) ->
      for i = 0 to l.n_spans - 1 do
        let f j = Bigarray.Array1.get l.spans ((i * Lane.span_fields) + j) in
        let trace = (li * 1_000_000_000) + i in
        let root = Spans.add sp ~trace ~name:s_req (f 0) (f 5) in
        ignore (Spans.add sp ~trace ~name:s_enc ~parent:root (f 0) (f 1));
        ignore (Spans.add sp ~trace ~name:s_wr ~parent:root (f 1) (f 2));
        ignore (Spans.add sp ~trace ~name:s_wait ~parent:root (f 2) (f 3));
        ignore (Spans.add sp ~trace ~name:s_dec ~parent:root (f 4) (f 5))
      done)
    r.lanes;
  sp

let per_layer (w : Workload.t) ~seed ~out r =
  let ops = float_of_int (max 1 (completed r)) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let cores = float_of_int (Domain.recommended_domain_count ()) in
  let window = float_of_int (r.s1.s_at - r.s0.s_at) /. 1e9 in
  let shard_ops = List.init Workload.shards (fun s -> delta r (Printf.sprintf "ops_shard_%d" s)) in
  let skew =
    let mean = float_of_int (List.fold_left ( + ) 0 shard_ops) /. float_of_int Workload.shards in
    if mean = 0.0 then 0.0 else float_of_int (List.fold_left max 0 shard_ops) /. mean
  in
  let batch = max 1 (int_of_float (Float.round (ratio (delta r "ops_linearized") (delta r "batches")))) in
  (* Tracing is on in every odd slice, so both halves see every phase of
     the window (the crash workload's kills included). *)
  let half parity =
    Util.mean (List.filteri (fun j _ -> j land 1 = parity) (List.map (fun sl -> sl.rps) r.slices))
  in
  let untraced_rps = half 0 and traced_rps = half 1 in
  let client = client_spans r in
  let replay, pop_wait_ns = Replay.request_path w ~seed ~batch in
  let admission = Replay.admission_path w ~seed in
  let stores =
    [ ("client", client); ("replay", replay) ]
    @ List.mapi (fun d sp -> (Printf.sprintf "admission%d" d, sp)) admission
  in
  Option.iter
    (fun dir ->
      List.iter
        (fun (tag, sp) ->
          Spans.write_csv sp (Filename.concat dir (Printf.sprintf "%s.%s.spans.csv" w.name tag)))
        stores)
    out;
  let sums = Spans.summarize (List.map snd stores) in
  let self name = Spans.mean_self sums name in
  let mailbox =
    let total name = match List.assoc_opt name sums with Some s -> s.Spans.total_ns | None -> 0.0 in
    let mutations = match List.assoc_opt "wqueue.push" sums with Some s -> s.Spans.count | None -> 0 in
    if mutations = 0 then Float.nan
    else (total "reactor.mailbox_push" +. total "reactor.mailbox_drain") /. float_of_int mutations
  in
  [ ("protocol.decode_ns", self "protocol.decode", "ns");
    ("protocol.encode_ns", self "protocol.encode", "ns");
    ("protocol.wire_bytes_per_op", float_of_int (sum_lanes r (fun l -> l.Lane.bytes)) /. ops, "B");
    ("reactor.posts_per_op", float_of_int (delta r "reactor_posts") /. ops, "ratio");
    ("reactor.wakeups_per_post", ratio (delta r "reactor_wakeups") (delta r "reactor_posts"), "ratio");
    ("reactor.mailbox_ns", mailbox, "ns");
    ("reactor.inline_read_share", float_of_int (delta r "inline_reads") /. ops, "ratio");
    ("sharded_store.route_ns", self "sharded_store.route", "ns");
    ("sharded_store.shard_skew", skew, "ratio");
    ("wqueue.push_ns", self "wqueue.push", "ns");
    ("wqueue.pop_wait_us", pop_wait_ns /. 1e3, "us");
    ("wqueue.ops_per_batch", ratio (delta r "ops_linearized") (delta r "batches"), "count");
    ("kex_lock.acquire_ns", self "kex_lock.acquire", "ns");
    ("kex_lock.release_ns", self "kex_lock.release", "ns");
    ("universal.apply_ns", self "universal.perform", "ns");
    ("universal.apply_calls_per_op", ratio (delta r "apply_calls") (delta r "ops_linearized"), "ratio");
    ("snapshot.publish_ns", self "snapshot.publish", "ns");
    ("kv_store.read_ns", self "kv_store.read", "ns");
    ("kv_store.perform_batch_us", self "kv_store.perform_batch" /. 1e3, "us");
    ("server.deaths", float_of_int (stat r.final "deaths"), "count");
    ("server.redispatched", float_of_int (stat r.final "redispatched"), "count");
    ("server.cpu_share", srv_cpu r /. (window *. cores), "ratio");
    ("client.cpu_us_per_op", cli_cpu r *. 1e6 /. ops, "us");
    ("client.cpu_share", cli_cpu r /. (window *. cores), "ratio");
    ("client.encode_ns", self "client.encode", "ns");
    ("client.write_ns", self "client.write", "ns");
    ("client.wait_us", self "client.wait" /. 1e3, "us");
    ("client.decode_ns", self "client.decode", "ns");
    ("trace.untraced_rps", untraced_rps, "1/s");
    ("trace.traced_rps", traced_rps, "1/s");
    ("trace.overhead_share", 1.0 -. (traced_rps /. untraced_rps), "ratio") ]

let metric_obj ms =
  J.Obj
    (List.map
       (fun (name, v, unit) -> (name, J.Obj [ ("value", num v); ("unit", J.String unit) ]))
       ms)

let setup_json u =
  J.Obj
    [ ("total_s", num u.total_s);
      ("spawn_s", num u.spawn_s);
      ("start_s", num u.start_s);
      ("preload_s", num u.preload_s);
      ("ping_s", num u.ping_s) ]

let round_json r =
  J.Obj
    [ ("setup", setup_json r.setup);
      ("server_rss_mb", num r.rss_mb);
      ("window_s", num r.window_s);
      ("check_s", num r.check_s);
      ("completed", J.Int (completed r));
      ( "stats_delta",
        J.Obj
          (List.filter_map
             (fun (k, v) ->
               let d = v - stat r.s0.s_stats k in
               if d <> 0 then Some (k, J.Int d) else None)
             r.s1.s_stats) );
      ("server_cpu_s", num (srv_cpu r));
      ("client_cpu_s", num (cli_cpu r));
      ("slices", J.List (List.map slice_json r.slices)) ]

(* ---------------------------------- main ---------------------------------- *)

(* Run the workload, print its record and result; true when correct. *)
let bench (w : Workload.t) ~sp ~seed ~seconds ~trace ~out =
  let probes =
    let rec go acc spent =
      if trace || List.length acc >= setup_probes || spent >= probe_budget_s then List.rev acc
      else
        let s = setup_probe w in
        go (s :: acc) (spent +. s.total_s)
    in
    go [] 0.0
  in
  let rs =
    if trace then [ run_round w ~sp ~seed ~round:0 ~window_s:seconds ~trace ]
    else
      List.init rounds (fun round ->
          run_round w ~sp ~seed ~round ~window_s:(seconds /. float_of_int rounds) ~trace)
  in
  let total f = List.fold_left (fun a r -> a + sum_lanes r f) 0 rs in
  let attempted = total (fun l -> l.Lane.attempted) and failed = total (fun l -> l.Lane.failed) in
  let errors = List.concat_map (fun r -> r.errors) rs in
  let metrics = if trace then per_layer w ~seed ~out (List.hd rs) else end_to_end rs ~probes in
  let correct = errors = [] && failed = 0 && attempted > 0 in
  let record =
    J.Obj
      [ ("provenance", provenance w ~sp ~seed);
        ("seconds", num seconds);
        ("setup_probes", J.List (List.map setup_json probes));
        ("trace", J.Bool trace);
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("failed_share", num (float_of_int failed /. float_of_int (max 1 attempted)));
        ("errors", J.List (List.map (fun e -> J.String e) errors));
        ("latency_read", latency_record rs (fun r -> r.reads));
        ("latency_write", latency_record rs (fun r -> r.writes));
        ("rounds", J.List (List.map round_json rs));
        ("metrics", metric_obj metrics) ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "%-32s %14.4f %s\n" n v u) metrics;
  print_endline (J.to_string record);
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", metric_obj metrics) ]));
  correct

let () =
  match Array.to_list Sys.argv with
  | [ _; "spin" ] -> ignore (Util.idle_spin ())
  | [ _; "serve"; name ] -> (
      match Workload.find name with
      | Some w -> serve w
      | None -> prerr_endline ("unknown workload " ^ name); exit 2)
  | _ ->
      let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
      let out = ref None in
      Arg.parse
        [ ("--workload", Arg.Set_string workload, "NAME workload to run");
          ("--seed", Arg.Set_int seed, "N workload seed");
          ("--seconds", Arg.Set_float seconds, "S timed window, split over the rounds");
          ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
          ("--out", Arg.String (fun d -> out := Some d), "DIR write trace spans here") ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "kbench.exe --workload NAME --seed N --seconds S --trace 0|1";
      match Workload.find !workload with
      | None ->
          Printf.eprintf "unknown workload %S (have: %s)\n" !workload
            (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
          exit 2
      | Some w ->
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          (* The client's own minor collections stop both of its domains;
             a larger minor heap makes them rare.  The server child keeps
             the runtime's defaults, as `kexd serve` would. *)
          Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
          let sp = spinners_start () in
          let correct =
            Fun.protect
              ~finally:(fun () -> spinners_stop sp)
              (fun () -> bench w ~sp ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out)
          in
          if not correct then exit 1
