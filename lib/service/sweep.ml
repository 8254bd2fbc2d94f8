(* The sweep harness: one cell record, one group runner, one gate, one
   record writer and one reader for every sweep section. *)

type gate = Gated | Baseline

type cell = {
  section : string;
  params : (string * Json.t) list;
  gate : gate;
  summary : Loadgen.summary;
}

type load = {
  section : string;
  params : (string * Json.t) list;
  gate : gate;
  config : Loadgen.config;
}

type server = In_process of Server.config | Child of Server.config | Cluster of int * Server.config
type action = Kill of Chaos.action | Handoff of { shard : int; dst : int } | Adopt of int
type step = { at_s : float; node : int; action : action }

(* ------------------------------- servers -------------------------------- *)

let addr port = Printf.sprintf "127.0.0.1:%d" port

(* [kexd serve] re-run from this executable on an ephemeral port, which
   the child announces on stdout once it is listening.  The pipe stays open
   (unread) until the child is stopped, so its later log lines never hit a
   closed pipe. *)
let spawn_child (cfg : Server.config) ~duration_s =
  let algo = fst (List.find (fun (_, a) -> a = cfg.algo) Kex_runtime.Kex_lock.algos) in
  let args =
    [ "kexd"; "serve"; "--port"; "0"; "--shards"; string_of_int cfg.shards; "--workers";
      string_of_int cfg.workers; "-k"; string_of_int cfg.k; "--algo"; algo; "--duration";
      (* Belt and braces: the child exits on its own even if the parent
         dies before the SIGTERM that stops it. *)
      Printf.sprintf "%.0f" (duration_s +. 60.) ]
    @ (if cfg.reactors > 0 then [ "--reactors"; string_of_int cfg.reactors ]
       else [ "--conn-threads" ])
    @ (if cfg.wait_free_reads then [] else [ "--admission-reads" ])
    @ if cfg.chaos = [] then [] else [ "--chaos"; Chaos.to_string cfg.chaos ]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) devnull out_w devnull in
  Unix.close devnull;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let stop () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    close_in ic
  in
  let rec port () =
    match Scanf.sscanf_opt (input_line ic) "kexd serve: listening on 127.0.0.1:%d" Fun.id with
    | Some p -> p
    | None -> port ()
    | exception End_of_file ->
        stop ();
        failwith "Sweep: the child server exited before it listened"
  in
  (port (), stop)

(* Start the group's server with each node's kills in its chaos schedule;
   returns the in-process nodes (none for a child), every node's port, and
   how to stop it all. *)
let start ~steps ~duration_s server =
  let chaos node =
    List.filter_map
      (fun s ->
        match s.action with
        | Kill action when s.node = node -> Some { Chaos.at_s = s.at_s; action; target = None }
        | _ -> None)
      steps
  in
  let with_chaos node (cfg : Server.config) = { cfg with chaos = cfg.chaos @ chaos node } in
  match server with
  | In_process cfg ->
      let t = Server.start (with_chaos 0 cfg) in
      ([| t |], [| Server.port t |], fun () -> Server.stop t)
  | Cluster (n, cfg) ->
      let nodes = Array.init n (fun i -> Server.start (with_chaos i cfg)) in
      let ports = Array.map Server.port nodes in
      let addrs = Array.to_list (Array.map addr ports) in
      Array.iteri (fun node t -> Server.enable_cluster t ~node ~addrs) nodes;
      (nodes, ports, fun () -> Array.iter Server.stop nodes)
  | Child cfg ->
      let port, stop = spawn_child (with_chaos 0 cfg) ~duration_s in
      ([||], [| port |], stop)

(* -------------------------------- runner -------------------------------- *)

let run ?(steps = []) ?(preload = Seq.empty) ?(on_cell = ignore) server loads =
  let duration_s = List.fold_left (fun acc (l : load) -> acc +. l.config.duration_s) 0. loads in
  let nodes, ports, stop = start ~steps ~duration_s server in
  Fun.protect ~finally:stop (fun () ->
      if not (Seq.is_empty preload) then Server.preload nodes.(0) preload;
      let dead =
        List.filter_map
          (fun s -> if s.action = Kill Chaos.Kill_node then Some (addr ports.(s.node)) else None)
          steps
      in
      let target (c : Loadgen.config) =
        match server with
        | Cluster _ -> { c with cluster = Array.to_list (Array.map addr ports); expect_dead = dead }
        | In_process _ | Child _ ->
            { c with host = "127.0.0.1"; port = ports.(0); expect_dead = dead }
      in
      (* Handoff/adopt steps fire from one thread, timed from load start. *)
      let moves =
        List.filter_map
          (fun s ->
            match s.action with
            | Kill _ -> None
            | Handoff { shard; dst } ->
                Some
                  ( s.at_s,
                    Printf.sprintf "handoff of shard %d to node %d" shard dst,
                    fun () -> Server.handoff nodes.(s.node) ~shard ~addr:(addr ports.(dst)) )
            | Adopt shard ->
                Some
                  ( s.at_s,
                    Printf.sprintf "adopt of shard %d" shard,
                    fun () -> Server.adopt nodes.(s.node) ~shard ))
          steps
        |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
      in
      let ok = ref true in
      let t0 = Unix.gettimeofday () in
      let mover =
        Thread.create
          (List.iter (fun (at_s, what, move) ->
               Thread.delay (Float.max 0. (t0 +. at_s -. Unix.gettimeofday ()));
               match move () with
               | Ok () -> ()
               | Error msg ->
                   ok := false;
                   Format.eprintf "sweep: %s failed: %s@." what msg))
          moves
      in
      let summaries = List.map (fun (l : load) -> Loadgen.run (target l.config)) loads in
      Thread.join mover;
      let outcome =
        (if dead = [] then [] else [ ("dead", Json.String (String.concat "," dead)) ])
        @ if moves = [] then [] else [ ("ok", Json.Int (if !ok then 1 else 0)) ]
      in
      List.map2
        (fun (l : load) summary ->
          let c = { section = l.section; params = l.params @ outcome; gate = l.gate; summary } in
          on_cell c;
          c)
        loads summaries)

(* --------------------------------- gate --------------------------------- *)

let int_param (c : cell) k = Option.bind (List.assoc_opt k c.params) Json.to_int

let headline ~by cells =
  let key (c : cell) = List.map (fun k -> Option.value (int_param c k) ~default:0) by in
  List.fold_left
    (fun acc c -> match acc with Some h when key h >= key c -> acc | _ -> Some c)
    None cells

let scalar = function
  | Json.String s -> s
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%g" f
  | v -> Json.to_string v

let label (c : cell) =
  String.concat " " (c.section :: List.map (fun (k, v) -> k ^ "=" ^ scalar v) c.params)

let gate ~fail_on_errors cells =
  let gated = List.filter (fun (c : cell) -> c.gate = Gated) cells in
  let failing (p : cell -> bool) = Option.map label (List.find_opt p gated) in
  match failing (fun c -> c.summary.requests <= c.summary.errors) with
  | Some l -> Error (Printf.sprintf "no request succeeded in cell %s — is the server up?" l)
  | None -> (
      match failing (fun c -> int_param c "ok" = Some 0) with
      | Some l -> Error (Printf.sprintf "cell %s: a mid-run step failed" l)
      | None ->
          let unexpected =
            List.fold_left
              (fun acc (c : cell) -> acc + c.summary.errors - c.summary.expected_errors)
              0 gated
          in
          if fail_on_errors && unexpected > 0 then
            Error (Printf.sprintf "%d unexpected failed requests across the cells" unexpected)
          else Ok ())

(* ---------------------------- write and read ---------------------------- *)

(* Successful GETs per second — the read-plane comparison metric. *)
let get_rps (s : Loadgen.summary) =
  match List.find_opt (fun (b : Loadgen.bucket) -> b.label = "get") s.ops with
  | Some b when s.wall_s > 0. -> float_of_int (b.requests - b.errors) /. s.wall_s
  | _ -> 0.

(* The fields every cell records after its parameters. *)
let metrics gate (s : Loadgen.summary) =
  [ ("gate", Json.String (match gate with Gated -> "gated" | Baseline -> "baseline"));
    ("requests", Json.Int s.requests);
    ("errors", Json.Int s.errors);
    ("expected_errors", Json.Int s.expected_errors);
    ("redirects", Json.Int s.redirects);
    ("throughput_rps", Json.Float s.throughput_rps);
    ("get_rps", Json.Float (get_rps s));
    ("p50_us", Json.Int s.p50_us);
    ("p99_us", Json.Int s.p99_us);
    ("max_us", Json.Int s.max_us) ]

(* The v5 cluster record wrote these sections as one object each. *)
let singular = [ "migration"; "kill" ]

let write ~file ~headline:(headline_section, by) ~config cells =
  let in_section name = List.filter (fun (c : cell) -> c.section = name) cells in
  let sections =
    List.fold_left
      (fun acc (c : cell) -> if List.mem c.section acc then acc else acc @ [ c.section ])
      [] cells
  in
  let cell_json (c : cell) = Json.Obj (c.params @ metrics c.gate c.summary) in
  let section name =
    match List.map cell_json (in_section name) with
    | [ one ] when List.mem name singular -> one
    | cs -> Json.List cs
  in
  Option.iter
    (fun (h : cell) ->
      Json.to_file file
        (Json.Obj
           ([ ("schema", Json.String "kexclusion-serve/v6") ]
           @ Provenance.fields ()
           @ [ ("config", Json.Obj config); ("totals", Loadgen.summary_json h.summary) ]
           @ List.map (fun name -> (name, section name)) sections)))
    (headline ~by (in_section headline_section))

(* The recorded fields back into a summary.  Records keep rates, not
   windows, so the wall time is requests / throughput and the successful
   GET count is get_rps * wall time. *)
let summary_of o : Loadgen.summary =
  let int k = Option.value (Json.member_int k o) ~default:0 in
  let num k = Option.value (Json.member_number k o) ~default:0. in
  let requests = int "requests" and throughput_rps = num "throughput_rps" in
  let wall_s = if throughput_rps > 0. then float_of_int requests /. throughput_rps else 0. in
  let gets = int_of_float (Float.round (num "get_rps" *. wall_s)) in
  { requests; errors = int "errors"; wall_s; throughput_rps; p50_us = int "p50_us";
    p99_us = int "p99_us"; max_us = int "max_us"; phases = [];
    ops =
      (if gets > 0 then
         [ { label = "get"; requests = gets; errors = 0; window_s = wall_s; p50_us = 0;
             p99_us = 0; max_us = 0 } ]
       else []);
    redirects = int "redirects"; expected_errors = int "expected_errors"; node_errors = [] }

let metric_keys = List.map fst (metrics Gated (summary_of (Json.Obj [])))

let cell_of section = function
  | Json.Obj fields as o when Json.member "requests" o <> None ->
      let params = List.filter (fun (k, _) -> not (List.mem k metric_keys)) fields in
      let gate =
        match (Json.member_str "gate" o, Json.member_str "reads" o) with
        | Some "baseline", _ | None, Some "admission-wedged" -> Baseline
        | _ -> Gated
      in
      Some { section; params; gate; summary = summary_of o }
  | _ -> None

let read = function
  | Json.Obj members ->
      List.concat_map
        (fun (section, v) ->
          match v with
          | _ when section = "totals" -> []
          | Json.List items -> List.filter_map (cell_of section) items
          | v -> Option.to_list (cell_of section v))
        members
  | _ -> []

let pp_cell ppf (c : cell) =
  let s = c.summary in
  Format.fprintf ppf "  %-48s %8d req %5d err" (label c) s.requests s.errors;
  if s.expected_errors > 0 then Format.fprintf ppf " (%d expected)" s.expected_errors;
  if s.redirects > 0 then Format.fprintf ppf " %d redirects" s.redirects;
  Format.fprintf ppf " %9.0f req/s" s.throughput_rps;
  if get_rps s > 0. then Format.fprintf ppf "  get %9.0f/s" (get_rps s);
  Format.fprintf ppf "  p50 %6d  p99 %6d us%s" s.p50_us s.p99_us
    (match c.gate with Gated -> "" | Baseline -> "  [baseline]")
