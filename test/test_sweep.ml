(* The sweep harness: the reader on the committed serve record and on a v5
   cluster record, the gate on synthetic cells, and a tiny in-process sweep
   round-tripped through the writer and the reader. *)

module Sweep = Kex_service.Sweep
module Loadgen = Kex_service.Loadgen
module Json = Kex_service.Json

let summary ?(expected = 0) ~requests ~errors () =
  { Loadgen.requests; errors; wall_s = 1.; throughput_rps = float_of_int requests; p50_us = 1;
    p99_us = 2; max_us = 3; phases = []; ops = []; redirects = 0; expected_errors = expected;
    node_errors = [] }

let cell ?(gate = Sweep.Gated) ?(params = []) ?expected ~requests ~errors () =
  { Sweep.section = "sweep"; params; gate; summary = summary ?expected ~requests ~errors () }

let parse_exn raw = match Json.parse raw with Ok d -> d | Error msg -> Alcotest.fail msg

let in_section name cells =
  List.filter (fun (c : Sweep.cell) -> c.section = name) cells

let param (c : Sweep.cell) k =
  match List.assoc_opt k c.params with
  | Some v -> v
  | None -> Alcotest.failf "cell %s has no %S" c.section k

let close ctx ~rel want got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.6f ~ %.6f" ctx want got)
    true
    (Float.abs (want -. got) <= rel *. Float.abs want)

(* ------------------------------- reader --------------------------------- *)

(* The committed record: 9 matrix cells, the read quad, the wire quad and
   six connection-scaling cells, with their recorded numbers. *)
let test_read_committed () =
  (* [dune runtest] runs in the build's test directory, [dune exec] at the root. *)
  let file = List.find Sys.file_exists [ "../BENCH_serve.json"; "BENCH_serve.json" ] in
  let doc = match Json.of_file file with Ok d -> d | Error msg -> Alcotest.fail msg in
  let cells = Sweep.read doc in
  List.iter
    (fun (name, n) ->
      Alcotest.(check int) (name ^ " cells") n (List.length (in_section name cells)))
    [ ("sweep", 9); ("read_path", 4); ("wire", 4); ("conn_scale", 6) ];
  Alcotest.(check int) "nothing else" 23 (List.length cells);
  let sweep = in_section "sweep" cells in
  let first = List.hd sweep and last = List.nth sweep 8 in
  Alcotest.(check int) "S=1 W=1 requests" 81525 first.summary.requests;
  close "S=1 W=1 req/s" ~rel:1e-12 26984.4093472 first.summary.throughput_rps;
  Alcotest.(check int) "S=1 W=1 max" 50959 first.summary.max_us;
  Alcotest.(check int) "headline p99" 1791 last.summary.p99_us;
  (match Sweep.headline ~by:[ "shards"; "pipeline" ] sweep with
  | Some h -> Alcotest.(check int) "headline is S=4 W=16" 502621 h.summary.requests
  | None -> Alcotest.fail "no headline");
  let reads = in_section "read_path" cells in
  let wait_free = List.nth reads 1 and wedged = List.nth reads 2 in
  close "wait-free get/s" ~rel:1e-9 226284.555294 (Sweep.get_rps wait_free.summary);
  Alcotest.(check bool) "admission-wedged is the baseline" true (wedged.gate = Sweep.Baseline);
  Alcotest.(check int) "admission-wedged errors" 64 wedged.summary.errors;
  Alcotest.(check bool)
    "every other cell is gated" true
    (List.for_all (fun (c : Sweep.cell) -> c == wedged || c.gate = Sweep.Gated) cells);
  let wire = List.nth (in_section "wire" cells) 3 in
  Alcotest.(check bool) "binary wire" true (param wire "wire" = Json.String "binary");
  Alcotest.(check int) "binary zipfian requests" 683885 wire.summary.requests;
  let c256 = List.nth (in_section "conn_scale" cells) 5 in
  Alcotest.(check bool) "reactor cell" true (param c256 "plane" = Json.String "reactor");
  Alcotest.(check int) "C=256 conns" 256 (Option.get (Json.to_int (param c256 "conns")));
  close "C=256 reactor req/s" ~rel:1e-12 199365.951896 c256.summary.throughput_rps;
  Alcotest.(check bool)
    "the committed record passes the gate" true
    (Sweep.gate ~fail_on_errors:true cells = Ok ())

(* A cluster-sweep record as v5 wrote it: [cluster] a list, [migration]
   and [kill] one object each. *)
let v5_cluster =
  {|{ "schema": "kexclusion-serve/v5", "git_rev": "abc1234", "hostname": "h", "ocaml": "5.1.1",
      "config": { "workers": 2, "k": 2, "shards": 4, "pipeline": 16, "nodes": 2 },
      "totals": { "requests": 200, "errors": 0, "throughput_rps": 100.0,
                  "latency_us": { "p50": 5, "p99": 9, "max": 12 } },
      "cluster": [
        { "nodes": 1, "shards": 4, "pipeline": 16, "requests": 300, "errors": 0,
          "expected_errors": 0, "redirects": 0, "throughput_rps": 150.0, "p50_us": 4,
          "p99_us": 8 },
        { "nodes": 2, "shards": 4, "pipeline": 16, "requests": 200, "errors": 0,
          "expected_errors": 0, "redirects": 0, "throughput_rps": 100.0, "p50_us": 5,
          "p99_us": 9 } ],
      "migration": { "nodes": 2, "shard": 0, "ok": 1, "shards": 4, "pipeline": 16,
                     "requests": 180, "errors": 0, "expected_errors": 0, "redirects": 7,
                     "throughput_rps": 90.0, "p50_us": 6, "p99_us": 11 },
      "kill": { "nodes": 2, "dead": "127.0.0.1:7081", "shards": 4, "pipeline": 16,
                "requests": 160, "errors": 40, "expected_errors": 40, "redirects": 0,
                "throughput_rps": 80.0, "p50_us": 7, "p99_us": 13 } }|}

let test_read_v5_cluster () =
  let cells = Sweep.read (parse_exn v5_cluster) in
  Alcotest.(check (list string))
    "sections in document order"
    [ "cluster"; "cluster"; "migration"; "kill" ]
    (List.map (fun (c : Sweep.cell) -> c.section) cells);
  let mig = List.nth cells 2 and kill = List.nth cells 3 in
  Alcotest.(check bool) "migration ok" true (param mig "ok" = Json.Int 1);
  Alcotest.(check int) "migration redirects" 7 mig.summary.redirects;
  Alcotest.(check bool) "kill dead node" true (param kill "dead" = Json.String "127.0.0.1:7081");
  Alcotest.(check int) "kill expected errors" 40 kill.summary.expected_errors;
  Alcotest.(check bool)
    "dead-node errors are exempt" true
    (Sweep.gate ~fail_on_errors:true cells = Ok ())

(* --------------------------------- gate --------------------------------- *)

let fails ctx ~fail_on_errors cells =
  Alcotest.(check bool) ctx true (Result.is_error (Sweep.gate ~fail_on_errors cells))

let passes ctx ~fail_on_errors cells =
  Alcotest.(check bool) ctx true (Sweep.gate ~fail_on_errors cells = Ok ())

let test_gate () =
  let clean = cell ~requests:100 ~errors:0 () in
  passes "clean cells pass" ~fail_on_errors:true [ clean; clean ];
  passes "a baseline's errors are exempt" ~fail_on_errors:true
    [ clean; cell ~gate:Sweep.Baseline ~requests:10 ~errors:10 () ];
  passes "expected errors are subtracted" ~fail_on_errors:true
    [ cell ~expected:5 ~requests:100 ~errors:5 () ];
  fails "one unexpected error fails --fail-on-errors" ~fail_on_errors:true
    [ clean; cell ~expected:5 ~requests:100 ~errors:6 () ];
  passes "errors alone pass without --fail-on-errors" ~fail_on_errors:false
    [ cell ~requests:100 ~errors:6 () ];
  fails "requests <= errors fails" ~fail_on_errors:false [ cell ~requests:10 ~errors:10 () ];
  fails "no requests at all fails" ~fail_on_errors:false [ cell ~requests:0 ~errors:0 () ];
  fails "a failed handoff fails" ~fail_on_errors:false
    [ cell ~params:[ ("ok", Json.Int 0) ] ~requests:100 ~errors:0 () ];
  passes "a successful handoff passes" ~fail_on_errors:true
    [ cell ~params:[ ("ok", Json.Int 1) ] ~requests:100 ~errors:0 () ]

(* ---------------------- a tiny sweep, written and read ------------------- *)

(* Two cells: a kill of k-1 workers on an in-process server, and a live
   handoff across a 2-node cluster (a singular [migration] section).  The
   record read back must hold the same cells: same sections, parameters
   and gate classes, the same counts, and the same rates to the record's
   print precision. *)
let test_round_trip () =
  let server =
    { Kex_service.Server.default_config with port = 0; workers = 2; k = 2; shards = 2 }
  in
  let lg =
    { Loadgen.default_config with connections = 2; duration_s = 0.4; pipeline = 4; keys = 32;
      mix = [ ("get", 60); ("set", 30); ("update", 10) ]; timeout_s = 2. }
  in
  let load section params config = { Sweep.section; params; gate = Sweep.Gated; config } in
  let sweep =
    Sweep.run
      ~steps:[ { Sweep.at_s = 0.2; node = 0; action = Sweep.Kill Kex_service.Chaos.Kill_worker } ]
      (Sweep.In_process server)
      [ load "sweep" [ ("shards", Json.Int 2); ("kills", Json.Int 1) ] lg ]
  in
  let migration =
    Sweep.run
      ~steps:[ { Sweep.at_s = 0.2; node = 0; action = Sweep.Handoff { shard = 0; dst = 1 } } ]
      (Sweep.Cluster (2, server))
      [ load "migration" [ ("nodes", Json.Int 2) ] { lg with wire = Kex_service.Protocol.Binary } ]
  in
  let cells = sweep @ migration in
  passes "k-1 kills and a handoff stay client-invisible" ~fail_on_errors:true cells;
  Alcotest.(check bool) "handoff recorded ok" true (param (List.hd migration) "ok" = Json.Int 1);
  let file = Filename.temp_file "sweep" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () ->
      Sweep.write ~file ~config:[ ("duration_s", Json.Float 0.4) ]
        ~headline:("sweep", [ "shards" ]) cells;
      let doc = match Json.of_file file with Ok d -> d | Error msg -> Alcotest.fail msg in
      Alcotest.(check (option string))
        "schema" (Some "kexclusion-serve/v6") (Json.member_str "schema" doc);
      Alcotest.(check bool) "cores stamped" true (Json.member_int "cores" doc <> None);
      Alcotest.(check bool)
        "migration is one object" true
        (match Json.member "migration" doc with Some (Json.Obj _) -> true | _ -> false);
      let back = Sweep.read doc in
      Alcotest.(check int) "cell count" (List.length cells) (List.length back);
      List.iter2
        (fun (a : Sweep.cell) (b : Sweep.cell) ->
          let ctx = a.section ^ ": " in
          Alcotest.(check string) (ctx ^ "section") a.section b.section;
          Alcotest.(check string)
            (ctx ^ "params")
            (Json.to_string (Json.Obj a.params))
            (Json.to_string (Json.Obj b.params));
          Alcotest.(check bool) (ctx ^ "gate") true (a.gate = b.gate);
          let x = a.summary and y = b.summary in
          List.iter
            (fun (what, p, q) -> Alcotest.(check int) (ctx ^ what) p q)
            [ ("requests", x.requests, y.requests); ("errors", x.errors, y.errors);
              ("expected", x.expected_errors, y.expected_errors);
              ("redirects", x.redirects, y.redirects); ("p50", x.p50_us, y.p50_us);
              ("p99", x.p99_us, y.p99_us); ("max", x.max_us, y.max_us) ];
          close (ctx ^ "req/s") ~rel:1e-11 x.throughput_rps y.throughput_rps;
          close (ctx ^ "get/s") ~rel:1e-9 (Sweep.get_rps x) (Sweep.get_rps y))
        cells back)

let suite =
  [ Helpers.tc "sweep: reader on the committed BENCH_serve.json" test_read_committed;
    Helpers.tc "sweep: reader on a v5 cluster record" test_read_v5_cluster;
    Helpers.tc "sweep: gate on synthetic cells" test_gate;
    Helpers.tc_slow "sweep: a tiny sweep round-trips through writer and reader" test_round_trip ]
