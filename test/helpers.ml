(* Shared test plumbing: build a protocol, run it under a model / scheduler /
   failure plan, and assert on the outcome. *)

open Kexclusion.Import
module Protocol = Kexclusion.Protocol
module Registry = Kexclusion.Registry
module Stats = Kex_sim.Stats
module Scheduler = Kex_sim.Scheduler
module Failures = Kex_sim.Failures

let cc = Cost_model.Cache_coherent
let dsm = Cost_model.Distributed

(* Build-and-run, where [build] constructs the protocol in a fresh heap. *)
let run ?(iterations = 3) ?(cs_delay = 2) ?(noncrit_delay = 0) ?scheduler ?(failures = [])
    ?participants ?(step_budget = 0) ?(check_names = false) ~model ~n ~k build =
  let mem = Memory.create () in
  let workload =
    match build mem with
    | `Exclusion (p : Protocol.t) ->
        if check_names then invalid_arg "check_names requires an assignment protocol";
        Protocol.workload p
    | `Assignment (p : Protocol.named) -> Protocol.named_workload p
  in
  let cost = Cost_model.create model ~n_procs:n in
  let cfg =
    Runner.config ~iterations ~cs_delay ~noncrit_delay ?scheduler ~failures ?participants
      ~step_budget ~n ~k ()
  in
  Runner.run cfg mem cost workload

let run_algo ?iterations ?cs_delay ?noncrit_delay ?scheduler ?failures ?participants
    ?step_budget ~model ~n ~k algo =
  run ?iterations ?cs_delay ?noncrit_delay ?scheduler ?failures ?participants ?step_budget
    ~model ~n ~k (fun mem -> `Exclusion (Registry.build mem ~model algo ~n ~k))

let assert_ok ?(ctx = "") (res : Runner.result) =
  Alcotest.(check (list string)) (ctx ^ " violations") [] res.violations;
  Alcotest.(check bool) (ctx ^ " stalled") false res.stalled;
  Alcotest.(check bool) (ctx ^ " ok") true res.ok

let assert_safe_but_stuck ?(ctx = "") (res : Runner.result) =
  Alcotest.(check (list string)) (ctx ^ " violations") [] res.violations;
  Alcotest.(check bool) (ctx ^ " stalled") true res.stalled

let max_remote res = (Stats.summarize res).Stats.max_remote

let participants c = List.init c Fun.id

(* A spread of schedulers for safety stress; schedulers are stateful, so a
   fresh batch is built per use. *)
let fresh_schedulers () =
  [ Scheduler.round_robin ();
    Scheduler.random ~seed:42;
    Scheduler.random ~seed:7;
    Scheduler.burst ~seed:13 ~max_burst:24;
    Scheduler.antisocial ~seed:99 ]

(* Substring test for error-message and rendering checks. *)
let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

(* ------------------------------------------------------------------ *)
(* Generic batteries run against every (N,k)-exclusion implementation. *)

(* Safety and progress across schedulers and contention levels. *)
let exclusion_battery ?(iterations = 4) ?(cs_delay = 2) ~model ~n ~k build () =
  List.iter
    (fun scheduler ->
      List.iter
        (fun c ->
          let res =
            run ~iterations ~cs_delay ~scheduler ~participants:(participants c) ~model ~n ~k
              build
          in
          let ctx = Printf.sprintf "[%s c=%d]" (Scheduler.name scheduler) c in
          assert_ok ~ctx res;
          Alcotest.(check bool) (ctx ^ " max_in_cs <= k") true (res.Runner.max_in_cs <= k);
          Alcotest.(check bool)
            (ctx ^ " contention bounded by participants")
            true (res.Runner.max_contention <= c))
        [ 1; k; n ])
    (fresh_schedulers ())

(* The protocol must actually let k processes into the CS concurrently
   (utilisation, not just safety). *)
let utilisation_battery ?(iterations = 6) ~model ~n ~k build () =
  let res = run ~iterations ~cs_delay:6 ~model ~n ~k build in
  assert_ok ~ctx:"utilisation" res;
  Alcotest.(check int) "k-way concurrency achieved" k res.Runner.max_in_cs

(* Progress with up to k-1 crashed processes: every nonfaulty participant
   still completes all its acquisitions. *)
let resilience_battery ?(iterations = 4) ~model ~n ~k ~failures build () =
  let n_failed = List.length failures in
  Alcotest.(check bool) "plan within resilience" true (n_failed <= k - 1);
  List.iter
    (fun scheduler ->
      let res = run ~iterations ~cs_delay:2 ~scheduler ~failures ~model ~n ~k build in
      let ctx = Printf.sprintf "[%s]" (Scheduler.name scheduler) in
      Alcotest.(check (list string)) (ctx ^ " violations") [] res.Runner.violations;
      Alcotest.(check bool) (ctx ^ " no stall") false res.stalled;
      Array.iteri
        (fun pid (p : Runner.proc_stats) ->
          if p.participated && not p.faulty then
            Alcotest.(check bool) (Printf.sprintf "%s pid %d completed" ctx pid) true p.completed)
        res.procs)
    (fresh_schedulers ())

(* Churn: noncritical dwell forces contention to rise and fall repeatedly,
   exercising fast-path slot recycling and spin-location reuse. *)
let churn_battery ?(iterations = 6) ~model ~n ~k build () =
  List.iter
    (fun scheduler ->
      let res =
        run ~iterations ~cs_delay:3 ~noncrit_delay:5 ~scheduler ~model ~n ~k build
      in
      assert_ok ~ctx:(Printf.sprintf "churn [%s]" (Scheduler.name scheduler)) res;
      Alcotest.(check bool) "max_in_cs <= k" true (res.Runner.max_in_cs <= k))
    (fresh_schedulers ())

(* k failures inside the critical section exhaust every slot: nonfaulty
   processes must block (run stalls) — resilience is exactly k-1. *)
let saturation_battery ?(step_budget = 300_000) ~model ~n ~k build () =
  let failures = List.init k (fun pid -> (pid, Failures.In_cs 1)) in
  let res = run ~iterations:2 ~cs_delay:2 ~failures ~step_budget ~model ~n ~k build in
  assert_safe_but_stuck ~ctx:"k failures" res;
  Array.iteri
    (fun pid (p : Runner.proc_stats) ->
      if pid >= k then
        Alcotest.(check bool) (Printf.sprintf "pid %d blocked" pid) false p.completed)
    res.procs
