(* Wqueue bookkeeping: [length] must count the re-dispatch (front) list as
   well as the back queue — via the O(1) counter, not a list walk — through
   pushes, front-pushes, pops, batch pops and close.  [push_list] is the
   connection plane's one-push-per-shard dispatch: order kept, one batch for
   a blocked consumer, re-dispatched items still first, refused when
   closed. *)

module Wqueue = Kex_service.Wqueue

let test_length_tracks_both_lanes () =
  let q : int Wqueue.t = Wqueue.create () in
  Alcotest.(check int) "empty" 0 (Wqueue.length q);
  Alcotest.(check bool) "push 1" true (Wqueue.push q 1);
  Alcotest.(check bool) "push 2" true (Wqueue.push q 2);
  Alcotest.(check int) "back only" 2 (Wqueue.length q);
  Alcotest.(check bool) "push_front 0" true (Wqueue.push_front q 0);
  Alcotest.(check int) "front counted" 3 (Wqueue.length q);
  Alcotest.(check (option int)) "front has priority" (Some 0) (Wqueue.pop q);
  Alcotest.(check int) "pop decrements" 2 (Wqueue.length q);
  Alcotest.(check bool) "push_front 9" true (Wqueue.push_front q 9);
  Alcotest.(check bool) "push_front 8" true (Wqueue.push_front q 8);
  Alcotest.(check int) "front refilled" 4 (Wqueue.length q);
  (* Batch pop drains front (in order) before the back queue. *)
  Alcotest.(check (list int)) "dispatch order" [ 8; 9; 1 ] (Wqueue.pop_batch q ~max:3);
  Alcotest.(check int) "batch decremented both lanes" 1 (Wqueue.length q);
  Alcotest.(check (list int)) "rest" [ 2 ] (Wqueue.pop_batch q ~max:8);
  Alcotest.(check int) "drained" 0 (Wqueue.length q)

let test_close_resets_length () =
  let q : int Wqueue.t = Wqueue.create () in
  ignore (Wqueue.push q 1);
  ignore (Wqueue.push_front q 0);
  Alcotest.(check (list int)) "leftovers in dispatch order" [ 0; 1 ] (Wqueue.close q);
  Alcotest.(check int) "closed queue is empty" 0 (Wqueue.length q);
  Alcotest.(check bool) "push refused after close" false (Wqueue.push q 2);
  Alcotest.(check bool) "push_front refused after close" false (Wqueue.push_front q 2);
  Alcotest.(check int) "still empty" 0 (Wqueue.length q)

let test_push_list_order_and_front () =
  let q : int Wqueue.t = Wqueue.create () in
  Alcotest.(check bool) "push_list accepted" true (Wqueue.push_list q [ 1; 2; 3 ]);
  Alcotest.(check bool) "empty list accepted" true (Wqueue.push_list q []);
  Alcotest.(check bool) "push_list again" true (Wqueue.push_list q [ 4; 5 ]);
  Alcotest.(check bool) "push_front 0" true (Wqueue.push_front q 0);
  Alcotest.(check int) "all counted" 6 (Wqueue.length q);
  Alcotest.(check (list int)) "front first, then list order" [ 0; 1; 2; 3; 4; 5 ]
    (Wqueue.pop_batch q ~max:8)

(* The consumer is already parked in [pop_batch] when the list lands: it
   must come back with the whole list, not with the first item. *)
let test_push_list_one_batch () =
  let q : int Wqueue.t = Wqueue.create () in
  let got = Atomic.make [] in
  let consumer = Domain.spawn (fun () -> Atomic.set got (Wqueue.pop_batch q ~max:16)) in
  Unix.sleepf 0.05;
  let xs = List.init 16 Fun.id in
  Alcotest.(check bool) "accepted" true (Wqueue.push_list q xs);
  Domain.join consumer;
  Alcotest.(check (list int)) "whole list in one batch" xs (Atomic.get got);
  Alcotest.(check int) "nothing left" 0 (Wqueue.length q)

let test_push_list_closed () =
  let q : int Wqueue.t = Wqueue.create () in
  ignore (Wqueue.close q);
  Alcotest.(check bool) "refused" false (Wqueue.push_list q [ 1; 2 ]);
  Alcotest.(check int) "nothing enqueued" 0 (Wqueue.length q);
  Alcotest.(check (list int)) "close finds nothing" [] (Wqueue.close q)

let suite =
  [ Helpers.tc "length counts front and back" test_length_tracks_both_lanes;
    Helpers.tc "close empties and refuses" test_close_resets_length;
    Helpers.tc "push_list keeps order, front items first" test_push_list_order_and_front;
    Helpers.tc "push_list wakes a blocked pop_batch with one batch" test_push_list_one_batch;
    Helpers.tc "push_list on a closed queue enqueues nothing" test_push_list_closed ]
