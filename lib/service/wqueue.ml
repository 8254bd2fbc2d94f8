(* Lock discipline: every acquisition of [m] goes through [Sync.with_lock]
   (srclint S1), every [Condition.wait] sits in a while re-check loop
   (srclint S2).  [m] guards [front], [front_len], [q] and [closed] — see
   the guarded-by manifest in Srclint.default_manifest. *)

type 'a t = {
  m : Mutex.t;
  c : Condition.t;
  mutable front : 'a list;  (* re-dispatched items, popped first *)
  mutable front_len : int;  (* |front|, so [length] never walks the list *)
  q : 'a Queue.t;
  mutable closed : bool;
}

let create () =
  { m = Mutex.create (); c = Condition.create (); front = []; front_len = 0;
    q = Queue.create (); closed = false }

(* One ring lock and one wakeup for a whole list: the connection plane
   stages every mutation of a socket read bound for this shard and pushes
   them here together, so a worker wakes once and pops them as one batch. *)
let push_list t xs =
  Kex_sync.Sync.with_lock t.m (fun () ->
      let accepted = not t.closed in
      if accepted && xs <> [] then begin
        List.iter (fun x -> Queue.push x t.q) xs;
        Condition.signal t.c
      end;
      accepted)

let push t x = push_list t [ x ]

let push_front t x =
  Kex_sync.Sync.with_lock t.m (fun () ->
      let accepted = not t.closed in
      if accepted then begin
        t.front <- x :: t.front;
        t.front_len <- t.front_len + 1;
        Condition.signal t.c
      end;
      accepted)

let pop t =
  Kex_sync.Sync.with_lock t.m (fun () ->
      while t.front = [] && Queue.is_empty t.q && not t.closed do
        Condition.wait t.c t.m
      done;
      match t.front with
      | x :: rest ->
          t.front <- rest;
          t.front_len <- t.front_len - 1;
          Some x
      | [] -> if Queue.is_empty t.q then None else Some (Queue.pop t.q))

(* Blocking batch pop: wait for the first item, then sweep up to [max]-1
   more that are already queued without waiting again.  Front (re-dispatch)
   items keep their priority and their order. *)
let pop_batch t ~max =
  if max < 1 then invalid_arg "Wqueue.pop_batch: max must be positive";
  Kex_sync.Sync.with_lock t.m (fun () ->
      while t.front = [] && Queue.is_empty t.q && not t.closed do
        Condition.wait t.c t.m
      done;
      let rec sweep n acc =
        if n >= max then List.rev acc
        else
          match t.front with
          | x :: rest ->
              t.front <- rest;
              t.front_len <- t.front_len - 1;
              sweep (n + 1) (x :: acc)
          | [] ->
              if Queue.is_empty t.q then List.rev acc
              else sweep (n + 1) (Queue.pop t.q :: acc)
      in
      sweep 0 [])

(* O(1): admission control calls this per request, and walking [front]
   under the mutex made every submit pay for the redispatch backlog. *)
let length t = Kex_sync.Sync.with_lock t.m (fun () -> t.front_len + Queue.length t.q)

let close t =
  Kex_sync.Sync.with_lock t.m (fun () ->
      t.closed <- true;
      let leftovers = t.front @ List.of_seq (Queue.to_seq t.q) in
      t.front <- [];
      t.front_len <- 0;
      Queue.clear t.q;
      Condition.broadcast t.c;
      leftovers)
