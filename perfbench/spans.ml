(* An in-memory span store: name, trace id, parent, start and end, kept in
   preallocated arrays while the run is measured and written out once it
   ends.  A span's self time is its duration minus the time its direct
   children cover (children of one span never overlap here: every traced
   path is sequential within its trace). *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_list : string list;  (* reversed, by index *)
  cap : int;
  mutable n : int;
  trace : int array;
  name : int array;
  parent : int array;
  start : int array;
  stop : int array;
}

let create cap =
  { names = Hashtbl.create 32;
    name_list = [];
    cap;
    n = 0;
    trace = Array.make cap 0;
    name = Array.make cap 0;
    parent = Array.make cap (-1);
    start = Array.make cap 0;
    stop = Array.make cap 0 }

let name_id t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.names in
      Hashtbl.add t.names s i;
      t.name_list <- s :: t.name_list;
      i

(* Record a finished span; returns its slot (for children), or -1 once
   the store is full — later spans are dropped, never overwritten. *)
let add t ~trace ~name ?(parent = -1) start stop =
  if t.n >= t.cap then -1
  else begin
    let i = t.n in
    t.trace.(i) <- trace;
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.n <- i + 1;
    i
  end

(* Open a span now; close it with {!finish}. *)
let begin_ t ~trace ~name ?parent () = add t ~trace ~name ?parent (Util.now_ns ()) 0
let finish t i = if i >= 0 then t.stop.(i) <- Util.now_ns ()

(* Time a call as one span. *)
let time t ~trace ~name ?parent f =
  let i = begin_ t ~trace ~name ?parent () in
  let r = f () in
  finish t i;
  r

type summary = { count : int; total_ns : float; self_ns : float }

(* Per span name, over every store: calls, total duration and total
   self time. *)
let summarize stores =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun t ->
      let names = Array.of_list (List.rev t.name_list) in
      let child_ns = Array.make t.n 0 in
      for i = 0 to t.n - 1 do
        let p = t.parent.(i) in
        if p >= 0 then child_ns.(p) <- child_ns.(p) + (t.stop.(i) - t.start.(i))
      done;
      for i = 0 to t.n - 1 do
        let name = names.(t.name.(i)) and d = t.stop.(i) - t.start.(i) in
        let s =
          Option.value (Hashtbl.find_opt acc name) ~default:{ count = 0; total_ns = 0.; self_ns = 0. }
        in
        Hashtbl.replace acc name
          { count = s.count + 1;
            total_ns = s.total_ns +. float_of_int d;
            self_ns = s.self_ns +. float_of_int (d - child_ns.(i)) }
      done)
    stores;
  List.of_seq (Hashtbl.to_seq acc)

(* Mean self time of one span name, in ns ([nan] if never recorded). *)
let mean_self sums name =
  match List.assoc_opt name sums with
  | Some s when s.count > 0 -> s.self_ns /. float_of_int s.count
  | _ -> Float.nan

let write_csv t path =
  let names = Array.of_list (List.rev t.name_list) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "slot,trace,span,parent,start_ns,end_ns\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d,%d,%s,%d,%d,%d\n" i t.trace.(i) names.(t.name.(i)) t.parent.(i)
          t.start.(i) t.stop.(i)
      done)
