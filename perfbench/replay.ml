(* The traced layer replay: the workload's generated operations pushed
   through the server layers' public functions in the server's order, one
   span around each call.  It runs in the client process after the timed
   window, on instances of its own, so it never perturbs the server.

   Request path (one domain, trace id = operation number):
     Req_decoder -> shard_of_key -> GET: Kv_store.read -> encode_response_wire
                                 -> mutation: Wqueue.push
   Batch path (trace id = [ops] + batch number), once a shard has
   [batch] mutations queued — [batch] is the ops_per_batch STATS showed:
     Wqueue.pop_batch -> Kv_store.perform_batch -> encode_response_wire
     -> Mailbox.push (one coalesced post per batch) -> Mailbox.drain
   Admission path (two contending domains, k = 2, own instances):
     Assignment.acquire -> Universal.perform -> Snapshot.publish
     -> Assignment.release *)

module P = Kex_service.Protocol
module Kv = Kex_resilient.Kv_store
module Sharded = Kex_resilient.Sharded_store
module Asg = Kex_runtime.Kex_lock.Assignment
module Smap = Map.Make (String)

let ops = 30_000
let admission_ops = 10_000  (* per domain *)

(* Generator streams of their own, apart from the load's lanes. *)
let replay_lane = 1000

let kv_op (req : P.request) : Kv.op =
  match req with
  | P.Set (k, v) -> Kv.Set (k, v)
  | P.Update (k, d) -> Kv.Fetch_add (k, d)
  | _ -> invalid_arg "kv_op"

let response (r : Kv.result) : P.response =
  match r with
  | Kv.Unit -> P.Ok
  | Kv.Value v -> P.Value v
  | Kv.Existed b -> P.Deleted b
  | Kv.New_value v -> P.Int v

(* The server child's preload on a store of our own: Server.preload's
   batches of up to 512 sets per shard and admission. *)
let preload_store (w : Workload.t) =
  let store =
    Sharded.create ~algo:Kex_runtime.Kex_lock.Fast_path ~shards:Workload.shards ~n:Workload.workers
      ~k:Workload.k ()
  in
  let bufs = Array.make Workload.shards [] and counts = Array.make Workload.shards 0 in
  let flush s =
    if counts.(s) > 0 then
      ignore (Kv.perform_batch (Sharded.shard store s) ~pid:0 (List.rev bufs.(s)));
    bufs.(s) <- [];
    counts.(s) <- 0
  in
  for i = 0 to w.keys - 1 do
    let key, v = Workload.preload_binding w i in
    let s = Sharded.shard_of_key store key in
    bufs.(s) <- Kv.Set (key, v) :: bufs.(s);
    counts.(s) <- counts.(s) + 1;
    if counts.(s) >= 512 then flush s
  done;
  for s = 0 to Workload.shards - 1 do
    flush s
  done;
  store

(* Request and batch paths; returns the span store and the mean time a
   queued mutation waited for its batch's pop, in ns. *)
let request_path (w : Workload.t) ~seed ~batch =
  let sp = Spans.create (ops * 12) in
  let n_ = Spans.name_id sp in
  let s_req = n_ "replay.request" and s_batch = n_ "replay.batch" in
  let s_decode = n_ "protocol.decode" and s_encode = n_ "protocol.encode" in
  let s_route = n_ "sharded_store.route" and s_read = n_ "kv_store.read" in
  let s_push = n_ "wqueue.push" and s_pop = n_ "wqueue.pop_batch" in
  let s_perform = n_ "kv_store.perform_batch" in
  let s_mb_push = n_ "reactor.mailbox_push" and s_mb_drain = n_ "reactor.mailbox_drain" in
  let store = preload_store w in
  let queues = Array.init Workload.shards (fun _ -> Kex_service.Wqueue.create ()) in
  let queued = Array.make Workload.shards 0 in
  let mailbox = Kex_service.Reactor.Mailbox.create () in
  let dec = P.Req_decoder.create () in
  let gen = Workload.gen w ~seed ~lane:replay_lane in
  let wire_in = Buffer.create 64 and out = Buffer.create 4096 in
  let waited = ref 0 and popped = ref 0 and batches = ref 0 in
  let run_batch s =
    let trace = ops + !batches in
    incr batches;
    let root = Spans.begin_ sp ~trace ~name:s_batch () in
    let items =
      Spans.time sp ~trace ~name:s_pop ~parent:root (fun () ->
          Kex_service.Wqueue.pop_batch queues.(s) ~max:batch)
    in
    let now = Util.now_ns () in
    List.iter
      (fun (_, _, pushed) ->
        waited := !waited + (now - pushed);
        incr popped)
      items;
    queued.(s) <- queued.(s) - List.length items;
    let results =
      Spans.time sp ~trace ~name:s_perform ~parent:root (fun () ->
          Kv.perform_batch (Sharded.shard store s) ~pid:0 (List.map (fun (_, op, _) -> op) items))
    in
    Buffer.clear out;
    List.iter2
      (fun (id, _, _) r ->
        Spans.time sp ~trace ~name:s_encode ~parent:root (fun () ->
            P.encode_response_wire out w.wire ~id:(Some (id land 0xffff)) (response r)))
      items results;
    let post = Buffer.contents out in
    Spans.time sp ~trace ~name:s_mb_push ~parent:root (fun () ->
        Kex_service.Reactor.Mailbox.push mailbox post);
    ignore
      (Spans.time sp ~trace ~name:s_mb_drain ~parent:root (fun () ->
           Kex_service.Reactor.Mailbox.drain mailbox));
    Spans.finish sp root
  in
  for id = 0 to ops - 1 do
    Workload.next gen;
    Buffer.clear wire_in;
    P.encode_request_wire wire_in w.wire ~id:(Some (id land 0xffff)) (Workload.request gen);
    let bytes = Buffer.to_bytes wire_in in
    let root = Spans.begin_ sp ~trace:id ~name:s_req () in
    let req =
      Spans.time sp ~trace:id ~name:s_decode ~parent:root (fun () ->
          P.Req_decoder.feed_bytes dec bytes ~off:0 ~len:(Bytes.length bytes);
          match P.Req_decoder.next dec with
          | P.Dec_frame (_, req) -> req
          | _ -> failwith "replay: request did not decode")
    in
    let key = match req with P.Get k | P.Set (k, _) | P.Update (k, _) -> k | _ -> assert false in
    let s = Spans.time sp ~trace:id ~name:s_route ~parent:root (fun () -> Sharded.shard_of_key store key) in
    (match req with
    | P.Get key ->
        let v = Spans.time sp ~trace:id ~name:s_read ~parent:root (fun () -> Kv.read (Sharded.shard store s) ~key) in
        Buffer.clear out;
        Spans.time sp ~trace:id ~name:s_encode ~parent:root (fun () ->
            P.encode_response_wire out w.wire ~id:(Some (id land 0xffff)) (P.Value v))
    | req ->
        let op = kv_op req in
        ignore
          (Spans.time sp ~trace:id ~name:s_push ~parent:root (fun () ->
               Kex_service.Wqueue.push queues.(s) (id, op, Util.now_ns ())));
        queued.(s) <- queued.(s) + 1);
    Spans.finish sp root;
    if queued.(s) >= batch then run_batch s
  done;
  Array.iteri (fun s q -> if q > 0 then run_batch s) queued;
  (sp, if !popped = 0 then Float.nan else float_of_int !waited /. float_of_int !popped)

(* Admission path on its own (N,k)-assignment, universal object and
   snapshot: two domains contending with k = 2, each applying its share
   of the workload's mutations to a map holding one shard's worth of the
   keyspace. *)
let admission_path (w : Workload.t) ~seed =
  let asg = Asg.create ~algo:Kex_runtime.Kex_lock.Fast_path ~n:2 ~k:2 () in
  let init =
    let m = ref Smap.empty in
    for i = 0 to w.keys - 1 do
      if i mod Workload.shards = 0 then begin
        let k, v = Workload.preload_binding w i in
        m := Smap.add k v !m
      end
    done;
    !m
  in
  let apply m (op : Kv.op) =
    match op with
    | Kv.Set (k, v) -> (Smap.add k v m, 0)
    | Kv.Fetch_add (k, d) ->
        let cur = Option.bind (Smap.find_opt k m) int_of_string_opt |> Option.value ~default:0 in
        (Smap.add k (string_of_int (cur + d)) m, cur + d)
    | _ -> (m, 0)
  in
  let uni = Kex_resilient.Universal.create ~k:2 ~init ~apply in
  let snap = Kex_resilient.Snapshot.create init in
  let domain d () =
    let sp = Spans.create (admission_ops * 5) in
    let n_ = Spans.name_id sp in
    let s_root = n_ "replay.admission" and s_acq = n_ "kex_lock.acquire" in
    let s_perf = n_ "universal.perform" and s_pub = n_ "snapshot.publish" in
    let s_rel = n_ "kex_lock.release" in
    let gen = Workload.gen w ~seed ~lane:(replay_lane + 1 + d) in
    let done_ = ref 0 in
    while !done_ < admission_ops do
      Workload.next gen;
      if gen.Workload.kind <> Workload.kind_get then begin
        let op = kv_op (Workload.request gen) in
        let trace = !done_ in
        let root = Spans.begin_ sp ~trace ~name:s_root () in
        let name = Spans.time sp ~trace ~name:s_acq ~parent:root (fun () -> Asg.acquire asg ~pid:d) in
        ignore
          (Spans.time sp ~trace ~name:s_perf ~parent:root (fun () ->
               Kex_resilient.Universal.perform uni ~tid:name op));
        Spans.time sp ~trace ~name:s_pub ~parent:root (fun () ->
            let version, state = Kex_resilient.Universal.committed uni in
            Kex_resilient.Snapshot.publish snap ~version state);
        Spans.time sp ~trace ~name:s_rel ~parent:root (fun () -> Asg.release asg ~pid:d ~name);
        Spans.finish sp root;
        incr done_
      end
    done;
    sp
  in
  let other = Domain.spawn (domain 1) in
  let mine = domain 0 () in
  [ mine; Domain.join other ]
