(* The benchmark's workloads and its request generator.

   The generator is the benchmark's own (not kexd's load generator), so it
   stays identical when the code under test changes: the same seed yields
   the same operation stream on every commit.  Only generated requests
   reach the server; its preload is a fixed function of the key index. *)

type t = {
  name : string;
  why : string;
  keys : int;  (** preloaded keyspace, indices [0, keys) *)
  wire : Kex_service.Protocol.wire;
  get_pct : int;
  set_pct : int;  (** UPDATE takes the remaining share *)
  zipf : bool;  (** Zipfian (theta 0.99) key choice, else uniform *)
  kills : int list;  (** worker ids sent KILL at [kill_at] into the window *)
}

(* Server shape: the headline cell of BENCH_serve.json (4 shards x 2
   workers, k = 2) with `kexd serve`'s defaults for everything else. *)
let shards = 4
let workers = 2
let k = 2
let reactors = 2

(* Client shape: one process, one connection per domain, each keeping a
   closed-loop window of id-tagged requests in flight. *)
let connections = 2
let window = 16
let value_bytes = 16
let theta = 0.99

(* Fraction of the timed window after which the crash workload's kills
   are sent. *)
let kill_at = 0.25

let ycsb =
  { name = "ycsb_b_zipf_1m";
    why =
      "95% GET / 5% SET, Zipfian over 1M keys, binary wire: reads answered inline from \
       snapshots, map 30x L2";
    keys = 1_000_000;
    wire = Kex_service.Protocol.Binary;
    get_pct = 95;
    set_pct = 5;
    zipf = true;
    kills = [] }

let update_heavy =
  { name = "update_heavy_10k";
    why =
      "10% GET / 40% SET / 50% UPDATE, uniform over 10k keys, text wire: 90% of ops cross \
       queue, admission, apply, publish";
    keys = 10_000;
    wire = Kex_service.Protocol.Text;
    get_pct = 10;
    set_pct = 40;
    zipf = false;
    kills = [] }

let crash =
  { update_heavy with
    name = "crash_k1_update";
    why =
      "update_heavy_10k with k-1 workers killed per shard mid-window: the paper's claim, 0 \
       failed ops";
    kills = List.init shards (fun s -> s * workers) }

let all = [ ycsb; update_heavy; crash ]
let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------- keyspace -------------------------------- *)

(* Counter workloads split the keyspace: odd indices are UPDATE counters,
   even ones hold values that only SET writes, so the two never share a
   key and every counter's final value is predictable. *)
let has_counters w = w.get_pct + w.set_pct < 100
let is_counter w i = has_counters w && i land 1 = 1

let key_of_index i = Printf.sprintf "k%08d" i
let key_len = 9

(* A value names its key: "<key>=<6 base-36 digits>", 16 bytes. *)
let value_of i ~stamp =
  let b = Bytes.make value_bytes '0' in
  Bytes.blit_string (key_of_index i) 0 b 0 key_len;
  Bytes.set b key_len '=';
  let s = ref stamp in
  for p = value_bytes - 1 downto key_len + 1 do
    Bytes.set b p "0123456789abcdefghijklmnopqrstuvwxyz".[!s mod 36];
    s := !s / 36
  done;
  Bytes.unsafe_to_string b

let value_encodes_key v i =
  String.length v = value_bytes
  && v.[key_len] = '='
  && v.[0] = 'k'
  &&
  let ok = ref true and n = ref i in
  for p = key_len - 1 downto 1 do
    if Char.code v.[p] - 48 <> !n mod 10 then ok := false;
    n := !n / 10
  done;
  !ok

let index_of_key key =
  if String.length key = key_len && key.[0] = 'k' then
    int_of_string_opt (String.sub key 1 (key_len - 1))
  else None

let preload_counter i = i mod 1000

let preload_binding w i =
  let v = if is_counter w i then string_of_int (preload_counter i) else value_of i ~stamp:0 in
  (key_of_index i, v)

(* -------------------------------- Zipfian -------------------------------- *)

(* YCSB's bounded Zipfian (Gray et al.), ranks scattered over the keyspace
   by a fixed bijection so hot keys do not cluster in one key range (the
   store is a map ordered by key, so clustered hot keys would share one
   subtree and keep its lookup path in cache). *)
type zipf = {
  n : int;
  zetan : float;
  alpha : float;
  eta : float;
  half_pow : float;
  scatter : int;  (* a multiplier coprime to [n] *)
}

let zeta n =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The first multiplier coprime to [n] from n/phi up: rank r goes to
   r * m mod n, a bijection on [0, n), and consecutive ranks land about
   0.618 n apart, so the hot ranks spread evenly over the keyspace.  For
   n = 1M this is 618_033. *)
let scatter_multiplier n =
  let rec from m = if gcd m n = 1 then m else from (m + 1) in
  from (max 1 (int_of_float (float_of_int n *. 0.6180339887498949)))

let zipf_create n =
  let zetan = zeta n in
  { n;
    zetan;
    alpha = 1.0 /. (1.0 -. theta);
    eta = (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta)) /. (1.0 -. (zeta 2 /. zetan));
    half_pow = Float.pow 0.5 theta;
    scatter = scatter_multiplier n }

let zipf_sample z rng =
  let u = Random.State.float rng 1.0 in
  let uz = u *. z.zetan in
  let rank =
    if uz < 1.0 then 0
    else if uz < 1.0 +. z.half_pow then 1
    else
      min (z.n - 1)
        (int_of_float (float_of_int z.n *. Float.pow ((z.eta *. u) -. z.eta +. 1.0) z.alpha))
  in
  rank * z.scatter mod z.n

(* ------------------------------- generator ------------------------------- *)

let kind_get = 0
let kind_set = 1
let kind_update = 2

type gen = {
  w : t;
  rng : Random.State.t;
  zipf : zipf option;
  lane : int;
  mutable stamp : int;
  (* The last generated operation. *)
  mutable kind : int;
  mutable idx : int;
  mutable delta : int;
}

(* One independent stream per (seed, lane). *)
let gen w ~seed ~lane =
  { w;
    rng = Random.State.make [| seed; lane; 0x6b6578 |];
    zipf = (if w.zipf then Some (zipf_create w.keys) else None);
    lane;
    stamp = 0;
    kind = kind_get;
    idx = 0;
    delta = 0 }

let next g =
  let w = g.w in
  let r = Random.State.int g.rng 100 in
  let i = match g.zipf with Some z -> zipf_sample z g.rng | None -> Random.State.int g.rng w.keys in
  if r < w.get_pct + w.set_pct then begin
    g.kind <- (if r < w.get_pct then kind_get else kind_set);
    (* Values live on even indices when counters take the odd ones. *)
    g.idx <- (if has_counters w then i land lnot 1 else i)
  end
  else begin
    g.kind <- kind_update;
    g.idx <- (if i lor 1 < w.keys then i lor 1 else i - 1);
    g.delta <- 1 + Random.State.int g.rng 7
  end

(* The wire request for the last generated operation.  SET stamps are
   unique per lane, so every written value is distinct. *)
let request g : Kex_service.Protocol.request =
  let key = key_of_index g.idx in
  if g.kind = kind_get then Kex_service.Protocol.Get key
  else if g.kind = kind_set then begin
    g.stamp <- g.stamp + 1;
    Kex_service.Protocol.Set (key, value_of g.idx ~stamp:((g.stamp * 2) + g.lane))
  end
  else Kex_service.Protocol.Update (key, g.delta)
