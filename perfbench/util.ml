(* Clocks, /proc readers and order statistics shared by the benchmark's
   modules. *)

external now_ns : unit -> int = "kbench_now_ns" [@@noalloc]
external clk_tck : unit -> int = "kbench_clk_tck" [@@noalloc]
external idle_spin : unit -> bool = "kbench_idle_spin"

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

type samples = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Latency stores are allocated, never initialised: the kernel hands the
   pages over only as samples are written, so a generous capacity costs
   nothing up front and nothing is recorded through the OCaml heap. *)
let samples n : samples = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 n)

(* Gather entries [lo, hi) of each store into one sorted array. *)
let sorted_of (parts : (samples * int * int) list) =
  let total = List.fold_left (fun a (_, lo, hi) -> a + (hi - lo)) 0 parts in
  let out = Array.make total 0 in
  let pos = ref 0 in
  List.iter
    (fun (s, lo, hi) ->
      for i = lo to hi - 1 do
        out.(!pos + i - lo) <- Bigarray.Array1.get s i
      done;
      pos := !pos + (hi - lo))
    parts;
  Array.sort Int.compare out;
  out

(* Nearest-rank percentile of a sorted array; [nan] when empty. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    float_of_int sorted.(max 0 (min (n - 1) r))

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* Median of the defined values. *)
let median xs =
  match List.sort Float.compare (List.filter (fun x -> not (Float.is_nan x)) xs) with
  | [] -> Float.nan
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* /proc files report length 0; read them line by line. *)
let read_proc path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_string b (input_line ic);
           Buffer.add_char b '\n'
         done
       with End_of_file -> ());
      Buffer.contents b)

(* /proc/<pid>/stat, read once: field [i] numbered from 1 as in proc(5). *)
let proc_stat pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  (* The command name (field 2) may hold spaces; fields resume after ')'. *)
  let after = String.rindex s ')' + 2 in
  let rest = Array.of_list (String.split_on_char ' ' (String.sub s after (String.length s - after))) in
  fun i -> int_of_string rest.(i - 3)

(* utime + stime (fields 14 and 15) of a whole process, every thread, in
   seconds. *)
let proc_cpu_s pid =
  let f = proc_stat pid in
  float_of_int (f 14 + f 15) /. float_of_int (clk_tck ())

(* Host-wide (steal, total) clock ticks from /proc/stat: time the
   hypervisor gave this machine's vCPUs to someone else. *)
let host_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_proc "/proc/stat")) in
  let f = List.filter_map int_of_string_opt (String.split_on_char ' ' line) in
  let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) f) in
  ((match List.nth_opt f 7 with Some s -> s | None -> 0), total)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A "Key:   N kB" line of /proc/<pid>/status, in MiB. *)
let proc_status_mb pid key =
  let s = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:(key ^ ":") l) (String.split_on_char '\n' s)
  in
  let words =
    String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
    |> List.filter (( <> ) "")
  in
  float_of_string (List.nth words 1) /. 1024.0
