(** The sweep harness behind [kexd serve-sweep] and [kexd cluster-sweep]:
    a sweep is a list of cells, run, gated, written and read back by the
    functions below.

    A {e cell} is one load-generator run: the record section it belongs
    to, its own parameters, its gate class and its {!Loadgen.summary}.
    Cells run in {e groups}: one server — in process, an out-of-process
    [kexd serve] child, or an in-process N-node cluster — driven by one or
    more loads in turn, with optional mid-run steps (chaos kills,
    {!Server.handoff}, {!Server.adopt}).

    Records are schema [kexclusion-serve/v6]: provenance, the caller's
    [config] block, the headline cell's summary as [totals], and one key
    per section holding its cells.  Every cell carries its parameters, its
    gate class and the same metric fields ({!write}). *)

type gate =
  | Gated  (** every failure counts *)
  | Baseline
      (** a deliberately degraded baseline (admission GETs on a wedged
          shard): its timeouts are the measurement, exempt from every gate *)

type cell = {
  section : string;  (** the record key it is written under, e.g. [sweep] *)
  params : (string * Json.t) list;  (** the cell's own parameters *)
  gate : gate;
  summary : Loadgen.summary;
}

type load = {
  section : string;
  params : (string * Json.t) list;
  gate : gate;
  config : Loadgen.config;
      (** where to connect is filled in by {!run}: [port] for a single
          server, [cluster] seeds and [expect_dead] for a cluster *)
}
(** A cell before it runs. *)

type server =
  | In_process of Server.config
  | Child of Server.config
      (** [kexd serve] as a child process: the running executable re-run
          with the config as flags (shards, workers, k, algo, chaos,
          reactors, admission reads) on the ephemeral port it announces *)
  | Cluster of int * Server.config
      (** N in-process nodes on ephemeral ports joined over the discovered
          address list *)

type action =
  | Kill of Chaos.action  (** fired by the node's own chaos schedule *)
  | Handoff of { shard : int; dst : int }  (** live-migrate [shard] to node [dst] *)
  | Adopt of int  (** take over the shard (failover after a node kill) *)

type step = { at_s : float; node : int; action : action }
(** [at_s] seconds after the group's server starts. *)

val run :
  ?steps:step list ->
  ?preload:(string * string) Seq.t ->
  ?on_cell:(cell -> unit) ->
  server ->
  load list ->
  cell list
(** Run one group: start the server (kills scheduled into the targeted
    nodes' chaos), [preload] it (in-process servers only; node 0 of a
    cluster), drive the loads one after another while a thread fires the
    handoff/adopt steps, stop the server.  Nodes hit by a [Kill Kill_node]
    step are the loads' [expect_dead], recorded as the cell parameter
    [dead]; a group with handoff/adopt steps records [ok] = 1 iff all of
    them succeeded.  [on_cell] sees each cell once the group is done. *)

val headline : by:string list -> cell list -> cell option
(** The first cell maximizing its integer parameters [by], compared in
    order — e.g. the (max S, max W) matrix cell. *)

val gate : fail_on_errors:bool -> cell list -> (unit, string) result
(** The exit-code gate over the [Gated] cells: [Error] if one had no
    successful request, if a mid-run step failed ([ok] = 0), or — under
    [fail_on_errors] — if any error was not expected. *)

val write :
  file:string ->
  headline:string * string list ->
  config:(string * Json.t) list ->
  cell list ->
  unit
(** The [kexclusion-serve/v6] record: [totals] is the summary of the
    {!headline} cell [by] the given parameters among the given section's
    cells (no record at all if that section is empty); then every section
    in order of first appearance ([migration]/[kill] as one object each,
    as v5 wrote them).
    A cell is its parameters, then [gate], then the metric fields every
    section shares: requests, errors, expected_errors, redirects,
    throughput_rps, get_rps (successful GETs per second), p50_us, p99_us,
    max_us. *)

val read : Json.t -> cell list
(** Every cell of any serve record, v1 through v6: each top-level key
    except [totals] whose value is a cell (an object with [requests]) or a
    list of them, in document order.  Plain loadgen records yield their
    [phases] and [ops] buckets.  A record without [gate] fields marks the
    [admission-wedged] read cell as its baseline. *)

val get_rps : Loadgen.summary -> float
val pp_cell : Format.formatter -> cell -> unit
