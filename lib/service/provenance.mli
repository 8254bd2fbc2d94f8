(** Provenance stamps for machine-readable run records, so committed
    [BENCH_*.json] trajectories across PRs are attributable to a commit and
    a machine. *)

val git_rev : unit -> string
(** Short commit hash of HEAD, or ["unknown"] outside a git checkout. *)

val hostname : unit -> string

val fields : unit -> (string * Json.t) list
(** [git_rev], [hostname], [ocaml], [cores] (the runtime's
    [Domain.recommended_domain_count]) and [ocamlrunparam] ([""] when
    unset), in that order — the stamp every serve record carries. *)
